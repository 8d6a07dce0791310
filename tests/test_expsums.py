import cmath
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylbound import acceptance, expsums
from weylbound.arith import inv_mod, primes_up_to, unit_roots
from weylbound.characters import (
    closed_form_candidate,
    enumerate_characters,
    gauss_sum,
    odd_character_average,
)
from weylbound.expsums import (
    charsum_congruence,
    charsum_grid,
    kloosterman,
    kloosterman_crt,
    twisted_kloosterman,
    verify_twisted_factorization,
)

TOL = 1e-9


def quadratic_character(p):
    """The Legendre-symbol character mod an odd prime p: the one
    non-principal character whose values are all real."""
    (chi,) = [
        ch for ch in enumerate_characters(p)
        if not ch.is_principal
        and all(abs(ch.value(x).imag) < 1e-12 for x in range(1, p))
    ]
    return chi


def test_kloosterman_hand_values():
    assert abs(kloosterman(1, 1, 1) - 1.0) < 1e-15
    assert abs(kloosterman(1, 1, 2) - 1.0) < 1e-12
    assert abs(kloosterman(1, 1, 3) - (-1.0)) < 1e-12
    # Ramanujan-sum specialization
    assert abs(kloosterman(0, 1, 4) - 0.0) < 1e-12


def test_kloosterman_real():
    for c in range(1, 60):
        for m, n in [(1, 1), (2, 3), (0, 5), (7, 11)]:
            assert abs(kloosterman(m, n, c).imag) < 1e-9


def test_kloosterman_symmetry():
    for c in range(1, 40):
        for m in range(0, 6):
            for n in range(0, 6):
                d = kloosterman(m, n, c) - kloosterman(n, m, c)
                assert abs(d) < 1e-12


def test_weil_bound_exhaustive_small():
    for p in primes_up_to(50):
        for m in range(1, p):
            for n in range(1, p):
                assert abs(kloosterman(m, n, p)) <= 2 * math.sqrt(p) + 1e-9


@pytest.mark.parametrize("p", [61, 101, 151, 211, 307, 401, 499])
def test_weil_bound_sampled_larger(p):
    for m in (1, 2, 3, p // 2, p - 1):
        for n in (1, 5, p - 2):
            assert abs(kloosterman(m, n, p)) <= 2 * math.sqrt(p) + 1e-9


def test_crt_multiplicativity():
    for c1, c2 in [(3, 4), (5, 6), (7, 9), (8, 15), (25, 29), (16, 27)]:
        for m, n in [(1, 1), (2, 5), (0, 1), (3, 7)]:
            brute = kloosterman(m, n, c1 * c2)
            fast = kloosterman_crt(m, n, c1, c2)
            assert abs(brute - fast) < 1e-9, (c1, c2, m, n)


def test_twisted_reduces_to_untwisted():
    # every unit mod c is prime to 3, where the principal character is 1
    principal3 = enumerate_characters(3)[0]
    for c in (3, 6, 12, 15):
        for m, n in [(1, 1), (2, 3)]:
            assert abs(
                twisted_kloosterman([principal3], m, n, c)[0] - kloosterman(m, n, c)
            ) < 1e-12


def test_twisted_hand_value_mod3():
    chi = quadratic_character(3)
    (val,) = twisted_kloosterman([chi], 1, 1, 3)
    expect = cmath.exp(4j * math.pi / 3) - cmath.exp(8j * math.pi / 3)
    assert abs(val - expect) < 1e-12
    assert abs(val - (-1j * math.sqrt(3))) < 1e-12


def test_twisted_quadratic_mod5_gauss_structure():
    chi = quadratic_character(5)
    (val,) = twisted_kloosterman([chi], 0, 2, 5)
    # S_chi(0, 2; 5) = sum chi(x) e(2 xbar/5) = conj(chi)(2bar)... brute check
    brute = sum(
        chi.value(x) * cmath.exp(2j * math.pi * (2 * inv_mod(x, 5)) / 5)
        for x in range(1, 5)
    )
    assert abs(val - brute) < 1e-12


def _twisted_loop(chi, m, n, c):
    # oracle: one chi.value call and one complex product per unit
    xs, invs = expsums.units_and_inverses(c)
    idx = (m % c * xs + n % c * invs) % c
    roots = unit_roots(c)
    re, im = [], []
    for x, j in zip(xs, idx):
        w = roots[j] * chi.value(int(x))
        re.append(w.real)
        im.append(w.imag)
    return complex(math.fsum(re), math.fsum(im))


def test_twisted_tables_match_unit_loop_bitwise():
    # every character mod q <= 13, every multiple c <= 20 q of q: one
    # call per (q, c) over the characters and the (m, n) pairs
    cases = 0
    for q in (3, 5, 7, 11, 13):
        chars = enumerate_characters(q)
        pairs = ((0, 1), (1, 1), (2, q - 1), (q, 3))
        ms, ns = zip(*pairs)
        for c in range(q, 20 * q + 1, q):
            got = twisted_kloosterman(chars, ms, ns, c)
            for j, chi in enumerate(chars):
                for i, (m, n) in enumerate(pairs):
                    assert got[j, i] == _twisted_loop(chi, m, n, c)
                    cases += 1
    assert cases == 2720


def test_twisted_modulus_mismatch():
    chi = quadratic_character(5)
    with pytest.raises(ValueError):
        twisted_kloosterman([chi], 1, 1, 12)


def _primitive_odd(q):
    return [c for c in enumerate_characters(q) if c.primitive and c.is_odd]


def test_factorization_exact_middle_q3():
    rep = verify_twisted_factorization(_primitive_odd(3), n=1, mprime=1, nu=0, c=2)
    assert rep.lhs.shape == (1,)
    assert rep.diff_lhs_middle[0] < TOL
    assert rep.diff_lhs_corrected[0] < TOL
    # displayed final form misses psi(-1) = -1: off by a sign here
    assert rep.diff_lhs_displayed[0] > 1.0


def test_factorization_degenerate_c1():
    rep = verify_twisted_factorization(_primitive_odd(3), n=2, mprime=1, nu=1, c=1)
    assert rep.diff_lhs_middle[0] < TOL
    assert rep.diff_lhs_corrected[0] < TOL


@pytest.mark.parametrize("q", [3, 5, 7])
def test_factorization_sweep_small(q):
    mprime = 3 if q != 3 else 2
    psis = _primitive_odd(q)
    for c in [1, 2, 4, 5, 6]:
        if math.gcd(c, q) != 1:
            continue
        rep = verify_twisted_factorization(psis, n=2, mprime=mprime, nu=[0, 1], c=c)
        assert rep.lhs.shape == (len(psis), 2)
        assert np.all(rep.diff_lhs_middle < TOL), (q, c)
        assert np.all(rep.diff_lhs_corrected < TOL), (q, c)


def test_factorization_rejects_bad_args():
    psis = _primitive_odd(5)
    with pytest.raises(ValueError):
        verify_twisted_factorization(psis, n=1, mprime=1, nu=0, c=10)
    with pytest.raises(ValueError):
        verify_twisted_factorization(psis, n=1, mprime=5, nu=0, c=2)
    even = [c for c in enumerate_characters(5) if c.primitive and not c.is_odd]
    with pytest.raises(ValueError):
        verify_twisted_factorization(even[:1], n=1, mprime=1, nu=0, c=2)


def test_charsum_grid_hand_values():
    r = charsum_grid(1, 2, 5)
    assert r.closed_form is not None
    assert abs(r.value - 5 * cmath.exp(-2j * math.pi * 3 / 5)) < TOL
    assert r.abs_diff < TOL

    for c0 in range(1, 21):
        r = charsum_grid(0, 1, c0)
        assert abs(r.value - c0) < TOL

    r = charsum_grid(7, 3, 8)
    assert abs(r.value - 8 * cmath.exp(-2j * math.pi * 21 / 8)) < TOL


def test_charsum_grid_closed_form_sweep():
    # every m mod c with every unit n, one call per c
    for c in range(1, 41):
        units = np.array([n for n in range(1, c + 1) if math.gcd(n, c) == 1])
        r = charsum_grid(np.arange(c), units[:, None], c)
        assert r.abs_diff is not None and r.abs_diff.shape == (units.size, c)
        assert np.all(r.abs_diff < TOL), c


def test_charsum_grid_noncoprime_marked_inapplicable():
    r = charsum_grid(3, 2, 8)
    assert r.closed_form is None
    assert abs(r.value) < TOL  # no unit beta matches -n


def charsum_grid_collapsed(m: int, n: int, c: int) -> complex:
    """The grid sum with its alpha-sum collapsed onto beta = -n.

    sum over alpha of e(alpha (beta + n)/c) is c when beta = -n mod c
    and 0 otherwise, so the grid reduces to a single term (or to 0 when
    -n is not a unit).
    """
    if c == 1:
        return 1.0 + 0.0j
    betabar = inv_mod(-n, c)
    if betabar is None:
        return 0.0 + 0.0j
    return c * complex(unit_roots(c)[(m % c) * betabar % c])


def test_charsum_collapsed_matches_brute():
    for c in range(1, 30):
        for n in range(0, c):
            for m in (0, 1, 7):
                assert abs(
                    charsum_grid(m, n, c).value - charsum_grid_collapsed(m, n, c)
                ) < 1e-9


def test_charsum_congruence_hand_values():
    r = charsum_congruence(2, 1, 1, 3, 5)
    assert r.indicator and abs(r.value - 15.0) < TOL

    r = charsum_congruence(1, 1, 1, 3, 5)
    assert not r.indicator and abs(r.value) < TOL

    # n1=2, n2=3, c1=5, c2=7: 2bar=3 mod 5, 3bar=5 mod 7, m = 3*7 - 5*5 = -4 mod 35
    r = charsum_congruence(-4, 2, 3, 5, 7)
    assert r.indicator and abs(r.value - 35.0) < TOL


def test_charsum_congruence_sweep():
    # every unit pair (n1, n2) with sampled m, one call per (c1, c2)
    for c1 in range(1, 13):
        for c2 in range(1, 13):
            if math.gcd(c1, c2) != 1:
                continue
            n1 = np.array([n for n in range(1, c1 + 1) if math.gcd(n, c1) == 1])
            n2 = np.array([n for n in range(1, c2 + 1) if math.gcd(n, c2) == 1])
            ms = np.arange(0, c1 * c2, max(1, c1 * c2 // 3))
            r = charsum_congruence(ms, n1[:, None, None], n2[:, None], c1, c2)
            assert r.abs_diff.shape == (n1.size, n2.size, ms.size)
            assert np.all(r.abs_diff < TOL), (c1, c2)


def test_charsum_congruence_rejects_noncoprime():
    with pytest.raises(ValueError):
        charsum_congruence(0, 2, 1, 4, 5)


def _same(a, b):
    # bit-for-bit: equal values with equal signs of zero
    return repr(complex(a)) == repr(complex(b))


@pytest.mark.parametrize("n, c", [(1, 1), (1, 5), (3, 8), (2, 8), (7, 30), (11, 40)])
def test_charsum_grid_array_m_matches_scalar_calls(n, c):
    ms = np.arange(-c, 2 * c)
    r = charsum_grid(ms, n, c)
    for i, m in enumerate(ms.tolist()):
        one = charsum_grid([m], n, c)
        assert _same(r.value[i], one.value[0]), m
        if one.closed_form is None:
            assert r.closed_form is None and r.abs_diff is None
        else:
            assert _same(r.closed_form[i], one.closed_form[0]), m
            assert r.abs_diff[i] == one.abs_diff[0], m


@pytest.mark.parametrize(
    "n1, n2, c1, c2", [(1, 1, 1, 1), (1, 1, 3, 5), (2, 3, 5, 7), (5, 7, 12, 11), (3, 1, 4, 9)]
)
def test_charsum_congruence_array_m_matches_scalar_calls(n1, n2, c1, c2):
    ms = np.arange(-3, c1 * c2 + 3)
    r = charsum_congruence(ms, n1, n2, c1, c2)
    for i, m in enumerate(ms.tolist()):
        one = charsum_congruence([m], n1, n2, c1, c2)
        assert _same(r.value[i], one.value[0]) and _same(r.predicted[i], one.predicted[0]), m
        assert r.indicator[i] == one.indicator[0], m
        assert r.abs_diff[i] == one.abs_diff[0], m


def test_criterion_1_sums_each_root_sum_once(monkeypatch):
    rows = Counter()
    kernel = expsums._root_count_sums

    def counted(counts, c, imag=False):
        rows[c] += len(counts)
        return kernel(counts, c, imag)

    expsums._root_sums.cache_clear()
    monkeypatch.setattr(expsums, "_root_count_sums", counted)
    res = acceptance.criterion_charsums()
    # one count row per m of each (c, n) grid, and one per (c1 c2, t) of
    # the congruence sums, however many (n1, n2) read it
    units = lambda c: sum(math.gcd(n, c) == 1 for n in range(1, c + 1))
    grid = sum(c * units(c) for c in range(1, 41))
    moduli = {c1 * c2 for c1 in range(1, 13) for c2 in range(1, 13) if math.gcd(c1, c2) == 1}
    assert sum(rows.values()) == grid + sum(moduli) == 14_778
    # the grid values are exactly rounded, so only the closed forms' own
    # rounding remains
    assert res.detail == "grid worst 8.79e-14, congruence worst 2.56e-14"


def _expanded_sum(counts, roots):
    """math.fsum of the expanded terms: N_r copies of each root.  Past
    10^4 copies a root enters as its exact multiples 2^b root, one per
    set bit b of N_r; they add up exactly to the same total, and fsum
    rounds that total once either way."""
    terms = []
    for r, n in enumerate(counts.tolist()):
        if n <= 10_000:
            terms += [roots[r]] * n
        else:
            terms += [roots[r] * 2.0**b for b in range(n.bit_length()) if n >> b & 1]
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def test_root_count_sums_equal_fsum_of_expanded_terms():
    rng = np.random.default_rng(7)
    limit = expsums.COUNT_LIMIT
    for c in range(1, 401):
        roots = unit_roots(c).tolist()
        counts = np.zeros((3, c), dtype=np.int64)
        counts[0] = rng.integers(0, 4, c)
        counts[1, rng.integers(0, c, 3)] = rng.integers(1, 50, 3)
        # row 2 stays zero
        # a batch at the limit: spread over every residue, or 2^33 copies
        # of 1, where the limb GEMM reaches 2^53
        spread = rng.multinomial(limit, np.full(c, 1.0 / c)).reshape(1, c)
        ones = np.zeros((1, c), dtype=np.int64)
        ones[0, 0] = limit
        for batch in (counts, spread, ones):
            got = expsums._root_count_sums(batch, c, imag=True)
            re = expsums._root_count_sums(batch, c)
            for i, row in enumerate(batch):
                want = _expanded_sum(row, roots)
                assert repr(complex(got[i])) == repr(want), (c, i)
                assert repr(float(re[i])) == repr(want.real), (c, i)


def test_root_count_sums_refuse_batches_past_the_limit():
    counts = np.zeros((2, 7), dtype=np.int64)
    counts[0, 3] = expsums.COUNT_LIMIT - 1
    counts[1, 5] = 1
    expsums._root_count_sums(counts, 7)  # at the limit: accepted
    counts[1, 5] = 2
    with pytest.raises(ValueError, match=r"8589934592 = 2\^33"):
        expsums._root_count_sums(counts, 7)


@pytest.mark.parametrize("c", [1, 2, 7, 12, 60])
def test_kloosterman_reals_equal_scalar_calls(c):
    a = np.arange(-c, 2 * c)
    for b in (0, 1, c - 1, 5 * c + 3):
        got = expsums.kloosterman_reals(a, b, c)
        assert got.shape == a.shape
        for i, m in enumerate(a.tolist()):
            (one,) = kloosterman([m], b, c)
            assert repr(float(got[i])) == repr(float(one.real)), (m, b)
    grid = expsums.kloosterman_reals(a.reshape(-1, 1), a.reshape(1, -1), c)
    assert grid.shape == (a.size, a.size)
    assert np.array_equal(grid, grid.T)  # S(m, n; c) = S(n, m; c), bit for bit


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=-30, max_value=30),
    n=st.integers(min_value=-30, max_value=30),
    c=st.integers(min_value=1, max_value=60),
)
def test_kloosterman_shift_invariance(m, n, c):
    # S(m, n; c) depends only on m, n mod c
    assert abs(kloosterman(m, n, c) - kloosterman(m + c, n - 3 * c, c)) < 1e-12


@pytest.mark.parametrize("c", [1, 2, 8, 30, 37])
def test_charsum_grid_array_n_matches_scalar_calls(c):
    # every unit n with every m as one call, batched over count rows
    ns = np.array([n for n in range(1, c + 1) if math.gcd(n, c) == 1])
    ms = np.arange(-1, c + 1)
    r = charsum_grid(ms[None, :], ns[:, None], c)
    assert r.value.shape == (ns.size, ms.size)
    for i, n in enumerate(ns.tolist()):
        for j, m in enumerate(ms.tolist()):
            one = charsum_grid([m], [n], c)
            assert _same(r.value[i, j], one.value[0]), (m, n)
            assert _same(r.closed_form[i, j], one.closed_form[0]), (m, n)
            assert r.abs_diff[i, j] == one.abs_diff[0], (m, n)


def test_charsum_grid_array_n_with_a_nonunit_is_inapplicable():
    r = charsum_grid(np.arange(8), np.array([[1], [2]]), 8)
    assert r.closed_form is None and r.abs_diff is None
    assert _same(r.value[1, 3], charsum_grid(3, 2, 8).value)


@pytest.mark.parametrize("c1, c2", [(1, 1), (1, 7), (3, 5), (4, 9), (12, 11)])
def test_charsum_congruence_array_n_matches_scalar_calls(c1, c2):
    n1 = np.array([n for n in range(1, c1 + 1) if math.gcd(n, c1) == 1])
    n2 = np.array([n for n in range(1, c2 + 1) if math.gcd(n, c2) == 1])
    ms = np.arange(-2, c1 * c2 + 2)
    r = charsum_congruence(ms, n1[:, None, None], n2[:, None], c1, c2)
    assert r.value.shape == (n1.size, n2.size, ms.size)
    for i, a in enumerate(n1.tolist()):
        for j, b in enumerate(n2.tolist()):
            for k, m in enumerate(ms.tolist()):
                one = charsum_congruence([m], [a], [b], c1, c2)
                assert _same(r.value[i, j, k], one.value[0]), (m, a, b)
                assert _same(r.predicted[i, j, k], one.predicted[0]), (m, a, b)
                assert r.indicator[i, j, k] == one.indicator[0]
                assert r.abs_diff[i, j, k] == one.abs_diff[0], (m, a, b)


def test_charsum_congruence_array_rejects_a_noninvertible_n():
    with pytest.raises(ValueError, match="not invertible modulo 4"):
        charsum_congruence(0, np.array([1, 2]), 1, 4, 5)


def _fsum_of(terms):
    """The correctly rounded sum of complex terms, part by part."""
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def _factorization_by_expanded_terms(chi, n, mprime, nu, c):
    """(lhs, middle, displayed, corrected) from fsum over the expanded
    terms of each sum and one Python complex product per factor."""
    q = chi.modulus

    def twisted(m_, n_, cc):
        return _fsum_of([
            complex(unit_roots(cc)[(m_ * x + n_ * inv_mod(x, cc)) % cc]) * chi.value(x)
            for x in range(1, cc) if math.gcd(x, cc) == 1
        ])

    def plain(a, b):
        return _fsum_of([
            complex(unit_roots(c)[(a * x + b * inv_mod(x, c)) % c])
            for x in range(c) if math.gcd(x, c) == 1
        ])

    cbar = inv_mod(c, q)
    qbar = inv_mod(q, c) if c > 1 else 0
    lhs = twisted(n * q ** (2 + nu), mprime, c * q)
    middle = twisted(0, mprime * cbar, q) * plain(n * q ** (1 + nu), mprime * qbar)
    eps = gauss_sum(chi).epsilon
    front = math.sqrt(q) * eps.conjugate() * chi.value(mprime * cbar)
    displayed = front * plain(n, mprime * q**nu)
    return lhs, middle, displayed, chi.value(q - 1) * displayed


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_factorization_arrays_equal_expanded_terms(q):
    # every odd character mod q as one call per c, over (nu, n, m') rows
    psis = _primitive_odd(q)
    ns, mps, nus = [1, 2, 5, 1], [1, q - 1, 2, q + 1], [0, 0, 1, 2]
    for c in (1, 2, 6, 9, 10):
        if math.gcd(c, q) != 1:
            continue
        rep = verify_twisted_factorization(psis, n=ns, mprime=mps, nu=nus, c=c)
        assert rep.lhs.shape == (len(psis), len(ns))
        for j, chi in enumerate(psis):
            for i in range(len(ns)):
                want = _factorization_by_expanded_terms(chi, ns[i], mps[i], nus[i], c)
                got = (rep.lhs[j, i], rep.middle[j, i], rep.displayed[j, i], rep.corrected[j, i])
                assert all(map(_same, got, want)), (q, j, c, i)
                assert float(rep.diff_lhs_middle[j, i]) == abs(want[0] - want[1])
                assert float(rep.diff_lhs_corrected[j, i]) == abs(want[0] - want[3])
                one = verify_twisted_factorization(
                    [chi], n=[ns[i]], mprime=[mps[i]], nu=[nus[i]], c=c
                )
                got = (one.lhs[0, 0], one.middle[0, 0], one.displayed[0, 0], one.corrected[0, 0])
                assert all(map(_same, got, want))


def test_twisted_kloosterman_arrays_equal_scalar_calls():
    chars13 = enumerate_characters(13)
    ms = np.array([0, 1, 5, 12, 40])
    got = twisted_kloosterman(chars13, ms, 3, 26)
    assert got.shape == (len(chars13), ms.size)
    for j, chi in enumerate(chars13):
        for i, m in enumerate(ms.tolist()):
            assert _same(got[j, i], twisted_kloosterman([chi], [m], 3, 26)[0, 0])
    with pytest.raises(ValueError):
        twisted_kloosterman(chars13 + enumerate_characters(5), 1, 1, 65)


def _zero_d_is_row_0(scalar, batch):
    assert isinstance(scalar, np.ndarray) and scalar.shape == ()
    assert batch.shape == (1,) and scalar == batch[0]


def test_scalar_parameters_give_0d_arrays_equal_to_a_batch_of_one():
    # one call form: scalar parameters are a batch of shape (), and every
    # field equals row 0 of the shape-(1,) call
    for one, batch in [
        (charsum_grid(7, 3, 8), charsum_grid([7], [3], 8)),
        (charsum_congruence(-4, 2, 3, 5, 7), charsum_congruence([-4], [2], [3], 5, 7)),
    ]:
        for f in dataclasses.fields(one):
            _zero_d_is_row_0(getattr(one, f.name), getattr(batch, f.name))
    _zero_d_is_row_0(kloosterman(2, 5, 12), kloosterman([2], [5], 12))
    _zero_d_is_row_0(
        odd_character_average(7, 2, 3, 4), odd_character_average(7, [2], [3], [4])
    )
    _zero_d_is_row_0(
        closed_form_candidate(7, 2, 3, 1, "product"),
        closed_form_candidate(7, [2], [3], 1, "product"),
    )
