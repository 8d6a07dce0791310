import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylbound import modforms
from weylbound.arith import divisor_counts
from weylbound.modforms import (
    coefficient_bound_report,
    delta_eigenform,
    delta_qexp,
    dim_cusp,
    eisenstein_qexp,
    hecke_eigenforms,
    hecke_operator_matrix,
    poly_mul,
    victor_miller_basis,
)

# classical dimensions of S_k(SL(2,Z)) for even k
KNOWN_DIMS = {
    4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0, 16: 1, 18: 1, 20: 1,
    22: 1, 24: 2, 26: 1, 28: 2, 30: 2, 32: 2, 34: 2, 36: 3, 38: 2, 40: 3,
}

# first Ramanujan tau values (classical table)
TAU = [0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


def _schoolbook(a, b, prec):
    want = [0] * (prec + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= prec:
                want[i + j] += ai * bj
    return want


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.integers(min_value=-10**30, max_value=10**30), max_size=24),
    b=st.lists(st.integers(min_value=-10**30, max_value=10**30), max_size=24),
    prec=st.integers(min_value=0, max_value=50),
    square=st.booleans(),
)
def test_poly_mul_matches_schoolbook(a, b, prec, square):
    # mixed signs, coefficients up to 1e30, truncation at prec, a is b
    if square:
        b = a
    got = poly_mul(a, b, prec)
    assert got == _schoolbook(a, b, prec)
    assert len(got) == prec + 1


@pytest.mark.parametrize(
    "a, b, prec",
    [
        ([], [1, 2], 3),
        ([1, 2], [], 3),
        ([0, 0, 0], [5, -7], 4),
        ([0] * 5, [0] * 5, 6),
        ([1, -1] * 20, [1, 1] * 20, 80),  # long runs of negative digits
        ([-(10**30)] * 30, [-(10**30)] * 30, 58),  # every digit at the bound
        ([-3, 0, 0, 5], [2, -1], 1),  # truncation below the product degree
        ([2, -1], [1, 2], 0),
        ([-1], [1], 0),  # a negative product
    ],
)
def test_poly_mul_edge_cases(a, b, prec):
    assert poly_mul(a, b, prec) == _schoolbook(a, b, prec)
    assert poly_mul(a, a, prec) == _schoolbook(a, a, prec)


def _kronecker(a, b, prec):
    """Oracle independent of the FFT: signed Kronecker substitution
    (Harvey, J. Symbolic Comput. 44, 2009).  Each side is packed into one
    integer at B = 2^(8 width), B/2 above every product coefficient, and
    CPython's integer multiply does the convolution; the product's
    balanced base-B digits are the coefficients."""
    a, b = a[: prec + 1], b[: prec + 1]
    if not any(a) or not any(b):
        return [0] * (prec + 1)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    base = 1 << (8 * width)

    def pack(coeffs):
        # the positive part's bytes minus the negative part's
        def unsigned(cs):
            return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")

        return unsigned([max(c, 0) for c in coeffs]) - unsigned([max(-c, 0) for c in coeffs])

    value = pack(a) * pack(b)
    n_out = min(len(a) + len(b) - 1, prec + 1)
    raw = value.to_bytes(max(value.bit_length() // 8 + 1, width * n_out), "little", signed=True)
    out, carry = [], 0
    for i in range(n_out):
        digit = int.from_bytes(raw[i * width : (i + 1) * width], "little") + carry
        carry = digit >= base >> 1
        out.append(digit - base if carry else digit)
    return out + [0] * (prec + 1 - n_out)


def test_kronecker_oracle_matches_schoolbook():
    rng = random.Random(3)
    for _ in range(50):
        a = [rng.randint(-10**20, 10**20) for _ in range(rng.randint(1, 12))]
        b = [rng.randint(-10**20, 10**20) for _ in range(rng.randint(1, 12))]
        prec = rng.randint(0, 25)
        assert _kronecker(a, b, prec) == _schoolbook(a, b, prec)


def test_eta_squarings_match_kronecker_oracle():
    # each of the three squarings eta^3 -> eta^24 at the prec delta_qexp(12000) uses
    prec = 11999
    power = [0] * (prec + 1)
    m = 0
    while m * (m + 1) // 2 <= prec:
        power[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
        m += 1
    for _ in range(3):
        got = poly_mul(power, power, prec)
        assert got == _kronecker(power, power, prec)
        power = got
    assert power == modforms.eta_power24(prec)


@pytest.mark.parametrize("seed", range(3))
def test_poly_mul_matches_kronecker_oracle_on_long_lists(seed):
    # signed coefficients of 1..40 bytes, up to 3000 terms a side, squares
    # and distinct sides, whole and truncated (a prefix of the whole)
    rng = random.Random(seed)

    def signed_list():
        top = 1 << (8 * rng.randint(1, 40) - 1)
        return [rng.randint(-top, top - 1) for _ in range(rng.randint(1, 3000))]

    for _ in range(3):
        a, b = signed_list(), signed_list()
        for x, y in ((a, b), (a, a)):
            whole = len(x) + len(y) - 2
            want = _kronecker(x, y, whole)
            assert poly_mul(x, y, whole) == want
            cut = rng.randint(0, whole)
            assert poly_mul(x, y, cut) == want[: cut + 1]


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 16])
def test_poly_mul_at_digit_boundaries(width):
    # coefficients whose top byte flips sign: -2^(8w-1) fits w bytes and
    # 2^(8w-1), -2^(8w-1) - 1 need one more; 255 * 256^k has a full byte
    # under zero bytes, and zeros sit between them
    top = 1 << (8 * width - 1)
    edge = [top, -top, top - 1, -top - 1, 0, 1, -1]
    edge += [255 * 256**k for k in range(width)] + [-255 * 256**k for k in range(width)]
    rng = random.Random(width)
    a = edge * 20
    b = [rng.choice(edge) for _ in range(97)]
    for prec in (len(a) + len(b), 50, 0):
        assert poly_mul(a, b, prec) == _kronecker(a, b, prec)
        assert poly_mul(a, a, prec) == _kronecker(a, a, prec)
    for c in edge:
        assert poly_mul([c], [c], 0) == [c * c]
        assert poly_mul([c, 0], [-1, c], 1) == [-c, c * c]


def test_poly_mul_refuses_products_past_the_exact_bound(monkeypatch):
    # 17001-byte coefficients on 2000 terms: the a-priori entry bound is
    # past the limit, so ValueError comes before any transform
    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran")

    monkeypatch.setattr(np.fft, "rfft", no_transform)
    monkeypatch.setattr(np.fft, "irfft", no_transform)
    a = [1 << 136000] * 2000
    assert modforms._conv_bound(17001, 17001, 2000, 2000) > modforms._CONV_LIMIT
    assert modforms._conv_bound(17001, 17001, 900, 900) < modforms._CONV_LIMIT
    with pytest.raises(ValueError, match="exact limit"):
        poly_mul(a, a, 3999)
    with pytest.raises(ValueError, match="exact limit"):
        poly_mul(a, list(a), 3999)


def test_poly_mul_refuses_an_inexact_transform(monkeypatch):
    # an inverse transform off integers by 0.3 raises, never rounds
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: irfft(*args, **kwargs) + 0.3)
    with pytest.raises(ArithmeticError):
        poly_mul([1, 2, 3], [4, -5], 3)
    with pytest.raises(ArithmeticError):
        modforms.delta_qexp(100)


def test_dimension_formula():
    for k, d in KNOWN_DIMS.items():
        assert dim_cusp(k) == d, k


def test_eisenstein_first_terms():
    e4 = eisenstein_qexp(4, 4)
    assert e4 == [1, 240, 2160, 6720, 17520]
    e6 = eisenstein_qexp(6, 3)
    assert e6 == [1, -504, -16632, -122976]


def test_delta_tau_values(tau_12000):
    assert delta_qexp(10) == TAU
    assert tau_12000[: len(TAU)] == TAU


def test_vm_basis_empty_weights():
    assert victor_miller_basis(10, 20) == []
    assert victor_miller_basis(4, 20) == []


def test_vm_basis_weight12_is_delta():
    basis = victor_miller_basis(12, 10)
    assert len(basis) == 1
    assert list(basis[0].coefficients) == TAU
    assert basis[0].a(0) == 0


def test_vm_basis_weight16():
    basis = victor_miller_basis(16, 8)
    assert len(basis) == 1
    assert basis[0].a(1) == 1
    assert basis[0].a(2) == 216


def test_vm_basis_weight24_echelon():
    basis = victor_miller_basis(24, 12)
    assert len(basis) == 2
    for i, f in enumerate(basis):
        for j in range(1, 3):
            assert f.a(j) == (1 if j == i + 1 else 0)
        assert f.a(0) == 0


def test_vm_basis_echelon_exact_all_weights():
    for k in range(12, 41, 2):
        d = dim_cusp(k)
        if d == 0:
            continue
        basis = victor_miller_basis(k, d + 6)
        assert len(basis) == d
        for i, f in enumerate(basis):
            for j in range(1, d + 1):
                assert f.a(j) == (1 if j == i + 1 else 0), (k, i, j)


def test_vm_refuses_a_monomial_count_off_the_dimension(monkeypatch):
    # the count check raises, not asserts, so it holds under python -O too
    monkeypatch.setattr(modforms, "dim_cusp", lambda k: 2)
    with pytest.raises(ArithmeticError, match="monomials at weight 12"):
        victor_miller_basis(12, 10)


def test_vm_rejects_bad_weight():
    with pytest.raises(ValueError):
        victor_miller_basis(11, 10)
    with pytest.raises(ValueError):
        victor_miller_basis(2, 10)


def _pow_from_one(base, e, prec):
    # square-and-multiply from the polynomial 1, with schoolbook products
    result, acc = [1] + [0] * prec, base[: prec + 1]
    while e:
        if e & 1:
            result = _schoolbook(result, acc, prec)
        e >>= 1
        acc = _schoolbook(acc, acc, prec)
    return result


@pytest.mark.parametrize("k, n_products", [(12, 3), (16, 4), (24, 9), (38, 15)])
def test_vm_basis_takes_no_product_with_one(k, n_products, monkeypatch):
    # poly_pow starts from its first factor, and a pure power of E4 or E6
    # is not multiplied by the other's zeroth power
    calls = []

    def counted(a, b, prec):
        calls.append((a, b))
        return poly_mul(a, b, prec)

    monkeypatch.setattr(modforms, "poly_mul", counted)
    basis = victor_miller_basis(k, 300)
    assert len(calls) == n_products
    # same integers as monomials built from 1 with schoolbook products
    monkeypatch.setattr(modforms, "poly_mul", _schoolbook)
    monkeypatch.setattr(modforms, "poly_pow", _pow_from_one)
    assert basis == victor_miller_basis(k, 300)


@pytest.mark.parametrize("e", range(6))
def test_poly_pow_matches_repeated_products(e):
    base = [3, -1, 0, 7, 2]
    want = [1] + [0] * 9
    for _ in range(e):
        want = _schoolbook(want, base, 9)
    assert modforms.poly_pow(base, e, 9) == want


def test_hecke_consistency_commuting():
    # T_m T_n = T_{mn} for coprime m, n as exact integer matrices
    for k in (12, 24, 36):
        d = dim_cusp(k)
        pairs = [(2, 3), (2, 5), (3, 4), (2, 9), (3, 10)]
        need = max(m * n for m, n in pairs) * d + 2
        basis = victor_miller_basis(k, need * 2)
        for m, n in pairs:
            tm = np.array(hecke_operator_matrix(k, m, basis), dtype=object)
            tn = np.array(hecke_operator_matrix(k, n, basis), dtype=object)
            tmn = np.array(hecke_operator_matrix(k, m * n, basis), dtype=object)
            assert (tm @ tn == tmn).all(), (k, m, n)
            assert (tm @ tn == tn @ tm).all(), (k, m, n)


def test_eigenform_weight12():
    f = hecke_eigenforms(12, 30)[0]
    assert f.arithmetic_coeffs[2] == -24
    assert abs(f.lam(2) - (-24 / 2**5.5)) < 1e-12
    assert f.space_dim == 1


def test_eigenform_weight16():
    f = hecke_eigenforms(16, 20)[0]
    assert f.arithmetic_coeffs[2] == 216


def test_eigenforms_weight24_hecke_recursion():
    forms = hecke_eigenforms(24, 60)
    assert len(forms) == 2
    k = 24
    for f in forms:
        lam = f.lam
        # multiplicativity at coprime pairs
        for m, n in [(2, 3), (3, 4), (2, 5), (4, 5), (3, 7)]:
            assert abs(lam(m * n) - lam(m) * lam(n)) <= 1e-10 * max(
                1.0, abs(lam(m * n))
            )
        # recursion at p = 2: lam(2) lam(2^j) = lam(2^{j+1}) + lam(2^{j-1})
        for j in (1, 2, 3, 4):
            lhs = lam(2) * lam(2**j)
            rhs = lam(2 ** (j + 1)) + lam(2 ** (j - 1))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_eigenform_deligne_bound():
    for k in (12, 16, 18, 20, 22, 26):
        f = hecke_eigenforms(k, 200)[0]
        d = divisor_counts(200)
        for n in range(1, 201):
            assert abs(f.lam(n)) <= d[n] * (1 + 1e-10), (k, n)


def test_eigenform_prec_stability():
    short = hecke_eigenforms(24, 20)
    longer = hecke_eigenforms(24, 80)
    for fs, fl in zip(short, longer):
        for n in range(1, 21):
            assert abs(fs.lam(n) - fl.lam(n)) < 1e-9


def test_eigenforms_exist_through_weight30():
    # T_2 eigenvalues stay simple for every supported weight
    for k in range(12, 31, 2):
        if dim_cusp(k) == 0:
            continue
        forms = hecke_eigenforms(k, 24)
        assert len(forms) == dim_cusp(k)
        for f in forms:
            lhs = f.lam(2) * f.lam(3)
            assert abs(lhs - f.lam(6)) <= 1e-9 * max(1.0, abs(lhs)), k


def test_eigenforms_dim3_out_of_scope():
    with pytest.raises(NotImplementedError):
        hecke_eigenforms(36, 20)


def test_delta_two_routes_agree():
    # eta-product route against the Victor-Miller echelon route
    via_eta = delta_eigenform(300)
    via_vm = hecke_eigenforms(12, 300)[0]
    assert via_eta.arithmetic_coeffs == via_vm.arithmetic_coeffs


TAU_PREC = 12000


@pytest.fixture(scope="module")
def tau_12000():
    return delta_qexp(TAU_PREC)


def test_delta_ramanujan_congruence(tau_12000):
    # tau(n) = sigma_11(n) (mod 691) for every n, sieved independently here
    sigma = [0] * (TAU_PREC + 1)
    for d in range(1, TAU_PREC + 1):
        dr = pow(d, 11, 691)
        for m in range(d, TAU_PREC + 1, d):
            sigma[m] += dr
    bad = [n for n in range(1, TAU_PREC + 1) if (tau_12000[n] - sigma[n]) % 691]
    assert bad == []


def test_delta_hecke_relation_all_primes(tau_12000):
    # tau(p) tau(n) = tau(pn) + p^11 tau(n/p), for every prime p, pn <= prec
    tau = tau_12000
    checked = 0
    for p in range(2, TAU_PREC // 2 + 1):
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        p11 = p**11
        for n in range(1, TAU_PREC // p + 1):
            rhs = tau[p * n] + (p11 * tau[n // p] if n % p == 0 else 0)
            assert tau[p] * tau[n] == rhs, (p, n)
            checked += 1
    assert checked > 25_000


def _mp_eigenforms(k, prec):
    """Normalized lambda(n) of the dim-2 pair, with beta in 50-digit mpmath."""
    basis = victor_miller_basis(k, prec)
    (m00, m01), (m10, m11) = hecke_operator_matrix(k, 2, basis)
    with mp.workdps(50):
        root = mp.sqrt((m00 - m11) ** 2 + 4 * m01 * m10)
        forms = []
        for sign in (+1, -1):
            beta = (-(m00 - m11) + sign * root) / (2 * m01)
            forms.append([
                (basis[0].a(n) + beta * basis[1].a(n)) / mp.mpf(n) ** (mp.mpf(k - 1) / 2)
                for n in range(1, prec + 1)
            ])
        return forms


@pytest.mark.parametrize("k", [24, 28, 30])
def test_dim2_eigenforms_against_mpmath(k):
    prec = 200
    forms = hecke_eigenforms(k, prec)
    oracle = _mp_eigenforms(k, prec)
    assert len(forms) == len(oracle) == 2
    for f in forms:
        ref = min(oracle, key=lambda lam: abs(lam[1] - f.lam(2)))
        for n in range(1, prec + 1):
            want = ref[n - 1]
            assert abs(f.lam(n) - want) <= 1e-15 * abs(want), (k, n)


def test_delta_multiplicativity_exact():
    d = delta_qexp(300)
    for m, n in [(2, 3), (3, 5), (4, 9), (6, 35), (8, 27)]:
        assert d[m] * d[n] == d[m * n]


def test_coefficient_bound_report_delta():
    f = delta_eigenform(1000)
    rep = coefficient_bound_report(f, 1000)
    assert rep.max_deligne_ratio <= 1 + 1e-10
    for r in rep.partial_sum_ratios:
        assert 0.1 <= r <= 10.0


def test_coefficient_bound_report_trivial():
    f = delta_eigenform(10)
    rep = coefficient_bound_report(f, 1)
    assert abs(rep.max_deligne_ratio - 1.0) < 1e-12


def test_coefficient_bound_report_weight16():
    f = hecke_eigenforms(16, 500)[0]
    rep = coefficient_bound_report(f, 500)
    assert rep.max_deligne_ratio <= 1 + 1e-10
    for r in rep.partial_sum_ratios:
        assert 0.1 <= r <= 10.0


def test_coefficient_report_rejects_long_X():
    f = delta_eigenform(50)
    with pytest.raises(ValueError):
        coefficient_bound_report(f, 51)
