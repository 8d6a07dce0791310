import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylbound.arith import primes_up_to
from weylbound.characters import (
    closed_form_candidate,
    discover_average_convention,
    enumerate_characters,
    gauss_sum,
    odd_character_average,
)

TOL = 1e-9
ODD_PRIMES = [p for p in primes_up_to(100) if p > 2]


def quadratic_character(p):
    """The Legendre-symbol character mod an odd prime p, picked out by
    Euler's criterion: chi(x) = x^((p-1)/2) mod p, read as +-1."""
    def legendre(x):
        return 1.0 if pow(x, (p - 1) // 2, p) == 1 else -1.0

    (chi,) = [
        ch for ch in enumerate_characters(p)
        if all(abs(ch.value(x) - legendre(x)) < 1e-12 for x in range(1, p))
    ]
    return chi


def test_enumerate_q3():
    chars = enumerate_characters(3)
    assert len(chars) == 2
    principal = [c for c in chars if c.is_principal]
    assert len(principal) == 1
    assert principal[0].parity == "even"
    other = [c for c in chars if not c.is_principal][0]
    assert abs(other.value(2) - (-1.0)) < 1e-15
    assert other.parity == "odd"


@pytest.mark.parametrize(
    "q", sorted(ODD_PRIMES + [1, 2, 4, 6, 8, 9, 12, 15, 16, 24, 36, 45])
)
def test_enumeration_invariants(q):
    if q not in ODD_PRIMES:
        # characters are built only for odd prime moduli
        with pytest.raises(ValueError, match="odd prime"):
            enumerate_characters(q)
        return
    chars = enumerate_characters(q)
    assert len(chars) == q - 1
    assert chars[0].is_principal
    assert sum(1 for c in chars if c.is_principal) == 1
    # -1 is not 1 mod q, so characters split evenly by parity
    assert sum(1 for c in chars if c.is_odd) == (q - 1) // 2
    # no two characters share a value table
    assert len({c.exponents for c in chars}) == q - 1
    units = np.arange(1, q)
    for ch in chars:
        # values vanish exactly at 0 mod q
        assert ch.exponents[0] is None and ch.value(q) == 0.0
        # complete multiplicativity is exact on the exponent tables
        den = ch.exponent_den
        assert den == q - 1
        table = np.array([0, *ch.exponents[1:]], dtype=np.int64)
        e = table[1:]
        prod = np.outer(units, units) % q
        assert np.all((table[prod] - e[:, None] - e[None, :]) % den == 0)


@pytest.mark.parametrize("q", ODD_PRIMES)
def test_orthogonality(q):
    chars = enumerate_characters(q)
    for a in range(1, q):
        s = sum(ch.value(a) for ch in chars)
        expected = q - 1 if a == 1 else 0.0
        assert abs(s - expected) < 1e-12


def test_gauss_sum_quadratic_mod5():
    chi = quadratic_character(5)
    g = gauss_sum(chi)
    assert abs(g.g - math.sqrt(5)) < TOL
    assert abs(g.epsilon - 1.0) < TOL


def test_gauss_sum_quadratic_mod3():
    chi = quadratic_character(3)
    g = gauss_sum(chi)
    assert abs(g.g - 1j * math.sqrt(3)) < TOL


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_principal_prime(p):
    principal = [c for c in enumerate_characters(p) if c.is_principal][0]
    g = gauss_sum(principal)
    assert abs(g.g - (-1.0)) < TOL


def test_gauss_modulus_primitive_up_to_100():
    for q in ODD_PRIMES:
        for ch in enumerate_characters(q):
            if ch.primitive:
                assert gauss_sum(ch).abs_defect < 1e-9, (q, ch.exponents)


def test_odd_average_mod3():
    assert abs(odd_character_average(3, 1, 1, 1) - 1j) < TOL
    # independent of m'
    assert abs(odd_character_average(3, 1, 1, 2) - 1j) < TOL


def test_odd_average_mod5_matches_a_candidate():
    val = odd_character_average(5, 2, 1, 3)
    hit = [
        (s, a)
        for s in (1, -1)
        for a in ("product", "inverse")
        if abs(val - closed_form_candidate(5, 2, 1, s, a)) < 1e-12
    ]
    assert hit, val


def test_odd_average_rejects_noncoprime():
    with pytest.raises(ValueError):
        odd_character_average(5, 5, 1, 1)
    with pytest.raises(ValueError):
        odd_character_average(5, 1, 10, 1)
    with pytest.raises(ValueError):
        odd_character_average(5, 1, 1, 15)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_average_convention_discovered(q):
    conv = discover_average_convention(q)
    assert conv.max_abs_error < 1e-9
    # the derivation fixes the convention: +1 with x = c*l mod q
    assert conv.sign == 1
    assert conv.arg_choice == "product"


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_mprime_invariance(q):
    units = [x for x in range(1, q) if math.gcd(x, q) == 1]
    for c in units[:3]:
        for l in units[:3]:
            vals = [odd_character_average(q, c, l, m) for m in units]
            for v in vals[1:]:
                assert abs(v - vals[0]) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([3, 5, 7, 11, 13, 17, 19]),
    a=st.integers(min_value=1, max_value=10**6),
    b=st.integers(min_value=1, max_value=10**6),
)
def test_multiplicativity_of_values(q, a, b):
    chars = enumerate_characters(q)
    for ch in chars:
        va, vb, vab = ch.value(a), ch.value(b), ch.value(a * b)
        assert abs(vab - va * vb) < 1e-12



def _odd_average_by_definition(q, c, ell, mprime):
    """(1/2) sum over all psi mod q of (1 - psi(-1)) eps^2 conj(eps)
    psi(m' cbar) conj(psi(m' ell)): the projector keeps the odd
    characters, added in enumeration order by Python complex arithmetic."""
    cbar = pow(c, -1, q)
    total = 0.0 + 0.0j
    for psi in enumerate_characters(q):
        if psi.value(q - 1) == 1:
            continue
        eps = gauss_sum(psi).epsilon
        weight = eps * eps * eps.conjugate()
        total += weight * psi.value(mprime * cbar) * psi.value(mprime * ell).conjugate()
    return total


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_odd_average_arrays_equal_the_definition(q):
    units = np.arange(1, q)
    c, ell, mp_ = np.meshgrid(units, units, units[:3] + q, indexing="ij")
    got = odd_character_average(q, c, ell, mp_)
    assert got.shape == c.shape
    for idx in np.ndindex(c.shape):
        args = (int(c[idx]), int(ell[idx]), int(mp_[idx]))
        want = _odd_average_by_definition(q, *args)
        assert repr(complex(got[idx])) == repr(want), args
        assert odd_character_average(q, *args) == got[idx], args


@pytest.mark.parametrize("q", [5, 13])
def test_closed_form_arrays_equal_scalar_calls(q):
    units = np.arange(1, q)
    c, ell = np.meshgrid(units, units, indexing="ij")
    for sign in (1, -1):
        for arg in ("product", "inverse"):
            got = closed_form_candidate(q, c, ell, sign, arg)
            for idx in np.ndindex(c.shape):
                (one,) = closed_form_candidate(q, [c[idx]], [ell[idx]], sign, arg)
                assert repr(complex(got[idx])) == repr(complex(one))


def test_odd_average_array_rejects_a_noncoprime_entry():
    with pytest.raises(ValueError, match="ell = 10 must be coprime"):
        odd_character_average(5, 1, np.array([1, 10]), 1)
