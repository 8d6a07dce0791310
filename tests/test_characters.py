import math

import pytest
from hypothesis import given, settings, strategies as st

from weylbound.arith import euler_phi
from weylbound.characters import (
    closed_form_candidate,
    discover_average_convention,
    enumerate_characters,
    gauss_sum,
    odd_character_average,
)

TOL = 1e-9


def quadratic_character(p):
    """The Legendre-symbol character mod an odd prime p."""
    (chi,) = [ch for ch in enumerate_characters(p) if ch.order == 2]
    return chi


def test_enumerate_q1():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    assert chars[0].value(0) == 1.0


def test_enumerate_q3():
    chars = enumerate_characters(3)
    assert len(chars) == 2
    principal = [c for c in chars if c.is_principal]
    assert len(principal) == 1
    assert principal[0].parity == "even"
    other = [c for c in chars if not c.is_principal][0]
    assert other.order == 2
    assert abs(other.value(2) - (-1.0)) < 1e-15
    assert other.parity == "odd"


def test_enumerate_q8_parities():
    chars = enumerate_characters(8)
    assert len(chars) == 4
    odd = sum(1 for c in chars if c.is_odd)
    assert odd == 2


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 24, 36, 45])
def test_enumeration_invariants(q):
    chars = enumerate_characters(q)
    assert len(chars) == euler_phi(q)
    assert sum(1 for c in chars if c.is_principal) == 1
    if q > 2:
        # -1 is not 1 mod q, so characters split evenly by parity
        assert sum(1 for c in chars if c.is_odd) == euler_phi(q) // 2
    for ch in chars:
        # values vanish exactly off the units
        for n in range(q):
            if math.gcd(n, q) > 1:
                assert ch.value(n) == 0.0
        # complete multiplicativity is exact on the exponent tables
        den = ch.exponent_den
        for a in range(1, q):
            if ch.exponents[a] is None:
                continue
            for b in range(1, q):
                if ch.exponents[b] is None:
                    continue
                lhs = ch.exponents[a * b % q]
                assert (lhs - ch.exponents[a] - ch.exponents[b]) % den == 0
        # order divides phi(q) and matches the value table
        assert euler_phi(q) % ch.order == 0
        if q > 1:
            assert ch.order >= 1


@pytest.mark.parametrize("q", range(1, 51))
def test_orthogonality(q):
    chars = enumerate_characters(q)
    phi = euler_phi(q)
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        s = sum(ch.value(a) for ch in chars)
        expected = phi if a % q == 1 % q else 0.0
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
    for q in range(3, 101):
        for ch in enumerate_characters(q):
            if ch.primitive:
                assert gauss_sum(ch).abs_defect < 1e-9, (q, ch.exponents)


def test_conductor_induced_character():
    # the mod-3 quadratic character induced to mod 9 is not primitive
    chars9 = enumerate_characters(9)
    quad3 = quadratic_character(3)
    induced = [
        ch for ch in chars9
        if not ch.is_principal
        and all(
            abs(ch.value(n) - quad3.value(n)) < 1e-12
            for n in range(9) if math.gcd(n, 9) == 1
        )
    ]
    assert len(induced) == 1
    assert induced[0].conductor == 3
    assert not induced[0].primitive


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
    q=st.sampled_from([3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16]),
    a=st.integers(min_value=1, max_value=10**6),
    b=st.integers(min_value=1, max_value=10**6),
)
def test_multiplicativity_of_values(q, a, b):
    chars = enumerate_characters(q)
    for ch in chars:
        va, vb, vab = ch.value(a), ch.value(b), ch.value(a * b)
        assert abs(vab - va * vb) < 1e-12


def test_conj_character():
    for q in (5, 7, 12):
        for ch in enumerate_characters(q):
            cc = ch.conj()
            for n in range(q):
                assert abs(cc.value(n) - ch.value(n).conjugate()) < 1e-15
