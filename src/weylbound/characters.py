"""Dirichlet characters mod odd primes, Gauss sums, and the odd-character
average.

The conductor-lowering twist averages over characters mod a prime q,
so characters are built only for odd prime moduli, each from one
discrete-log table to a primitive root g: chi_m(g^j) = e(m j / (q - 1)).
A character stores one exact exponent per residue, so that
multiplicativity and parity checks are integer arithmetic; complex
values are materialized only at evaluation time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache

from .arith import inv_mod, is_prime, primitive_root, unit_roots

# a closed-form convention must match the brute-force average this well
_CONVENTION_TOL = 1e-9


@cache
def _dlog(q: int) -> tuple:
    """Discrete logs to the smallest primitive root g mod the prime q:
    entry x is j with g^j = x mod q, and None at x = 0."""
    g = primitive_root(q)
    table: list = [None] * q
    acc = 1
    for j in range(q - 1):
        table[acc] = j
        acc = acc * g % q
    return tuple(table)


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod an odd prime q as an exact exponent table.

    exponents[x] is None at x = 0 and otherwise an integer a with
    chi(x) = e(a / exponent_den), where exponent_den = q - 1 is the
    order of the unit group, shared by all characters of the modulus.
    """

    modulus: int
    exponents: tuple
    exponent_den: int

    def value(self, n: int) -> complex:
        a = self.exponents[n % self.modulus]
        if a is None:
            return 0.0 + 0.0j
        return complex(unit_roots(self.exponent_den)[a % self.exponent_den])

    @property
    def is_principal(self) -> bool:
        return all(a in (None, 0) for a in self.exponents)

    @property
    def parity(self) -> str:
        """'even' when chi(-1) = 1, 'odd' when chi(-1) = -1."""
        a = self.exponents[self.modulus - 1]
        return "even" if a % self.exponent_den == 0 else "odd"

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"

    @property
    def primitive(self) -> bool:
        # mod a prime, every character but the principal one is primitive
        return not self.is_principal


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All q - 1 Dirichlet characters mod the odd prime q, principal first.

    chi_m(g^j) = e(m j / (q - 1)) for m = 0, ..., q - 2, with g the
    smallest primitive root; results are cached (characters are
    immutable) and returned as a fresh list.
    """
    if q < 3 or not is_prime(q):
        raise ValueError(f"characters are built for odd prime moduli only, got {q}")
    return list(_characters(q))


@cache
def _characters(q: int) -> tuple[DirichletCharacter, ...]:
    den = q - 1
    dlog = _dlog(q)
    return tuple(
        DirichletCharacter(
            q, tuple(None if j is None else m * j % den for j in dlog), den
        )
        for m in range(den)
    )


@dataclass(frozen=True)
class GaussSumResult:
    """g = sum_a chi(a) e(a/q) together with epsilon = g / sqrt(q).

    abs_defect = | |g| - sqrt(q) |, meaningful for non-principal
    characters (it must vanish up to rounding there).
    """

    g: complex
    epsilon: complex
    abs_defect: float


@lru_cache(maxsize=8192)
def gauss_sum(chi: DirichletCharacter) -> GaussSumResult:
    """Gauss sum by exact root-of-unity accumulation.

    chi(a) e(a/q) = e((num*q + a*den) / (den*q)) keeps every term an
    exact root of unity; the final sum is compensated (and cached, the
    character being immutable).
    """
    q = chi.modulus
    den = chi.exponent_den
    big = den * q
    roots = unit_roots(big)
    re, im = [], []
    for a in range(1, q):
        w = roots[(chi.exponents[a] * q + a * den) % big]
        re.append(w.real)
        im.append(w.imag)
    g = complex(math.fsum(re), math.fsum(im))
    eps = g / math.sqrt(q)
    return GaussSumResult(g=g, epsilon=eps, abs_defect=abs(abs(g) - math.sqrt(q)))


def odd_character_average(q: int, c: int, ell: int, mprime: int) -> complex:
    """Brute-force average over odd characters mod the odd prime q.

    Computes (1/2) * sum over all psi mod q of
      (1 - psi(-1)) * eps_psi^2 * conj(eps_psi) * psi(mprime * cbar)
        * conj(psi(mprime * ell)),
    with eps_psi = g_psi / sqrt(q).  The (1 - psi(-1))/2 projector keeps
    exactly the odd characters; the psi(mprime) factors cancel, which is
    asserted separately as the m'-invariance property.
    """
    odd = _odd_weights(q)
    for name, v in (("c", c), ("ell", ell), ("mprime", mprime)):
        if math.gcd(v, q) != 1:
            raise ValueError(f"{name} = {v} must be coprime to q = {q}")
    cbar = inv_mod(c, q)
    total = 0.0 + 0.0j
    for psi, weight in odd:
        total += weight * psi.value(mprime * cbar) * psi.value(mprime * ell).conjugate()
    return total


@cache
def _odd_weights(q: int) -> tuple:
    """(psi, eps_psi^2 conj(eps_psi)) for each odd character psi mod q, in
    enumeration order: `odd_character_average` runs over them up to
    8 (q - 1)^2 times per q while a convention is sought."""
    out = []
    for psi in enumerate_characters(q):
        if psi.is_odd:
            eps = gauss_sum(psi).epsilon
            out.append((psi, eps * eps * eps.conjugate()))
    return tuple(out)


@dataclass(frozen=True)
class AverageConvention:
    """Discovered closed form of the odd-character average.

    value = sign * (q - 1)/(2 sqrt(q)) * (e(x/q) - e(-x/q)) where x is
    c*ell mod q (arg_choice='product') or its inverse mod q
    (arg_choice='inverse'), fixed across all admissible inputs.
    """

    q: int
    sign: int
    arg_choice: str
    max_abs_error: float
    cases: int


def closed_form_candidate(q: int, c: int, ell: int, sign: int, arg_choice: str) -> complex:
    x = c * ell % q
    if arg_choice == "inverse":
        x = inv_mod(x, q)
    val = cmath.exp(2j * math.pi * x / q) - cmath.exp(-2j * math.pi * x / q)
    return sign * (q - 1) / (2.0 * math.sqrt(q)) * val


def discover_average_convention(q: int) -> AverageConvention:
    """Try all four (sign, argument) conventions against brute force.

    A convention must hold for every admissible (c, ell, mprime) with a
    single fixed choice; the first that does is returned.  Raises if
    none survives, so a failure is loud rather than a silent pick.
    """
    units = range(1, q)
    cases = [(c, l, m) for c in units for l in units for m in units[:2]]
    best = None
    for sign in (+1, -1):
        for arg_choice in ("product", "inverse"):
            worst = 0.0
            ok = True
            for c, l, m in cases:
                lhs = odd_character_average(q, c, l, m)
                rhs = closed_form_candidate(q, c, l, sign, arg_choice)
                err = abs(lhs - rhs)
                worst = max(worst, err)
                if err > _CONVENTION_TOL:
                    ok = False
                    break
            if ok:
                conv = AverageConvention(q, sign, arg_choice, worst, len(cases))
                if best is None:
                    best = conv
    if best is None:
        raise ArithmeticError(
            f"no (sign, argument) convention matches the odd average mod {q}"
        )
    return best
