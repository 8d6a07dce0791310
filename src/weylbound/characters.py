"""Dirichlet characters mod odd primes, Gauss sums, and the odd-character
average.

The conductor-lowering twist averages over characters mod a prime q,
so characters are built only for odd prime moduli, each from one
discrete-log table to a primitive root g: chi_m(g^j) = e(m j / (q - 1)).
A character stores one exact exponent per residue, so that
multiplicativity and parity checks are integer arithmetic; complex
values are materialized only at evaluation time.  The odd-character
average and its closed forms take integer arrays of arguments: each
odd character's values mod q form one table, read at every case at
once, with each complex product rounded as Python's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .arith import complex_abs, inv_mod, is_prime, primitive_root, unit_roots

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


def odd_character_average(q: int, c, ell, mprime) -> np.ndarray:
    """Brute-force average over odd characters mod the odd prime q.

    Computes (1/2) * sum over all psi mod q of
      (1 - psi(-1)) * eps_psi^2 * conj(eps_psi) * psi(mprime * cbar)
        * conj(psi(mprime * ell)),
    with eps_psi = g_psi / sqrt(q).  The (1 - psi(-1))/2 projector keeps
    exactly the odd characters; the psi(mprime) factors cancel, which is
    asserted separately as the m'-invariance property.  Integer arrays
    c, ell, mprime (broadcast together) give an array of their shape:
    the odd characters' value tables are read at every case at once and
    added in enumeration order, each product rounded as Python's complex
    product rounds it.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for v in (c, ell, mprime)))
    for name, v in zip(("c", "ell", "mprime"), args):
        bad = np.gcd(v, q) != 1
        if np.any(bad):
            raise ValueError(f"{name} = {v[bad].flat[0]} must be coprime to q = {q}")
    c, ell, mprime = (v % q for v in args)
    re, im, weights, inverse = _odd_tables(q)
    at = mprime * inverse[c] % q  # psi is read at m' cbar ...
    conj_at = mprime * ell % q  # ... and conjugated at m' ell
    tot_re = np.zeros(c.shape)
    tot_im = np.zeros(c.shape)
    for j, w in enumerate(weights):
        ar, ai = re[j][at], im[j][at]
        br, bi = re[j][conj_at], -im[j][conj_at]
        # (w * psi(m' cbar)) * conj(psi(m' ell)), as Python forms each part
        pr, pi = w.real * ar - w.imag * ai, w.real * ai + w.imag * ar
        tot_re = tot_re + (pr * br - pi * bi)
        tot_im = tot_im + (pr * bi + pi * br)
    out = np.empty(c.shape, dtype=complex)
    out.real, out.imag = tot_re, tot_im
    return out


@cache
def _odd_tables(q: int) -> tuple:
    """The odd characters mod q in enumeration order, as value tables
    (real and imaginary parts, one row per character, indexed by the
    residue, 0 at x = 0), their weights eps_psi^2 conj(eps_psi) as
    Python complex numbers, and the table of inverses mod q."""
    rows, weights = [], []
    for psi in enumerate_characters(q):
        if psi.is_odd:
            rows.append([psi.value(x) for x in range(q)])
            eps = gauss_sum(psi).epsilon
            weights.append(eps * eps * eps.conjugate())
    values = np.array(rows, dtype=complex).reshape(len(rows), q)
    inverse = np.array([0] + [inv_mod(x, q) for x in range(1, q)], dtype=np.int64)
    return values.real.copy(), values.imag.copy(), weights, inverse


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


def closed_form_candidate(q: int, c, ell, sign: int, arg_choice: str) -> np.ndarray:
    """The candidate closed form at x = c ell mod q (or its inverse), for
    integer arrays c and ell (broadcast together), each value formed
    once per distinct x by cmath."""
    x = np.asarray(c) * np.asarray(ell) % q
    return np.asarray(np.array(_closed_forms(q, sign, arg_choice), dtype=complex)[x])


@lru_cache(maxsize=64)
def _closed_forms(q: int, sign: int, arg_choice: str) -> tuple:
    """The candidate at each residue x mod q (at x = 0, where the inverse
    is undefined, 0)."""
    out = [0j]
    for x in range(1, q):
        if arg_choice == "inverse":
            x = inv_mod(x, q)
        val = cmath.exp(2j * math.pi * x / q) - cmath.exp(-2j * math.pi * x / q)
        out.append(sign * (q - 1) / (2.0 * math.sqrt(q)) * val)
    return tuple(out)


def discover_average_convention(q: int) -> AverageConvention:
    """Try all four (sign, argument) conventions against brute force.

    A convention must hold for every admissible (c, ell, mprime) with
    mprime in {1, 2} and a single fixed choice; the first that does is
    returned.  The brute-force averages are one array call, shared by
    the four candidates.  Raises if none survives, so a failure is loud
    rather than a silent pick.
    """
    units = np.arange(1, q)
    c, ell, mprime = (v.ravel() for v in np.meshgrid(units, units, units[:2], indexing="ij"))
    lhs = odd_character_average(q, c, ell, mprime)
    for sign in (+1, -1):
        for arg_choice in ("product", "inverse"):
            err = complex_abs(lhs - closed_form_candidate(q, c, ell, sign, arg_choice))
            if np.all(err <= _CONVENTION_TOL):
                return AverageConvention(q, sign, arg_choice, float(np.max(err)), c.size)
    raise ArithmeticError(
        f"no (sign, argument) convention matches the odd average mod {q}"
    )
