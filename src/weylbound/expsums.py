"""Kloosterman sums, twisted variants, and two complete character sums.

Every operation here is a brute-force evaluator meant as semantic
ground truth: terms are exact roots of unity looked up from a cached
table, accumulated with compensated summation.  Closed forms are always
checked against these sums, never substituted for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .arith import inv_mod, require_inv, unit_roots
from .characters import DirichletCharacter, gauss_sum


@cache
def units_and_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Units mod c and their inverses, as parallel integer arrays."""
    xs = [x for x in range(c) if math.gcd(x, c) == 1]
    invs = [pow(x, -1, c) for x in xs]
    return np.array(xs, dtype=np.int64), np.array(invs, dtype=np.int64)


def kloosterman(m: int, n: int, c: int) -> complex:
    """S(m, n; c) = sum over units x mod c of e((m x + n xbar)/c)."""
    if c < 1:
        raise ValueError("modulus must be positive")
    if c == 1:
        return 1.0 + 0.0j
    xs, invs = units_and_inverses(c)
    idx = (m % c * xs + n % c * invs) % c
    terms = unit_roots(c)[idx]
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def twisted_kloosterman(
    chi: DirichletCharacter, m: int, n: int, c: int
) -> complex:
    """S_chi(m, n; c) with chi of modulus dividing c (so c >= 3)."""
    if c % chi.modulus != 0:
        raise ValueError(
            f"character modulus {chi.modulus} does not divide c = {c}"
        )
    xs, invs = units_and_inverses(c)
    a = unit_roots(c)[(m % c * xs + n % c * invs) % c]
    b = unit_roots(chi.exponent_den)[_exponent_table(chi.exponents)[xs % chi.modulus]]
    # the product's parts as Python's complex product forms them
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    return complex(math.fsum(re), math.fsum(im))


@cache
def _exponent_table(exponents: tuple) -> np.ndarray:
    """A character's exponents as an integer array.  The entry at 0 (chi
    vanishes there) is set to 0; a unit mod c is never 0 mod q when q
    divides c, so that entry is never read."""
    return np.array([0 if a is None else a for a in exponents], dtype=np.int64)


def kloosterman_crt(m: int, n: int, c1: int, c2: int) -> complex:
    """S(m, n; c1 c2) assembled from the coprime factorization.

    S(m, n; c1 c2) = S(m c2bar, n c2bar; c1) * S(m c1bar, n c1bar; c2)
    where c2bar inverts c2 mod c1 and vice versa.  Used only as a fast
    path cross-checked against the brute-force definition.
    """
    if math.gcd(c1, c2) != 1:
        raise ValueError("factors must be coprime")
    c2b = require_inv(c2, c1) if c1 > 1 else 0
    c1b = require_inv(c1, c2) if c2 > 1 else 0
    return kloosterman(m * c2b, n * c2b, c1) * kloosterman(m * c1b, n * c1b, c2)


@dataclass
class FactorizationReport:
    """Three independent evaluations of the twisted-sum factorization.

    lhs          S_psi(n q^(2+nu), m'; c q), the full twisted sum
    middle       S_psi(0, m' cbar; q) * S(n q^(1+nu), m' qbar; c)
    displayed    sqrt(q) conj(eps_psi) psi(m' cbar) S(n, m' q^nu; c)
    corrected    psi(-1) * displayed

    The lhs/middle equality is an exact CRT splitting.  The displayed
    final form drops a psi(-1); for odd psi that is a sign flip, which
    the corrected variant restores.
    """

    q: int
    c: int
    n: int
    mprime: int
    nu: int
    lhs: complex
    middle: complex
    displayed: complex
    corrected: complex
    diff_lhs_middle: float = field(init=False)
    diff_lhs_displayed: float = field(init=False)
    diff_lhs_corrected: float = field(init=False)

    def __post_init__(self):
        self.diff_lhs_middle = abs(self.lhs - self.middle)
        self.diff_lhs_displayed = abs(self.lhs - self.displayed)
        self.diff_lhs_corrected = abs(self.lhs - self.corrected)


def verify_twisted_factorization(
    chi: DirichletCharacter, n: int, mprime: int, nu: int, c: int
) -> FactorizationReport:
    """Evaluate both sides of the twisted Kloosterman factorization.

    Preconditions: chi odd, gcd(c, q) = 1, gcd(m', q) = 1, nu >= 0.
    Characters are built only mod odd primes q, where an odd character
    is non-principal and so primitive.
    """
    q = chi.modulus
    if not chi.is_odd:
        raise ValueError("twist must be odd")
    if math.gcd(c, q) != 1 or math.gcd(mprime, q) != 1:
        raise ValueError("c and m' must be coprime to q")
    if nu < 0:
        raise ValueError("nu must be nonnegative")

    lhs = twisted_kloosterman(chi, n * q ** (2 + nu), mprime, c * q)

    cbar_q = require_inv(c, q)
    qbar_c = require_inv(q, c) if c > 1 else 0
    middle = twisted_kloosterman(chi, 0, mprime * cbar_q, q) * kloosterman(
        n * q ** (1 + nu), mprime * qbar_c, c
    )

    eps = gauss_sum(chi).epsilon
    displayed = (
        math.sqrt(q)
        * eps.conjugate()
        * chi.value(mprime * cbar_q)
        * kloosterman(n, mprime * q**nu, c)
    )
    corrected = chi.value(q - 1) * displayed

    return FactorizationReport(
        q=q, c=c, n=n, mprime=mprime, nu=nu,
        lhs=lhs, middle=middle, displayed=displayed, corrected=corrected,
    )


@dataclass(frozen=True)
class GridSumResult:
    value: complex
    closed_form: complex | None
    abs_diff: float | None


def charsum_grid(m, n: int, c: int) -> GridSumResult:
    """C(m, n, c) = sum over alpha mod c, beta in units mod c of
    e((alpha beta + m betabar + n alpha)/c), by literal double sum.

    alpha runs over all residues, beta over units (betabar must exist).
    Compared against the closed form c e(-m nbar / c), which requires
    gcd(n, c) = 1; when that fails the comparison is marked inapplicable
    and only the brute-force value is returned.  An integer array m
    gives array fields: one (m, alpha, beta) exponent grid, summed over
    alpha, then one compensated sum per m.
    """
    if c < 1:
        raise ValueError("modulus must be positive")
    ms = np.asarray(np.asarray(m) % c, dtype=np.int64)  # m may exceed int64
    if c == 1:
        one = np.ones(ms.shape, dtype=complex)
        return _grid_result(ms, one, one, np.zeros(ms.shape))
    betas, betabars = units_and_inverses(c)
    roots = unit_roots(c)
    alphas = np.arange(c, dtype=np.int64)
    # exponent grid: alpha*(beta + n) + m*betabar, reduced mod c
    expo = (np.outer(alphas, (betas + n) % c) + ms.reshape(-1, 1, 1) * betabars) % c
    terms = roots[expo]
    re_cols, im_cols = terms.real.sum(axis=1), terms.imag.sum(axis=1)
    value = np.array(
        [complex(math.fsum(re), math.fsum(im)) for re, im in zip(re_cols, im_cols)]
    ).reshape(ms.shape)
    nbar = inv_mod(n, c)
    if nbar is None:
        return _grid_result(ms, value, None, None)
    closed = c * roots[(-ms % c) * nbar % c]
    return _grid_result(ms, value, closed, _modulus(value - closed))


def _modulus(z: np.ndarray) -> np.ndarray:
    # hypot rounds as Python's abs(complex) does; np.abs can differ by an ulp
    return np.hypot(z.real, z.imag)


def _grid_result(ms, value, closed, diff) -> GridSumResult:
    if np.ndim(ms) == 0:  # scalar m: plain Python numbers
        return GridSumResult(
            complex(value),
            None if closed is None else complex(closed),
            None if diff is None else float(diff),
        )
    return GridSumResult(value, closed, diff)


@dataclass(frozen=True)
class CongruenceSumResult:
    value: complex
    indicator: bool
    predicted: complex
    abs_diff: float


@cache
def _root_sum(cc: int, t: int) -> complex:
    """The literal sum over beta mod cc of e(beta t / cc), compensated."""
    terms = unit_roots(cc)[np.arange(cc, dtype=np.int64) * t % cc]
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def charsum_congruence(m, n1: int, n2: int, c1: int, c2: int) -> CongruenceSumResult:
    """sum over beta mod c1 c2 of
    e(-beta n1bar/c1 + beta n2bar/c2 + m beta/(c1 c2)),
    compared against c1 c2 * [n1bar c2 - n2bar c1 = m mod c1 c2].

    The exponent is beta t / (c1 c2) with t = m - n1bar c2 + n2bar c1, so
    the literal sum depends on t mod c1 c2 alone; each (c1 c2, t) sum is
    computed once.  An integer array m gives array fields.
    """
    n1b = require_inv(n1, c1) if c1 > 1 else 0
    n2b = require_inv(n2, c2) if c2 > 1 else 0
    cc = c1 * c2
    t = (np.asarray(m) % cc - n1b * c2 + n2b * c1) % cc
    if np.ndim(t) == 0:  # scalar m: plain Python numbers
        value = _root_sum(cc, int(t))
        fired = bool(t == 0)
        predicted = complex(cc if fired else 0.0)
        return CongruenceSumResult(value, fired, predicted, abs(value - predicted))
    value = np.array([_root_sum(cc, r) for r in t.ravel().tolist()]).reshape(t.shape)
    fired = t == 0
    predicted = np.where(fired, float(cc), 0.0).astype(complex)
    return CongruenceSumResult(value, fired, predicted, _modulus(value - predicted))
