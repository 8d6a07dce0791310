"""Kloosterman sums, twisted variants, and two complete character sums.

Every operation here is a brute-force evaluator meant as semantic
ground truth.  A complete sum over x of e(k(x)/c) with integer k(x) is
evaluated by counting: N_r, the number of x with k(x) = r mod c, comes
from `np.bincount` over the literal exponents, and sum_r N_r e(r/c) is
then formed exactly from the cached root table and rounded once
(`_root_count_sums`).  Each value is therefore the correctly rounded sum
of its literal terms, the value `math.fsum` over the expanded terms
returns.  Closed forms are always checked against these sums, never
substituted for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .arith import inv_mod, require_inv, unit_roots
from .characters import DirichletCharacter, gauss_sum

_LIMB_BITS = 20
# Limb k of a root-table column holds integer multiples of 2^(-20(k+1))
# of magnitude at most 2^20 such units.  A batch of count rows whose
# entries add up to at most 2^33 therefore keeps every product and
# partial sum of a limb column's GEMM a multiple of that unit below
# 2^53 units: exact in float64, in whatever order the BLAS adds.
COUNT_LIMIT = 1 << (53 - _LIMB_BITS)


@cache
def _root_limbs(c: int, imag: bool) -> tuple[np.ndarray, int]:
    """unit_roots(c)'s real column (and then, with imag, its imaginary
    column) split into limbs, side by side as a (c, parts * L) table,
    and the number L of limbs per part.

    Limb k holds a column's bits from 2^(-20k - 1) down to 2^(-20(k+1)),
    and the limbs add up to the column exactly: power-of-two scaling,
    truncation and subtracting the truncated part are all exact.  The
    split stops once no bits remain; six limbs reach the 2^-106 ulp of
    the smallest root-table entry, cos(pi/2).
    """
    roots = unit_roots(c)
    rest = np.stack([roots.real, roots.imag] if imag else [roots.real])
    unit = 1.0
    limbs = []
    while rest.any():
        unit *= 0.5**_LIMB_BITS
        limbs.append(np.trunc(rest / unit) * unit + 0.0)  # + 0.0: no -0.0
        rest -= limbs[-1]
    table = np.stack(limbs, axis=-1).transpose(1, 0, 2).reshape(c, -1)
    table.setflags(write=False)
    return table, len(limbs)


def _root_count_sums(counts: np.ndarray, c: int, imag: bool = False) -> np.ndarray:
    """Row i's sum over r of counts[i, r] e(r/c), exactly rounded.

    counts is an integer (rows, c) array.  One `counts @ limbs` GEMM
    gives each row's limb sums exactly (see COUNT_LIMIT), and one
    `math.fsum` over a row's few limb sums rounds their total once: bit
    for bit the `math.fsum` of the row's expanded terms.  Returns the
    real parts, or with imag the complex values.
    """
    counts = np.asarray(counts)
    if np.abs(counts).sum() > COUNT_LIMIT:
        raise ValueError(
            f"the counts add up to more than {COUNT_LIMIT} = 2^33 terms, "
            "past which the limb product is no longer exact"
        )
    table, n_re = _root_limbs(c, imag)
    rows = (counts.astype(float) @ table).tolist()
    if not imag:
        return np.array([math.fsum(row) for row in rows])
    return np.array(
        [complex(math.fsum(row[:n_re]), math.fsum(row[n_re:])) for row in rows],
        dtype=complex,
    )


def _count_rows(expo: np.ndarray, c: int) -> np.ndarray:
    """(rows, c) residue counts of the exponents in each row of a 2-d
    array of residues mod c."""
    rows = expo.shape[0]
    flat = (expo + c * np.arange(rows).reshape(-1, 1)).ravel()
    return np.bincount(flat, minlength=rows * c).reshape(rows, c)


@cache
def units_and_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Units mod c and their inverses, as parallel integer arrays.

    x^(phi(c) - 1) inverts each unit x (Euler), by square and multiply
    over the whole array; products stay below c^2 < 2^63.
    """
    r = np.arange(c, dtype=np.int64)
    xs = r[np.gcd(r, c) == 1]
    invs = np.ones_like(xs)
    base = xs.copy()
    e = len(xs) - 1
    while e:
        if e & 1:
            invs = invs * base % c
        base = base * base % c
        e >>= 1
    return xs, invs % c


def _kloosterman_rows(a, b, c: int, imag: bool) -> np.ndarray:
    """S(a, b; c) for integer arrays a and b (broadcast together), one
    count row per pair and one `_root_count_sums` call for them all: the
    real parts, or with imag the complex values, each exactly rounded."""
    if c < 1:
        raise ValueError("modulus must be positive")
    a, b = np.broadcast_arrays(np.asarray(a) % c, np.asarray(b) % c)
    xs, invs = units_and_inverses(c)
    expo = (a.reshape(-1, 1) * xs + b.reshape(-1, 1) * invs) % c
    return _root_count_sums(_count_rows(expo, c), c, imag).reshape(a.shape)


def kloosterman(m: int, n: int, c: int) -> complex:
    """S(m, n; c) = sum over units x mod c of e((m x + n xbar)/c)."""
    if c < 1:
        raise ValueError("modulus must be positive")
    xs, invs = units_and_inverses(c)
    counts = np.bincount((m % c * xs + n % c * invs) % c, minlength=c)
    return complex(_root_count_sums(counts.reshape(1, c), c, imag=True)[0])


def kloosterman_reals(a, b, c: int) -> np.ndarray:
    """Re S(a, b; c) for integer arrays a and b (broadcast together),
    one count row per pair: each value is `kloosterman(a, b, c).real`."""
    return _kloosterman_rows(a, b, c, imag=False)


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
    # both plain sums mod c as two count rows of one call
    a = [n * q ** (1 + nu) % c, n % c]
    b = [mprime * qbar_c % c, mprime * q**nu % c]
    s_middle, s_displayed = _kloosterman_rows(a, b, c, imag=True).tolist()
    middle = twisted_kloosterman(chi, 0, mprime * cbar_q, q) * s_middle

    eps = gauss_sum(chi).epsilon
    displayed = math.sqrt(q) * eps.conjugate() * chi.value(mprime * cbar_q) * s_displayed
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
    gives array fields: one (m, alpha, beta) exponent grid, counted into
    one residue row per m.
    """
    if c < 1:
        raise ValueError("modulus must be positive")
    ms = np.asarray(np.asarray(m) % c, dtype=np.int64)  # m may exceed int64
    betas, betabars = units_and_inverses(c)
    alphas = np.arange(c, dtype=np.int64)
    # exponent grid alpha*(beta + n) + m*betabar with both parts reduced
    # mod c: each entry lies in [0, 2c), and its count folds onto r mod c
    rows = ms.size
    left = np.outer(alphas, (betas + n) % c) % c
    right = ms.reshape(-1, 1) * betabars % c + 2 * c * np.arange(rows).reshape(-1, 1)
    flat = (left + right[:, None, :]).ravel()
    counts = np.bincount(flat, minlength=2 * c * rows).reshape(rows, 2, c).sum(axis=1)
    value = _root_count_sums(counts, c, imag=True).reshape(ms.shape)
    nbar = inv_mod(n, c)
    if nbar is None:
        return _grid_result(ms, value, None, None)
    closed = c * unit_roots(c)[(-ms % c) * nbar % c]
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


@lru_cache(maxsize=256)
def _root_sums(cc: int) -> tuple[np.ndarray, np.ndarray]:
    """The sums over beta mod cc of e(beta t / cc), by t: the values and
    which of them are filled so far.  `charsum_congruence` fills the t's
    it reads, each once."""
    return np.zeros(cc, dtype=complex), np.zeros(cc, dtype=bool)


def charsum_congruence(m, n1: int, n2: int, c1: int, c2: int) -> CongruenceSumResult:
    """sum over beta mod c1 c2 of
    e(-beta n1bar/c1 + beta n2bar/c2 + m beta/(c1 c2)),
    compared against c1 c2 * [n1bar c2 - n2bar c1 = m mod c1 c2].

    The exponent is beta t / (c1 c2) with t = m - n1bar c2 + n2bar c1, so
    the literal sum depends on t mod c1 c2 alone; each (c1 c2, t) sum is
    computed once, the missing t's of a call in count batches of at most
    2^20 entries.  An integer array m gives array fields.
    """
    n1b = require_inv(n1, c1) if c1 > 1 else 0
    n2b = require_inv(n2, c2) if c2 > 1 else 0
    cc = c1 * c2
    # m may exceed int64
    t = np.asarray((np.asarray(m) % cc - n1b * c2 + n2b * c1) % cc, dtype=np.int64)
    sums, filled = _root_sums(cc)
    missing = ~filled[t]
    if missing.any():
        new = np.unique(t[missing])
        beta = np.arange(cc, dtype=np.int64)
        step = max(1, (1 << 20) // cc)
        for i in range(0, new.size, step):
            rows = new[i : i + step]
            sums[rows] = _root_count_sums(_count_rows(np.outer(rows, beta) % cc, cc), cc, True)
        filled[new] = True
    value = sums[t]
    fired = t == 0
    if np.ndim(t) == 0:  # scalar m: plain Python numbers
        value, fired = complex(value), bool(fired)
        predicted = complex(cc if fired else 0.0)
        return CongruenceSumResult(value, fired, predicted, abs(value - predicted))
    predicted = np.where(fired, float(cc), 0.0).astype(complex)
    return CongruenceSumResult(value, fired, predicted, _modulus(value - predicted))
