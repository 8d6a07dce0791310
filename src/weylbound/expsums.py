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

The sums take integer arrays for their parameters (broadcast together)
and return arrays, one count row or term row per parameter set, so a
caller's whole family of cases at one modulus is one call; scalar
parameters give plain Python numbers from the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .arith import complex_abs, require_inv, unit_roots
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

    counts is an integer-valued (rows, c) array.  One `counts @ limbs` GEMM
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
    limb_sums = counts.astype(float) @ table
    if not imag:
        return np.array(list(map(math.fsum, limb_sums.tolist())))
    return _complex(limb_sums[:, :n_re], limb_sums[:, n_re:])


def _complex(re_rows: np.ndarray, im_rows: np.ndarray) -> np.ndarray:
    """The complex values whose parts are `math.fsum` of each row."""
    out = np.empty(len(re_rows), dtype=complex)
    out.real = list(map(math.fsum, re_rows.tolist()))
    out.imag = list(map(math.fsum, im_rows.tolist()))
    return out


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


def _residues(v, c: int) -> np.ndarray:
    """Integers v (any size) reduced mod c, as an int64 array."""
    return np.asarray(np.asarray(v) % c, dtype=np.int64)


def _product(a, b) -> np.ndarray:
    """a b for complex arrays (broadcast together), each part formed as
    Python's complex product forms it; numpy's complex multiply can
    differ in the last bit."""
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _plain(value):
    """A 0-d result as a plain Python number."""
    return value.item() if isinstance(value, np.ndarray) and value.ndim == 0 else value


def _characters_of(chi) -> tuple[list[DirichletCharacter], bool]:
    """A character or a sequence of characters of one modulus, as a
    list, and whether it was a sequence."""
    if isinstance(chi, DirichletCharacter):
        return [chi], False
    chis = list(chi)
    if not chis or len({ch.modulus for ch in chis}) != 1:
        raise ValueError("need one or more characters of one modulus")
    return chis, True


def twisted_kloosterman(chi, m, n, c: int):
    """S_chi(m, n; c) with chi of modulus dividing c (so c >= 3).

    Integer arrays m and n (broadcast together) give an array: one row
    of terms e((m x + n xbar)/c) chi(x) per pair, each term the Python
    complex product of its two roots, and one `math.fsum` per part of a
    row.  A sequence of characters of one modulus adds a leading axis,
    one entry per character.
    """
    chis, many = _characters_of(chi)
    q = chis[0].modulus
    if c % q != 0:
        raise ValueError(f"character modulus {q} does not divide c = {c}")
    m, n = np.broadcast_arrays(_residues(m, c), _residues(n, c))
    xs, invs = units_and_inverses(c)
    a = unit_roots(c)[(m.reshape(-1, 1) * xs + n.reshape(-1, 1) * invs) % c]
    b = np.stack([
        unit_roots(ch.exponent_den)[_exponent_table(ch.exponents)[xs % q]] for ch in chis
    ])
    terms = _product(a, b[:, None, :]).reshape(-1, xs.size)
    out = _complex(terms.real, terms.imag).reshape(len(chis), *m.shape)
    return out if many else _plain(out[0])


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
    the corrected variant restores.  Array parameters give array fields.
    """

    q: int
    c: int
    n: int | np.ndarray
    mprime: int | np.ndarray
    nu: int | np.ndarray
    lhs: complex | np.ndarray
    middle: complex | np.ndarray
    displayed: complex | np.ndarray
    corrected: complex | np.ndarray
    diff_lhs_middle: float | np.ndarray = field(init=False)
    diff_lhs_displayed: float | np.ndarray = field(init=False)
    diff_lhs_corrected: float | np.ndarray = field(init=False)

    def __post_init__(self):
        self.diff_lhs_middle = complex_abs(self.lhs - self.middle)
        self.diff_lhs_displayed = complex_abs(self.lhs - self.displayed)
        self.diff_lhs_corrected = complex_abs(self.lhs - self.corrected)


def verify_twisted_factorization(chi, n, mprime, nu, c: int) -> FactorizationReport:
    """Evaluate both sides of the twisted Kloosterman factorization.

    Preconditions: chi odd, gcd(c, q) = 1, gcd(m', q) = 1, nu >= 0.
    Characters are built only mod odd primes q, where an odd character
    is non-principal and so primitive.  Integer arrays n, m', nu
    (broadcast together) give one row per triple, and a sequence of odd
    characters mod q a leading axis of them: every twisted sum is a row
    of one `twisted_kloosterman` call, the plain sums mod c (the same
    for every character) are rows of one `_kloosterman_rows` call, and
    the twisted factor and the front of the displayed form are formed
    once per (psi, m' cbar); the products keep Python's complex-product
    rounding.
    """
    chis, many = _characters_of(chi)
    q = chis[0].modulus
    if not all(ch.is_odd for ch in chis):
        raise ValueError("twist must be odd")
    n, mprime, nu = np.broadcast_arrays(*(np.asarray(v) for v in (n, mprime, nu)))
    if math.gcd(c, q) != 1 or np.any(np.gcd(mprime, q) != 1):
        raise ValueError("c and m' must be coprime to q")
    if np.any(nu < 0):
        raise ValueError("nu must be nonnegative")
    rows = list(zip(n.ravel().tolist(), mprime.ravel().tolist(), nu.ravel().tolist()))

    cq = c * q
    lhs = twisted_kloosterman(
        chis, [n_ * pow(q, 2 + v, cq) for n_, _, v in rows], [m for _, m, _ in rows], cq
    )

    cbar_q = require_inv(c, q)
    qbar_c = require_inv(q, c) if c > 1 else 0
    # both plain sums mod c of every row as count rows of one call
    a = [n_ * pow(q, 1 + v, c) % c for n_, _, v in rows] + [n_ % c for n_, _, _ in rows]
    b = [m * qbar_c % c for _, m, _ in rows] + [m * pow(q, v, c) % c for _, m, v in rows]
    s_middle, s_displayed = np.split(_kloosterman_rows(a, b, c, imag=True), 2)

    units = [m * cbar_q % q for _, m, _ in rows]
    distinct = sorted(set(units))
    at = [distinct.index(u) for u in units]
    twisted = twisted_kloosterman(chis, 0, distinct, q)[:, at]
    front = np.array([
        [math.sqrt(q) * gauss_sum(ch).epsilon.conjugate() * ch.value(u) for u in distinct]
        for ch in chis
    ])[:, at]
    middle = _product(twisted, s_middle)
    displayed = _product(front, s_displayed)
    corrected = _product(np.array([[ch.value(q - 1)] for ch in chis]), displayed)

    def shaped(v):
        v = v.reshape(len(chis), *n.shape)
        return v if many else _plain(v[0])

    return FactorizationReport(
        q=q, c=c, n=_plain(n), mprime=_plain(mprime), nu=_plain(nu),
        lhs=shaped(lhs), middle=shaped(middle),
        displayed=shaped(displayed), corrected=shaped(corrected),
    )


@dataclass(frozen=True)
class GridSumResult:
    value: complex
    closed_form: complex | None
    abs_diff: float | None


def _inverses(v, c: int) -> np.ndarray:
    """Inverses mod c of the integers v (0 when c = 1); ValueError names
    the first that has none."""
    v = _residues(v, c)
    xs, invs = units_and_inverses(c)
    table = np.full(c, -1, dtype=np.int64)
    table[xs] = invs
    out = table[v]
    if np.any(out < 0):
        raise ValueError(f"{v[out < 0].flat[0]} is not invertible modulo {c}")
    return out


def charsum_grid(m, n, c: int) -> GridSumResult:
    """C(m, n, c) = sum over alpha mod c, beta in units mod c of
    e((alpha beta + m betabar + n alpha)/c), by literal double sum.

    alpha runs over all residues, beta over units (betabar must exist).
    Compared against the closed form c e(-m nbar / c), which requires
    gcd(n, c) = 1; when that fails (for any n) the comparison is marked
    inapplicable and only the brute-force value is returned.  The
    exponent alpha (beta + n) + m betabar is counted in two stages: its
    counts over alpha, for each residue pair (k, j) = (beta + n,
    m betabar), are those of the c^2 literal products alpha k (one
    `np.bincount`) turned by j, and the residue row of (m, n) adds the
    rows of its betas.  Integer arrays
    m and n (broadcast together) give array fields, one residue row per
    pair, in batches of at most 2^16 row entries.
    """
    if c < 1:
        raise ValueError("modulus must be positive")
    ms, ns = np.broadcast_arrays(_residues(m, c), _residues(n, c))  # m may exceed int64
    betas, betabars = units_and_inverses(c)
    # row k c + j: the counts over alpha of alpha k + j mod c, the counts
    # of the products alpha k turned by j (small integers, exact as floats)
    r = np.arange(c, dtype=np.int64)
    products = np.bincount((r[:, None] * r % c + c * r[:, None]).ravel(), minlength=c * c)
    turned = products.reshape(c, c)[:, (r - r[:, None]) % c]
    alpha_counts = turned.reshape(c * c, c).astype(float)
    mf, nf = ms.ravel(), ns.ravel()
    value = np.empty(mf.size, dtype=complex)
    step = max(1, (1 << 16) // c)
    for s in range(0, mf.size, step):
        mb, nb = mf[s : s + step], nf[s : s + step]
        pairs = (betas + nb[:, None]) % c * c + mb[:, None] * betabars % c
        counts = alpha_counts[pairs[:, 0]]
        for col in pairs.T[1:]:
            counts += alpha_counts[col]
        value[s : s + step] = _root_count_sums(counts, c, imag=True)
    value = value.reshape(ms.shape)
    if np.any(np.gcd(ns, c) != 1):
        return _grid_result(value, None, None)
    closed = c * unit_roots(c)[(-ms % c) * _inverses(ns, c) % c]
    return _grid_result(value, closed, complex_abs(value - closed))


def _grid_result(value, closed, diff) -> GridSumResult:
    if np.ndim(value) == 0:  # scalar m and n: plain Python numbers
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


def charsum_congruence(m, n1, n2, c1: int, c2: int) -> CongruenceSumResult:
    """sum over beta mod c1 c2 of
    e(-beta n1bar/c1 + beta n2bar/c2 + m beta/(c1 c2)),
    compared against c1 c2 * [n1bar c2 - n2bar c1 = m mod c1 c2].

    The exponent is beta t / (c1 c2) with t = m - n1bar c2 + n2bar c1, so
    the literal sum depends on t mod c1 c2 alone; each (c1 c2, t) sum is
    computed once, the missing t's of a call in count batches of at most
    2^20 entries.  Integer arrays m, n1 and n2 (broadcast together) give
    array fields, so one call covers every case of a pair (c1, c2).
    """
    n1b = _inverses(n1, c1)
    n2b = _inverses(n2, c2)
    cc = c1 * c2
    t = (_residues(m, cc) - n1b * c2 + n2b * c1) % cc  # m may exceed int64
    sums, filled = _root_sums(cc)
    missing = ~filled[t]
    if missing.any():
        # the missing t's, ascending and each once
        new = np.flatnonzero(np.bincount(t[missing], minlength=cc))
        beta = np.arange(cc, dtype=np.int64)
        step = max(1, (1 << 20) // cc)
        for i in range(0, new.size, step):
            rows = new[i : i + step]
            sums[rows] = _root_count_sums(_count_rows(np.outer(rows, beta) % cc, cc), cc, True)
        filled[new] = True
    value = sums[t]
    fired = t == 0
    if np.ndim(t) == 0:  # scalar parameters: plain Python numbers
        value, fired = complex(value), bool(fired)
        predicted = complex(cc if fired else 0.0)
        return CongruenceSumResult(value, fired, predicted, abs(value - predicted))
    predicted = np.where(fired, float(cc), 0.0).astype(complex)
    return CongruenceSumResult(value, fired, predicted, complex_abs(value - predicted))
