"""Special functions: integer-order Bessel J, Stirling log-Gamma, the
Gamma-ratio phase expansion, the mod-4 trigonometric kernel, and the
package's one home for exact phase arithmetic.

The Bessel evaluator routes every argument by one vectorized test
between an ascending series (no-cancellation regime), Miller backward
recurrence normalized by the Neumann identity, and the Hankel asymptotic
expansion, and refuses the rest, a non-finite argument included.
Phases of 10^3 to 10^8 rad are formed as double-double pairs p + e
(Dekker's split and two-product, Knuth's two-sum) and reduced mod 2 pi
by one four-part Cody-Waite split, `_reduce_two_pi`, before they round
to double: the scan's Dirichlet phases, the S5 direct side and the
Hankel route (e = 0) share it.  Production paths are double precision
but for one table, the (hi, lo) pair of log n (`_log_n`), split from
one `np.longdouble` pass; where long double is only double its low part
is 0.  Other extended-precision references live in the test layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

EPS = 2.220446049250313e-16
_TWO_PI = 2.0 * math.pi
# 2 pi - _TWO_PI: the pair (_TWO_PI, _TWO_PI_LO) is 2 pi in double-double
_TWO_PI_LO = 2.4492935982947064e-16
# Cody-Waite split of 2 pi: C1, C2 and C3 have 8, 23 and 26 significant
# bits, so q C1, q C2 and q C3 are exact for every |q| < 2^27 (phases up
# to 8e8 rad); C1 + C2 + C3 + C4 is 2 pi within 5e-36
_CW1 = 6.28125
_CW2 = 0.0019353071693331003
_CW3 = 1.0253376489868793e-11
_CW4 = 1.1650928224373424e-19

# the Stirling terms log_gamma and log_gamma_vec take
_STIRLING_TERMS = 12
# B_{2j} for the Stirling tail, j = 1..16: the 16th bounds a 15-term tail
_BERNOULLI = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
    -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
    -236364091 / 2730, 8553103 / 6, -23749461029 / 870,
    8615841276005 / 14322, -7709321041217 / 510,
]


def _stirling_remainder(terms: int, z: complex) -> float:
    """Bound on Stirling's log Gamma remainder after `terms` terms at z,
    Re z > 0: the first omitted term |B_2n| / (2n (2n - 1) |z|^(2n - 1)),
    n = terms + 1, times the sector factor sec^(2n)(arg z / 2) (DLMF
    5.11(ii)), with sec^2(arg z / 2) = 2 |z| / (|z| + Re z)."""
    n = terms + 1
    r = abs(z)
    sector = (2.0 * r / (r + z.real)) ** n
    return abs(_BERNOULLI[n - 1]) / (2 * n * (2 * n - 1) * r ** (2 * n - 1)) * sector


def _stirling_radius(terms: int, angle: float) -> int:
    """The least integer R at which `terms` Stirling terms are good to
    2^(-56) over |z| >= R, Re z >= R cos(angle), angle <= pi / 2.  There
    the bound, |z|^(-2n + 1) sec^(2n)(arg z / 2) = |z|^(-n + 1) (2 / (|z|
    + Re z))^n, is largest at z = R e^(i angle)."""
    corner = cmath.exp(1j * angle)
    radius = 1
    while _stirling_remainder(terms, radius * corner) > 2.0**-56:
        radius += 1
    return radius


# log_gamma_vec lifts every argument to |z| >= 8 with Re z >= 4, where its
# 12 terms are good to 2.4e-18, or to |z| >= 10 with Re z >= 0 (1.8e-18):
# the second region spares the lifts of arguments near the imaginary axis
# (the Maass shifts (s +- i nu) / 2 have Re z = 1/4 and 3/4)
_STIRLING_RADIUS = _stirling_radius(_STIRLING_TERMS, math.pi / 3)
_STIRLING_RADIUS_AXIS = _stirling_radius(_STIRLING_TERMS, math.pi / 2)
# B_2j / (2j (2j - 1)), the Stirling tail's coefficients in powers 1/z^(2j-1)
_STIRLING_COEF = [b / ((2 * j + 1) * (2 * j + 2)) for j, b in enumerate(_BERNOULLI)]

# chebyshev_block builds the T_k rows in panels of 16 rows over chunks of
# at most 2048 arguments (three panels, 0.8 MB, are alive at a time, and
# a panel step is two numpy calls).  Neither size depends on the arguments
# or the columns of a call, so a value sums its terms in the same order
# whatever else shares the call
_PANEL_ROWS = 16
_BASIS_CHUNK = 1 << 11


@dataclass(frozen=True)
class ComplexEstimate:
    """A computed complex value with a claimed absolute error bound.

    The bound is rigorous where the method admits one (series, Neumann-
    normalized recurrence) and heuristic where only an error model is
    available (asymptotics, quadrature); `method` records which engine
    produced the value.
    """

    value: complex
    abs_error: float
    method: str

    def __post_init__(self):
        if not math.isfinite(self.abs_error):
            raise ValueError("abs_error must be finite")


class RangeError(ValueError):
    """Input outside the range any implemented method can certify."""


def chebyshev_degree(ratio: float) -> int:
    """Interpolation degree for e^(i tau y) on [-1, 1], ratio = |tau| / 2.

    The k-th Chebyshev coefficient of e^(i tau y) is 2 i^k J_k(tau), and
    |J_k(tau)| <= ratio^k / k!.  This returns the smallest k >= 1 at which
    2 ratio^k / k! falls below the rounding floor 2^(-52) of the unit
    amplitude.  The terms are formed in logarithms, so a large ratio
    cannot overflow.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_mag, log_ratio = np.log(2.0), np.log(ratio)
        deg = 1
        while np.exp(log_mag + deg * log_ratio - math.lgamma(deg + 1)) >= 2.0**-52:
            deg += 1
    return deg


def jacobi_anger_coefficients(bessel, amp) -> np.ndarray:
    """Chebyshev coefficients of g_b(y) = sum_j amp[j, b] e^(-i z_j y) on
    [-1, 1] for every column b, given the signed table bessel[k, j] =
    J_k(z_j): column b of the (K x B) result holds c_0..c_(K-1) of g_b, K
    the table's height.

    By Jacobi-Anger e^(-i z y) = sum_k eps_k (-i)^k J_k(z) T_k(y), with
    eps_0 = 1 and eps_k = 2, and the table carries the signs of the z_j
    (J_k(-r) = (-1)^k J_k(r)): one real product of the table with the
    real and imaginary parts of the amplitudes, two columns per b.  The
    products are one batched `np.matmul` over a (B x J x 2) stack, a GEMM
    per b, so that a column's coefficients do not depend on the others.
    The coefficients are exact up to the table's rounding; the height
    must bound the series' tail (`chebyshev_degree` of the largest
    |z_j| / 2).
    """
    factor = 2.0 * (-1j) ** (np.arange(len(bessel)) % 4)
    factor[0] = 1.0
    # (B x J) complex is (B x J x 2) real, and the (B x K x 2) product is
    # (B x K) complex again
    parts = np.ascontiguousarray(amp.T).view(np.float64).reshape(amp.shape[1], amp.shape[0], 2)
    sums = np.matmul(bessel, parts).view(complex)[..., 0]
    return (factor * sums).T


def chebyshev_block(coef, lo: float, hi: float, x, valid=None, out=None) -> np.ndarray:
    """sum_k coef[k, b] T_k(y) for every column b of a (K x B) complex
    coefficient matrix at every x of an array, with x = mid + half y
    mapping [-1, 1] onto [lo, hi]: a (len(x) x B) array, written into
    `out` (a C-contiguous complex array of that shape) when given.

    The rows T_0..T_(K-1) are built over a chunk of at most
    `_BASIS_CHUNK` arguments at once, in panels of p = `_PANEL_ROWS` rows:
    the first by the three-term recurrence T_(k+1) = 2 y T_k - T_(k-1),
    each later one from the two before it by T_(k+p) = 2 T_p T_k -
    T_(k-p).  Each panel is one real matrix product with the interleaved
    real and imaginary columns: the first writes the result, each later
    one goes to a scratch array added in place.  An argument outside
    `valid` (a subrange of [lo, hi]; all of it by default) raises
    ValueError.
    """
    x = np.asarray(x, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    _check_range(x, (lo, hi) if valid is None else valid)
    columns = np.ascontiguousarray(coef).view(np.float64)  # re, im, re, im, ...
    if out is None:
        out = np.empty((len(x), coef.shape[1]), dtype=complex)
    for a in range(0, len(x), _BASIS_CHUNK):
        y = (x[a : a + _BASIS_CHUNK] - mid) / half
        _basis_product(columns, y, out[a : a + _BASIS_CHUNK].view(np.float64))
    return out


def _basis_product(columns, y, out) -> None:
    """out = T(y) columns, T(y) the (len(y) x K) Chebyshev basis, built
    row panel by row panel."""
    rows = len(columns)
    size = min(rows, _PANEL_ROWS)
    # the first panel and T_size by the three-term recurrence
    first = np.empty((size + 1, len(y)))
    first[0] = 1.0
    first[1] = y
    two_y = 2.0 * y
    for k in range(2, size + 1):
        np.multiply(two_y, first[k - 1], out=first[k])
        first[k] -= first[k - 2]
    # every later panel from the two before it: T_(k+size) = 2 T_size T_k -
    # T_(k-size), with the rows before the first T_(-k) = T_k
    cur, prev = first[:size], first[size:0:-1].copy()
    two_t = 2.0 * first[size]
    nxt = np.empty_like(prev)
    scratch = np.empty_like(out)
    for k0 in range(0, rows, size):
        m = min(size, rows - k0)
        if k0 == 0:
            np.matmul(cur[:m].T, columns[:m], out=out)
        else:
            np.matmul(cur[:m].T, columns[k0 : k0 + m], out=scratch)
            out += scratch
        if k0 + size < rows:
            np.multiply(two_t, cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev


def _check_range(x, valid) -> None:
    """ValueError unless every x lies in the closed range `valid`."""
    v_lo, v_hi = valid
    v_mid, v_half = 0.5 * (v_lo + v_hi), 0.5 * (v_hi - v_lo)
    # a few ulps of slack for an argument computed at the range end
    if not np.all(np.abs((x - v_mid) / v_half) <= 1.0 + 1e-12):
        raise ValueError(f"argument outside the fitted range [{v_lo:.4g}, {v_hi:.4g}]")


def chebyshev_fit(g, lo: float, hi: float, freq: float, extra_degree: int = 0):
    """Chebyshev interpolant of g on [lo, hi], returned as an evaluator.

    g must be band-limited like a unit-amplitude e^(i freq x): on the
    half-width h the degree is `chebyshev_degree(|freq| h / 2)`, plus
    `extra_degree` for what the band does not bound (a factor that is
    not analytic at an end of [lo, hi]).  g is sampled once at the
    first-kind Chebyshev points; the evaluator is `chebyshev_block` with
    one column, so an argument outside [lo, hi] raises ValueError.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    deg = chebyshev_degree(abs(freq) * half / 2.0) + extra_degree
    coef = chebyshev.chebinterpolate(lambda y: g(mid + half * y), deg)[:, None]
    return lambda x: chebyshev_block(coef, lo, hi, x)[:, 0]


# ----------------------------------------------------------------------
# Double-double phase arithmetic (Dekker, Numer. Math. 18 (1971); Cody and
# Waite, Software Manual for the Elementary Functions (1980)): the scan's
# Dirichlet phases, the S5 direct side and the Hankel route form a phase
# as a pair p + e and reduce it mod 2 pi here before it rounds to double


def _split(a):
    """Dekker's split: a = hi + lo, each half of at most 26 significant bits."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a, b):
    """Dekker's two-product: a b = p + e exactly, p the rounded product."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    """Knuth's two-sum: a + b = s + e exactly, s the rounded sum."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


@lru_cache(maxsize=4)
def _log_n(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """log n for n = 1..n_max as a double-double pair (hi, lo), read-only:
    one pass in `np.longdouble` rounded to hi, and the rest to lo.  Where
    long double is only double, lo is 0.  Callers read its prefixes."""
    log_n = np.log(np.arange(1, n_max + 1, dtype=np.longdouble))
    hi = log_n.astype(float)
    lo = (log_n - hi).astype(float)
    for a in (hi, lo):
        a.flags.writeable = False
    return hi, lo


def _reduce_two_pi(p, e):
    """p + e mod 2 pi, in [-pi, pi] up to rounding, for a double-double
    phase over arrays (e = 0 for a double p).  q = round(p / 2 pi) must
    stay below 2^27: p - q C1 - q C2 is exact, e joins before the smaller
    parts, so the result errs by a few ulps of itself plus e's rounding."""
    q = np.floor(p / _TWO_PI + 0.5)
    r = p - q * _CW1
    r -= q * _CW2
    r += e
    r -= q * _CW3
    r -= q * _CW4
    return r


def _bessel_series(n: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending series of J_n over an array, with per-element error bounds.

    Precondition x*x <= 2(n+1) or x small.  The series runs until every
    term falls below an ulp of its sum; the bound is the rounding of the
    largest term over the terms taken plus the last term.
    """
    half = 0.5 * np.asarray(xs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t0 = np.where(half > 0, n * np.log(half), 0.0 if n == 0 else -np.inf)
    log_t0 = log_t0 - math.lgamma(n + 1)
    underflow = log_t0 < -745.0
    t = np.where(underflow, 0.0, np.exp(log_t0))
    total = t.copy()
    largest = np.abs(t)
    xx = half * half
    j = 0
    while True:
        j += 1
        t *= -xx / (j * (n + j))
        total += t
        largest = np.maximum(largest, np.abs(t))
        if np.all(np.abs(t) < np.abs(total) * EPS + 5e-324) or j > 600:
            break
    err = largest * EPS * (j + 2) + np.abs(t)
    return total, np.where(underflow, math.exp(-700.0), err)  # underflow-level tail


def _miller_start(top: float) -> int:
    """Where a Miller backward recurrence for orders and arguments up to
    `top` starts: top + 16 sqrt(top + 1) + 24, truncated, then rounded up
    to even."""
    start = int(top + 16.0 * math.sqrt(top + 1.0) + 24)
    return start + start % 2


def _bessel_miller(orders, x: float) -> tuple[np.ndarray, np.ndarray]:
    """J_n(x) for every n in `orders` from one backward recurrence.

    The recurrence starts above the largest order and is normalized by
    the Neumann sum J_0 + 2 J_2 + 2 J_4 + ... = 1 (Gautschi, SIAM Review
    1967); the value at each requested order is kept as the pass reaches
    it, and kept values are rescaled with the running ones on overflow.
    Returns values and error bounds aligned with `orders`.
    """
    start = _miller_start(max(max(orders), x))
    todo = sorted(set(orders))  # pop() gives the next order down
    nxt = todo.pop()
    kept = {}
    fp = 0.0  # f_{j+1}
    fc = 1e-290  # f_j at j = start
    neumann = 0.0
    for j in range(start, 0, -1):
        fm = (2.0 * j / x) * fc - fp
        fp = fc
        fc = fm
        jm = j - 1
        if jm == nxt:
            kept[jm] = fc
            nxt = todo.pop() if todo else -1
        if jm % 2 == 0:
            neumann += fc if jm == 0 else 2.0 * fc
        if abs(fc) > 1e250:
            fc *= 1e-250
            fp *= 1e-250
            neumann *= 1e-250
            for k in kept:
                kept[k] *= 1e-250
    values = np.array([kept[n] / neumann for n in orders])
    # near zeros the error scales with the oscillation envelope, not |J|
    envelope = np.where(
        x >= np.asarray(orders), math.sqrt(2.0 / (math.pi * x)), np.abs(values)
    )
    return values, (np.abs(values) + envelope) * 5e-14 + 1e-305


def bessel_j_table(kmax: int, xs) -> np.ndarray:
    """J_0..J_kmax at every positive x of an array: row k holds J_k(xs).

    One Miller backward pass serves every x, vectorized across them.  It
    starts where `_bessel_miller` would for the largest of kmax and the
    x's, and each column is normalized by its own Neumann sum.  A column
    nearing overflow is rescaled alone, together with the values it has
    kept.  Since |f_(j-1)| <= (2 j / x + 1) max(|f_j|, |f_(j+1)|), the
    checks can be spaced so the growth between two of them stays below
    1e50.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or not np.all(xs > 0):
        raise ValueError("bessel_j_table needs a 1-d array of positive arguments")
    start = _miller_start(max(kmax, float(xs.max())))
    every = max(1, int(50.0 / math.log10(2.0 * start / xs.min() + 1.0)))
    scale = 2.0 / xs
    table = np.empty((kmax + 1, xs.size))
    fp = np.zeros_like(xs)  # f_(j+1)
    fc = np.full_like(xs, 1e-290)  # f_j at j = start
    evens = np.zeros_like(xs)  # f_0 + f_2 + f_4 + ...
    for j in range(start, 0, -1):
        fm = scale * j
        fm *= fc
        fm -= fp
        fp, fc = fc, fm
        jm = j - 1
        if jm <= kmax:
            table[jm] = fc
        if jm % 2 == 0:
            evens += fc
        if j % every == 0:
            big = (np.abs(fc) > 1e250) | (np.abs(fp) > 1e250) | (np.abs(evens) > 1e250)
            if big.any():
                fc[big] *= 1e-250
                fp[big] *= 1e-250
                evens[big] *= 1e-250
                table[jm:, big] *= 1e-250
    # the Neumann sum J_0 + 2 J_2 + 2 J_4 + ... = 1
    table /= 2.0 * evens - fc
    return table


def signed_bessel_table(kmax: int, zs) -> np.ndarray:
    """J_0..J_kmax at every real z of an array, the table that
    `jacobi_anger_coefficients` reads: row k holds J_k(zs).

    The nonzero arguments share one `bessel_j_table` pass at |z|, and the
    odd rows take the signs of the z's (J_k(-r) = (-1)^k J_k(r)); a zero
    argument's column is J_k(0) = (1, 0, 0, ...).
    """
    zs = np.asarray(zs, dtype=float)
    r = np.abs(zs)
    nonzero = r != 0  # a NaN goes on to bessel_j_table, which refuses it
    if nonzero.all():
        table = bessel_j_table(kmax, r)
    else:
        table = np.zeros((kmax + 1, zs.size))
        table[0] = 1.0
        if nonzero.any():
            table[:, nonzero] = bessel_j_table(kmax, r[nonzero])
    table[1::2] *= np.sign(zs)
    return table


def _bessel_hankel(n: int, x: float) -> tuple[float, float]:
    """Hankel asymptotic expansion, valid for x well beyond n^2."""
    mu = 4.0 * n * n
    p, q = 1.0, 0.0
    term = 1.0
    k = 0
    smallest = 1.0
    while k < 40:
        k += 1
        nxt = term * (mu - (2 * k - 1) ** 2) / (8.0 * x * k)
        if abs(nxt) > 4 * smallest:
            break  # divergence onset: stop at the optimal truncation
        term = nxt
        if k % 2 == 1:
            q += term if (k // 2) % 2 == 0 else -term
        else:
            p += term if (k // 2) % 2 == 0 else -term
        smallest = min(smallest, abs(term))
        if abs(term) < 1e-17:
            break
    # reduce x alone first: subtracting the order phase from a huge x
    # would cost ~ulp(x) of phase accuracy
    chi = _reduce_two_pi(x, 0.0) - (0.5 * n + 0.25) * math.pi
    amp = math.sqrt(2.0 / (math.pi * x))
    value = amp * (p * math.cos(chi) - q * math.sin(chi))
    return value, amp * (smallest + 20 * EPS)


def _bessel_route(order, x) -> np.ndarray:
    """The method `bessel_j` uses for J_order(x), broadcast over arrays of
    orders and arguments: "series", "recurrence" or "asymptotic" for each
    pair.  Raises RangeError if any pair has no method, a non-finite x
    among them."""
    order, x = np.broadcast_arrays(np.asarray(order), np.asarray(x, dtype=float))
    bad = (order < 0) | (order > 10**4)
    if bad.any():
        raise RangeError(f"order {order[bad][0]} outside [0, 10^4]")
    bad = ~((x >= 0) & (x <= 10**8))
    if bad.any():
        raise RangeError(f"argument {x[bad][0]} outside [0, 10^8]")
    series = (x <= 8.5) | (x * x <= 2.0 * (order + 1))
    recurrence = ~series & (np.maximum(order, x) <= 5e5)
    stuck = ~(series | recurrence | (x >= np.maximum(1000.0, 1.5 * order * order)))
    if stuck.any():
        raise RangeError(
            f"J_{order[stuck][0]}({x[stuck][0]}): no certified method (recurrence "
            "too long, asymptotic out of regime)"
        )
    return np.where(series, "series", np.where(recurrence, "recurrence", "asymptotic"))


def bessel_j_orders(orders, x: float) -> list[ComplexEstimate]:
    """J_n(x) for every integer order n in `orders`, in that order.

    Each order takes `bessel_j`'s route; the recurrence orders share one
    Miller backward pass started above the largest of them.
    """
    routes = _bessel_route(orders, x).tolist()
    rec = [n for n, r in zip(orders, routes) if r == "recurrence"]
    miller = dict(zip(rec, zip(*_bessel_miller(rec, x)))) if rec else {}
    out = []
    for n, route in zip(orders, routes):
        if route == "recurrence":
            v, err = miller[n]
        elif x == 0.0:
            v, err = (1.0 if n == 0 else 0.0), 0.0
        elif route == "series":
            vs, errs = _bessel_series(n, np.array([x]))
            v, err = vs[0], errs[0]
        else:
            v, err = _bessel_hankel(n, x)
        out.append(ComplexEstimate(float(v), float(err), route))
    return out


def bessel_j(order: int, x: float) -> ComplexEstimate:
    """J_order(x) for integer order >= 0 and real x >= 0.

    Series for small or order-dominated arguments, Miller backward
    recurrence in midrange, Hankel expansion when the recurrence would
    be too long and the expansion is in regime; anything else raises.
    """
    return bessel_j_orders([order], x)[0]


def bessel_j_many(order: int, xs: np.ndarray) -> np.ndarray:
    """J_order over an array of arguments (values only), raising where
    `bessel_j` would.

    Each argument takes `bessel_j`'s route: the series runs on every
    series-regime argument at once, the recurrence-regime arguments share
    one `bessel_j_table` pass, and the rest go to `bessel_j` one by one.
    """
    xs = np.asarray(xs, dtype=float)
    routes = _bessel_route(order, xs)
    out = np.empty_like(xs)
    series, rec = routes == "series", routes == "recurrence"
    if series.any():
        out[series] = _bessel_series(order, xs[series])[0]
    if rec.any():
        out[rec] = bessel_j_table(order, xs[rec])[order]
    for i in np.flatnonzero(routes == "asymptotic"):
        out[i] = bessel_j(order, float(xs[i])).value
    return out


# ----------------------------------------------------------------------
# Gamma


def _stirling(z: np.ndarray, terms: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Principal log Gamma over a complex array by Stirling with recursion lift.

    Each element is lifted by Gamma(z) = Gamma(z+m)/(z...(z+m-1)) until
    |z+m| >= R and Re(z+m) >= R/2, R = `_STIRLING_RADIUS`, or |z+m| >=
    `_STIRLING_RADIUS_AXIS` and Re(z+m) >= 0, at most 400 times.  The tail sum_j c_j z^(1-2j) is summed by Horner's rule in
    1/z^2.  Returns the values, the largest lift count m and the lifted
    arguments.
    """
    if terms < 1 or terms > 15:
        raise ValueError("terms must be in 1..15")
    z = np.asarray(z, dtype=complex).copy()
    shift = np.zeros_like(z)
    for lifts in range(401):
        r = np.abs(z)
        mask = (r < _STIRLING_RADIUS) | (z.real < 0.0)
        mask |= (z.real < 0.5 * _STIRLING_RADIUS) & (r < _STIRLING_RADIUS_AXIS)
        if not mask.any():
            break
        if lifts == 400:
            raise RangeError("recursion lift did not reach Stirling regime")
        shift[mask] += np.log(z[mask])
        z[mask] += 1
    inv = 1.0 / z
    inv_sq = inv * inv
    tail = np.full_like(z, _STIRLING_COEF[terms - 1])
    for c in reversed(_STIRLING_COEF[: terms - 1]):
        tail *= inv_sq
        tail += c
    tail *= inv
    del inv, inv_sq
    # (z - 1/2) log z - z + log(2 pi) / 2 + tail - shift, in place: the
    # scan's blocks pass tens of thousands of arguments
    value = z - 0.5
    value *= np.log(z)
    value -= z
    value += 0.5 * math.log(2 * math.pi)
    value += tail
    value -= shift
    return value, lifts, z


def log_gamma(s: complex) -> ComplexEstimate:
    """Principal-branch log Gamma(s) by Stirling with recursion lift,
    `_STIRLING_TERMS` terms.

    The claimed error is the first omitted Bernoulli term at the lifted
    argument, with its sector factor, plus lift rounding.
    """
    if s.imag == 0 and s.real <= 0 and s.real == int(s.real):
        raise ZeroDivisionError(f"Gamma pole at s = {s}")
    terms = _STIRLING_TERMS
    value, m, z = _stirling(np.array([s]), terms)
    val = complex(value[0])
    err = _stirling_remainder(terms, complex(z[0])) + (m + 4) * EPS * (abs(val) + 1.0)
    return ComplexEstimate(val, err, "asymptotic")


def log_gamma_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized principal log Gamma for complex arrays (values only)."""
    return _stirling(z, _STIRLING_TERMS)[0]


@dataclass(frozen=True)
class GammaRatioPhase:
    """Gamma(K/2 + i tau) / Gamma(K/2 - i tau) and its approximations.

    true_phase is the unwrapped phase 2 Im log Gamma(K/2 + i tau).  The
    displayed approximation 2 tau log K - tau/K - tau propagates two
    slips of the underlying expansion (log r = log(K/2), theta = 2
    tau/K); the corrected candidate 2 tau log(K/2) - 2 tau/K repairs
    both and lands within O(tau^2/K^2).
    """

    ratio: ComplexEstimate
    true_phase: float
    displayed_phase: float
    corrected_phase: float
    diff_displayed: float
    diff_corrected: float


def gamma_ratio_phase(K: float, tau: float) -> GammaRatioPhase:
    if K < 10:
        raise ValueError("need K >= 10")
    if abs(tau) > K / 4:
        raise ValueError("need |tau| <= K/4")
    num = log_gamma(complex(K / 2, tau))
    den = log_gamma(complex(K / 2, -tau))
    ratio = cmath.exp(num.value - den.value)
    err = abs(ratio) * (num.abs_error + den.abs_error + 4 * EPS)
    true_phase = 2.0 * num.value.imag
    displayed = 2 * tau * math.log(K) - tau / K - tau
    corrected = 2 * tau * math.log(K / 2) - 2 * tau / K
    return GammaRatioPhase(
        ratio=ComplexEstimate(ratio, err, "asymptotic"),
        true_phase=true_phase,
        displayed_phase=displayed,
        corrected_phase=corrected,
        diff_displayed=abs(true_phase - displayed),
        diff_corrected=abs(true_phase - corrected),
    )


def bessel_kernel_ca(a: int, v: np.ndarray, x: float) -> np.ndarray:
    """C_a(v, x) = -2i sin(x sin 2 pi v) + 2 i^(1-a) sin(x cos 2 pi v),
    elementwise over v.

    The mod-4 kernel of the sum-over-orders identity; for sums over
    orders in a fixed odd residue class a mod 4, pairing J_u(y) with
    C_a(v, y) (same argument y on both sides) makes the identity exact.
    """
    v = np.asarray(v, dtype=float)
    return -2j * np.sin(x * np.sin(2 * math.pi * v)) + 2 * (1j) ** (
        (1 - a) % 4
    ) * np.sin(x * np.cos(2 * math.pi * v))
