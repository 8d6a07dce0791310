"""Central values L(1/2 + it, f) by smoothed approximate functional
equation, the weighted coefficient sums S(N), and the exponent scan.

The AFE splits L into two Dirichlet pieces of complementary lengths
around sqrt(analytic conductor), linked by the root factor
eps(f) gamma(1-s)/gamma(s), where gamma and the conductor read only the
Gamma_R and Gamma_C shifts of `LFunctionSpec`, whatever the form.
Correctness is certified internally: the split point ("balance") is
mathematically irrelevant, so disagreement between two balance choices
measures every error source at once.

The smoothing is V(u) = (1/2 pi i) int G(w) (gamma(s+w)/gamma(s))
u^(-w) dw / w on Re w = 1 with the widened Gaussian G(w) =
exp((w/3)^2).  A unit-width Gaussian decays in u only like
exp(-ln(u/sqrt C)^2 / 4), which would need Dirichlet pieces tens of
thousands of conductors long; the width-3 version reaches 1e-12 by
u ~ 30 sqrt(C) while still dying superexponentially on the contour.

On the contour u^(-w) = u^(-1) e^(-i tau log u), so V(u) = u^(-1) g(log u)
with g = sum_j amp_j e^(-i tau_j log u), a finite exponential sum.  The
AFE sums read V from a piecewise Chebyshev series of g in log u, whose
coefficients are exact by Jacobi-Anger: with log u = m + h y on a piece,
c_k = eps_k (-i)^k sum_j amp_j e^(-i tau_j m) J_k(tau_j h).  The nodes
tau_j do not depend on t, and neither do the pieces (`_piece_edges`):
one grid in log u, a remainder [log 1/4, F] and above it octaves of
width log 2 from F = log 240, where an octave starts to hold as many
half-integer arguments as the contour has nodes.  A t uses the pieces
up to its log-u end.  So every t reads two Bessel tables, each built
once per process: the remainder's, 162 rows, and the one all octaves
share, 36 rows (each piece adds its phase).  Both are signed, row k
holding J_k(tau_j h), so the coefficients are one real product with two
columns per t.  At t = 1000 five octaves hold 9074 of the 9553
arguments at degree 35.  The scan works in blocks of consecutive t's,
cut only by count and bytes, which share the AFE arguments n, 2n and
n/2 of balances 1 and 2.
`_cutoff_table` makes one gamma-factor call for every s + w, s and
1 - s, which gives every t's amplitudes as one row and its root factor;
forms every t's coefficients from one batched product per table; and
evaluates each piece's Chebyshev basis once, a matrix product, over its
run of the sorted union of the block's distinct arguments, one column
of V per t.  The union comes from a stable merge of the argument
progressions (`_sorted_union`), which also gives, for each balance, the
positions of its two progressions in it, so a sum reads V with one
`take` at those positions cut to its own lengths.
`_block_values` turns the table into every central value of the block,
one row per t.  Each t's Dirichlet coefficients lambda(n) n^(-s) =
lambda(n) n^(-1/2) e^(-i t log n) do not depend on the balance, and
consecutive t's share them by angle addition, n^(-i(t + d)) =
n^(-it) n^(-id) (Odlyzko and Schonhage, Trans. AMS 309 (1988)): the
block's first column comes from the phase t log n, formed in
double-double on the (hi, lo) pair of log n (`special._log_n`, cached
per form length) and reduced mod 2 pi by `special._reduce_two_pi`, the
one reduction, which the S5 direct side and the Hankel route share; each
later t's column is the previous one times e^(-i d log n), d taken
exactly as a two-sum pair, with one complex exponential per distinct
step of the block (a scan grid has one to three).  Each column is formed once, at
the block's longest length, and every balance slices it; in a block of
16 t's at t = 4990 it lies within 7.6e-15 relative of 40-digit values,
where one double phase t log n per t erred by 7.8e-12.  A central value
computed alone is a block of one.  The dense contour sum (`_AfeContour`)
stays as `afe_weight` and as the test oracle.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .modforms import delta_eigenform, dim_cusp, hecke_eigenforms
from .oscint import WeightFamily, panel_rule
from .special import (
    ComplexEstimate,
    _log_n,
    _reduce_two_pi,
    _two_product,
    _two_sum,
    chebyshev_block,
    chebyshev_degree,
    jacobi_anger_coefficients,
    log_gamma_vec,
    signed_bessel_table,
)

MOLLIFIER_WIDTH = 3.0
# the sums stop at u = CUT_RATIO * sqrt(conductor), where V(u) < 5e-12:
# that bounds one V value, not the tail of the sum past the cut
CUT_RATIO = 30.0
# Re w = 1 keeps the series absolutely convergent while the integrand
# only reaches conductor^(1/2), limiting cancellation noise
_CONTOUR_SIGMA = 1.0
# on the lower half-line the gamma ratio grows like exp(pi |tau| / 2);
# the Gaussian must bury that: T^2/width^2 - (pi/2) T >= 34
_CONTOUR_TMAX = 28.0
_CONTOUR_PANELS = 40
_CONTOUR_NODES = 12
# the interpolant's pieces lie on one grid in log u, the same for every
# t: a remainder [log 1/4, F] and octaves [F + j w, F + (j + 1) w] above
# it.  F is where an octave [e^a, 2 e^a] starts to hold at least as many
# half-integer arguments (about 2 e^a) as the contour has nodes, so each
# octave pays back its coefficient product; on one, e^(-i tau log u)
# needs degree 35, not the whole range's 219 at t = 1000.  The width w
# is log 2 and F is log 240, each on a 2^-20 grid: every piece edge,
# width and half-width is then exact, so the shared octave table and
# each piece's map read one half-width to the bit
_LOG_U_LO = math.log(0.25)
_OCTAVE = round(math.log(2.0) * 2**20) / 2**20
_OCTAVE_FLOOR = round(math.log(_CONTOUR_PANELS * _CONTOUR_NODES / 2.0) * 2**20) / 2**20
# a scan block holds at most 16 t-points (its gamma pass keeps about
# eight arrays of 482 complex values per t alive, 1 MB in all) and 2 MiB
# of cutoff values: 16 bytes per t and argument, and the arguments of
# balances 1 and 2 lie on the half-integer grid up to e^end (at t = 1000,
# thirteen t-points, which share each piece's basis evaluation)
_SCAN_BLOCK = 16
_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class CoefficientSource:
    """Normalized coefficients lambda(1..n_max); values[0] is unused."""

    origin: str  # computed | ingested
    values: np.ndarray
    n_max: int

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError(f"need coefficients to n >= 1, have n_max = {self.n_max}")
        if abs(self.values[1] - 1.0) > 1e-12:
            raise ValueError("coefficients must be normalized with lambda(1) = 1")


@dataclass(frozen=True)
class LFunctionSpec:
    """Degree-2 L-function data: coefficients, root number and the gamma
    factor as shifts, prod Gamma_R(s + mu) over gamma_r times prod
    Gamma_C(s + nu) over gamma_c, where Gamma_R(z) = pi^(-z/2) Gamma(z/2)
    and Gamma_C(z) = 2 (2 pi)^(-z) Gamma(z).  A weight-k form has gamma_c
    = ((k - 1)/2,); a Maass form of spectral parameter nu and parity delta
    (0 even, 1 odd) has gamma_r = (delta + i nu, delta - i nu)."""

    gamma_r: tuple[complex, ...]
    gamma_c: tuple[float, ...]
    coefficients: CoefficientSource
    root_number: complex

    def __post_init__(self):
        if len(self.gamma_r) + 2 * len(self.gamma_c) != 2:
            raise ValueError(f"need a gamma factor of degree 2, got {self.gamma_r} {self.gamma_c}")
        if not all(map(cmath.isfinite, (*self.gamma_r, *self.gamma_c))):
            raise ValueError(f"gamma shifts must be finite, got {self.gamma_r} {self.gamma_c}")
        if not abs(abs(self.root_number) - 1.0) <= 1e-9:  # so a NaN fails it
            raise ValueError(f"root number must be finite and unimodular, got {self.root_number}")


def _holomorphic(k: int, normalized, prec: int) -> LFunctionSpec:
    """A weight-k level-1 form's spec: gamma_c = ((k - 1)/2,), root number i^k."""
    coefficients = CoefficientSource("computed", np.array(normalized), prec)
    return LFunctionSpec((), ((k - 1) / 2.0,), coefficients, complex((1j) ** (k % 4)))


def delta_spec(prec: int) -> LFunctionSpec:
    """The weight-12 level-1 form with coefficients from the eta product."""
    return _holomorphic(12, delta_eigenform(prec).normalized, prec)


def holomorphic_spec(k: int, prec: int) -> LFunctionSpec:
    """L-function of the first eigenform `hecke_eigenforms` gives at
    weight k.  Weights whose cusp space is empty or of dimension above 2
    raise ValueError."""
    dim = dim_cusp(k)
    if not 1 <= dim <= 2:
        raise ValueError(f"weight {k} needs 1 <= dim S_k <= 2, got dim S_{k} = {dim}")
    return _holomorphic(k, hecke_eigenforms(k, prec)[0].normalized, prec)


def conductor_sqrt(spec: LFunctionSpec, t: float) -> float:
    """sqrt of the analytic conductor at height t: prod |s + nu| over
    gamma_c times sqrt(prod |s + mu|) over gamma_r, over 2 pi."""
    s = complex(0.5, t)
    # plain loops, not math.prod over generators: a scan asks for the
    # conductor about five times per t
    prod_c = prod_r = 1.0
    for nu in spec.gamma_c:
        prod_c *= abs(s + nu)
    for mu in spec.gamma_r:
        prod_r *= abs(s + mu)
    return prod_c * math.sqrt(prod_r) / (2 * math.pi)


def _log_gamma_factor(spec: LFunctionSpec, s: np.ndarray) -> np.ndarray:
    """log of the completed gamma factor, vectorized over s, up to its
    constant factors (they cancel in every ratio): one Stirling pass over
    (s + mu)/2 for each mu and s + nu for each nu."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    r, c = len(spec.gamma_r), len(spec.gamma_c)
    z = np.empty((r + c, len(s)), dtype=complex)
    for row, shift in zip(z, (*spec.gamma_r, *spec.gamma_c)):
        np.add(s, shift, out=row)
    z[:r] /= 2.0
    lg = log_gamma_vec(z)
    # the first piece minus s times the constants, in place, is the
    # constants' term plus that piece to the bit, with one array fewer
    # alive during a block's Stirling pass
    out = lg[0]
    out -= s * (0.5 * r * math.log(math.pi) + c * math.log(2 * math.pi))
    for piece in lg[1:]:
        out += piece
    return out


@functools.lru_cache(maxsize=4)
def _contour_nodes(panels: int):
    """The t-independent part of a contour of `panels` panels: the nodes
    tau, w = sigma + i tau and wts G(w) / (2 pi w), read-only."""
    tau, wts = panel_rule(
        np.linspace(-_CONTOUR_TMAX, _CONTOUR_TMAX, panels + 1), _CONTOUR_NODES
    )
    w = _CONTOUR_SIGMA + 1j * tau
    # (1/2 pi i) f(w) dw on the vertical line = (1/2 pi) f dtau
    base = wts * np.exp((w / MOLLIFIER_WIDTH) ** 2) / w / (2 * math.pi)
    for a in (tau, w, base):
        a.flags.writeable = False
    return tau, w, base


def _log_u_range(spec: LFunctionSpec, t: float) -> tuple[float, float]:
    """log u over every argument central_value forms for a balance in
    [1/4, 4]: n = 1 at balance 1/4 up to afe_lengths' largest n * b."""
    return _LOG_U_LO, math.log(CUT_RATIO * conductor_sqrt(spec, t) + 8.0)


def _piece_edges(end: float) -> list[float]:
    """The edges of the interpolant's pieces up to the log-u end `end`,
    ascending: the remainder [log 1/4, F], F = `_OCTAVE_FLOOR`, then the
    octaves [F + j w, F + (j + 1) w], w = `_OCTAVE`, up to the first that
    reaches `end`.  Every t's edges are a prefix of one grid."""
    count = max(0, math.ceil((end - _OCTAVE_FLOOR) / _OCTAVE))
    return [_LOG_U_LO, *(_OCTAVE_FLOOR + j * _OCTAVE for j in range(count + 1))]


@functools.cache
def _bessel_table(half: float) -> np.ndarray:
    """J_k(tau_j h) at h = `half` for the signed contour nodes tau_j, that
    is (-1)^k J_k(|tau_j| h) where tau_j < 0, read-only and built once per
    process: k runs up to the largest degree any amplitudes can need on a
    piece of that half-width, since |tau_j| <= TMAX bounds it.  The scan
    reads two, the remainder's (162 rows) and the one every octave shares
    (36 rows)."""
    tau = _contour_nodes(_CONTOUR_PANELS)[0]
    table = signed_bessel_table(chebyshev_degree(_CONTOUR_TMAX * half / 2.0), tau * half)
    table.flags.writeable = False
    return table


def _amplitudes(spec: LFunctionSpec, ts, panels: int = _CONTOUR_PANELS):
    """The contour amplitudes G(w) gamma(s + w) / (2 pi w gamma(s)) at every
    node, 0 where negligible against a t's largest, as one row per t, and
    the root factors eps(f) gamma(1 - s) / gamma(s) of the functional
    equation, for every s = 1/2 + it of ts."""
    _, w, base = _contour_nodes(panels)
    # one gamma-factor call for s + w, s and 1 - s of every t
    s = 0.5 + 1j * np.asarray(ts, dtype=float)[:, None]
    z = np.concatenate([s + w, s, 1 - s], axis=1)
    lg = _log_gamma_factor(spec, z.ravel()).reshape(z.shape)
    root = spec.root_number * np.exp(lg[:, -1] - lg[:, -2])
    amp = base * np.exp(lg[:, :-2] - lg[:, -2:-1])
    keep = np.abs(amp) > 1e-19 * np.abs(amp).max(axis=1, keepdims=True)
    return np.where(keep, amp, 0.0), root


class _AfeContour:
    """The dense contour sum for V at one (spec, t), and its root factor.

    The default panel count serves the AFE sums, whose arguments stay
    within a few e-folds of the conductor scale (the gamma-ratio drift
    cancels most of the exp(-i tau ln u) oscillation there).  Callers
    probing extreme arguments pass a denser panelling.  The sums read V
    from a block's cutoff table (`_cutoff_table`); this sum serves
    `afe_weight` and the tests as their oracle.
    """

    def __init__(self, spec: LFunctionSpec, t: float, panels: int = _CONTOUR_PANELS):
        amp, root = _amplitudes(spec, [t], panels)
        keep = amp[0] != 0
        self.root_factor = root[0]
        self.amp = amp[0, keep]
        self.w = _contour_nodes(panels)[1][keep]

    def weight(self, u: np.ndarray) -> np.ndarray:
        """V(u) for an array of positive cutoff arguments."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        lu = np.log(u)
        tau = self.w.imag
        out = np.empty(len(u), dtype=complex)
        block = 4096
        for i in range(0, len(u), block):
            seg = lu[i : i + block]
            m = np.outer(seg, tau)
            cos_m, sin_m = np.cos(m), np.sin(m)
            # u^{-w} = u^{-sigma} (cos(tau ln u) - i sin(tau ln u))
            out[i : i + block] = np.exp(-_CONTOUR_SIGMA * seg) * (
                cos_m @ self.amp - 1j * (sin_m @ self.amp)
            )
        return out


def _cutoff_table(spec: LFunctionSpec, ts, balances):
    """V at every AFE argument of `balances` for a block of t's: the
    (U x B) table over the block's U distinct arguments, column b for
    t_b; each balance's two position runs in it at the block's longest
    lengths; every (t, balance)'s lengths (n1, n2); and every t's root
    factor.

    One gamma-factor call covers s + w, s and 1 - s of every t; every
    t's coefficients on the remainder piece come from one product with
    its Bessel table, and on every octave piece up to the block's largest
    log-u end from one product with the shared octave table; one basis
    evaluation per occupied piece, over its run of the sorted union of
    the block's distinct arguments, gives every t's values there.  The
    top piece's range check stops at the block's largest end.
    """
    lengths = [[afe_lengths(spec, t, b) for b in balances] for t in ts]
    end = max(_log_u_range(spec, t)[1] for t in ts)
    edges = _piece_edges(end)
    amp, root = _amplitudes(spec, ts)
    # every piece's amplitudes times its phase at its midpoint; the
    # remainder's coefficients come from one product with its table at
    # its full height, which bounds every degree, and every octave's from
    # one product with the shared table, stacked; column b holds t_b's
    tau = _contour_nodes(_CONTOUR_PANELS)[0]
    mids = 0.5 * (np.array(edges[:-1]) + np.array(edges[1:]))
    stacked = amp[None] * np.exp(-1j * np.outer(mids, tau))[:, None]
    coefs = [jacobi_anger_coefficients(_bessel_table(0.5 * (edges[1] - edges[0])), stacked[0].T)]
    if len(edges) > 2:
        octaves = stacked[1:].reshape(-1, len(tau)).T
        coefs += np.split(
            jacobi_anger_coefficients(_bessel_table(0.5 * _OCTAVE), octaves), len(mids) - 1, axis=1
        )
    # each balance's arguments are two progressions, nested in t: the
    # union is theirs at the block's longest lengths, and a t's pieces
    # read the prefixes of its balance's two position runs
    runs = []
    for (n1, n2), b in zip(np.max(lengths, axis=0), balances):
        args = _afe_arguments(n1, n2, b)
        runs += [args[:n1], args[n1:]]
    u, runs = _sorted_union(runs)
    positions = {b: (runs[2 * i], runs[2 * i + 1]) for i, b in enumerate(balances)}
    lu = np.log(u)
    # V = u^(-sigma) g(log u), each piece over its run of the sorted
    # arguments; one below lo lands in the remainder and one past the
    # block's exact range in the top piece, whose range checks raise
    bounds = [0, *np.searchsorted(lu, edges[1:-1]).tolist(), len(lu)]
    v = np.empty((len(lu), len(ts)), dtype=complex)
    for coef, a, b, i, j in zip(coefs, edges, edges[1:], bounds, bounds[1:]):
        if j > i:
            valid = (a, end) if b == edges[-1] else None
            chebyshev_block(coef, a, b, lu[i:j], valid, out=v[i:j])
    v *= np.exp(-_CONTOUR_SIGMA * lu)[:, None]
    return v, positions, lengths, root


def _sorted_union(runs) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted union of ascending arrays and each one's positions in
    it, equal to `np.unique` of their concatenation with its inverse: a
    stable argsort merges the runs, and a first-occurrence flag and its
    cumulative sum number the distinct values."""
    x = np.concatenate(runs)
    order = np.argsort(x, kind="stable")
    x = x[order]
    first = np.empty(len(x), dtype=bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return x[first], np.split(inverse, np.cumsum([len(r) for r in runs[:-1]]))


def _unit_phases(x: tuple[float, float], log_n) -> np.ndarray:
    """e^(-i x log n) for x = x_hi + x_lo and log n the pair of
    `special._log_n`, in double-double: x_hi hi exactly by `_two_product`,
    plus the cross terms, reduced mod 2 pi by `_reduce_two_pi` before it
    rounds to double."""
    (x_hi, x_lo), (hi, lo) = x, log_n
    p, e = _two_product(x_hi, hi)
    e += x_hi * lo + x_lo * hi
    return np.exp(-1j * _reduce_two_pi(p, e))


def _dirichlet_columns(spec: LFunctionSpec, ts, n: int):
    """lambda(m) m^(-s) = lambda(m) m^(-1/2) e^(-i t log m), m <= n, at
    s = 1/2 + it for each t of ts in turn: the first from its phase
    t log m, each later one the column before times e^(-i d log m) for its
    step d from the t before, with one exponential per distinct step.
    Every phase is formed and reduced mod 2 pi in double-double
    (`_unit_phases`; d, the difference of two doubles, exactly as a
    two-sum pair) before it rounds to double, so a column carries one
    rounding per step and no error of size t eps; where long double is
    only double, log m and so the first phase are only double-accurate."""
    log_n = tuple(part[:n] for part in _log_n(spec.coefficients.n_max))
    column = spec.coefficients.values[1 : n + 1] / np.sqrt(np.arange(1, n + 1.0))
    column = column * _unit_phases((float(ts[0]), 0.0), log_n)
    yield column
    steps = {}
    for before, t in zip(ts, ts[1:]):
        d = _two_sum(float(t), -float(before))
        if d not in steps:
            steps[d] = _unit_phases(d, log_n)
        column = column * steps[d]
        yield column


@dataclass(frozen=True)
class _Row:
    """The central values of one t of a block: `values` maps each balance
    whose sums fit in the form's coefficients to its estimate, `lengths`
    maps every balance of the block to its Dirichlet lengths (n1, n2)."""

    t: float
    values: dict
    lengths: dict


def _block_values(spec: LFunctionSpec, ts, balances) -> list[_Row]:
    """Every central value of a block (`_cutoff_table`): one row per t.

    Each t's Dirichlet column (`_dirichlet_columns`) runs to the block's
    longest length over the balances, capped at n_max, and each balance's
    two sums slice it.
    """
    v, positions, lengths, root = _cutoff_table(spec, ts, balances)
    n_max = spec.coefficients.n_max
    columns = _dirichlet_columns(spec, ts, min(int(np.max(lengths)), n_max))
    # truncation model: the log-normal mollifier tail past the cut,
    # summed against a divisor-weighted n^(-1/2) envelope
    v_cut = math.exp(-((MOLLIFIER_WIDTH * math.log(CUT_RATIO) / 2.0) ** 2))
    rows = []
    for t, v_t, omega, t_lengths, coef in zip(ts, v.T, root, lengths, columns):
        values = {}
        for b, (n1, n2) in zip(balances, t_lengths):
            if max(n1, n2) > n_max:
                continue
            # one kernel sum_m lambda(m) m^(-s) V(u_m) for both pieces: lambda
            # is real and s - 1 = -conj(s), so the dual piece is the conjugate
            # of the kernel at the reciprocal balance; at balance 1 both
            # pieces read the same positions to the same length, so the dual
            # sum is the first one's conjugate
            pos = positions[b]
            sum1 = complex(np.sum(coef[:n1] * v_t.take(pos[0][:n1])))
            if b == 1.0:
                sum2 = sum1.conjugate()
            else:
                sum2 = complex(np.sum(coef[:n2] * v_t.take(pos[1][:n2]))).conjugate()
            value = sum1 + omega * sum2
            tail = v_cut * 35.0 * (1.0 + (math.sqrt(n1) + math.sqrt(n2)) / 30.0)
            values[b] = ComplexEstimate(value, tail + 1e-12 * abs(value), "quadrature")
        rows.append(_Row(t, values, dict(zip(balances, t_lengths))))
    return rows


def afe_weight(y: float, t: float, spec: LFunctionSpec, balance: float) -> complex:
    """Smoothed cutoff V_t(balance * y): tends to 1 as y -> 0 and dies
    superpolynomially past the conductor scale (with an order-ten
    oscillatory transition region in between, a trait of the widened
    mollifier)."""
    if y <= 0:
        raise ValueError("y must be positive")
    if not (0.25 <= balance <= 4.0):
        raise ValueError("balance must lie in [1/4, 4]")
    u = balance * y
    # a lone extreme argument carries u^(-sigma)-amplified cancellation;
    # pay for a dense contour (phase <= ~6 radians per panel)
    span = abs(math.log(u)) + abs(math.log(max(conductor_sqrt(spec, t), 1e-6))) + 6.0
    panels = max(_CONTOUR_PANELS, int(2 * _CONTOUR_TMAX * span / 6.0) + 1)
    contour = _AfeContour(spec, t, panels=panels)
    return complex(contour.weight(np.array([u]))[0])


def afe_lengths(spec: LFunctionSpec, t: float, balance: float) -> tuple[int, int]:
    """Dirichlet-piece truncation lengths for the two AFE sums."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not (0.25 <= balance <= 4.0):
        raise ValueError("balance must lie in [1/4, 4]")
    sc = conductor_sqrt(spec, t)
    n1 = int(math.ceil(CUT_RATIO * sc / balance)) + 1
    n2 = int(math.ceil(CUT_RATIO * sc * balance)) + 1
    return n1, n2


def _afe_arguments(n1: int, n2: int, balance: float) -> np.ndarray:
    """The cutoff arguments n * balance (n <= n1) followed by n / balance
    (n <= n2) of the two AFE pieces."""
    ns = np.arange(1, max(n1, n2) + 1, dtype=float)
    return np.concatenate([ns[:n1] * balance, ns[:n2] / balance])


def central_value(
    spec: LFunctionSpec, t: float, balance: float = 1.0, _row: _Row | None = None
) -> ComplexEstimate:
    """L(1/2 + it) as the two smoothed Dirichlet pieces plus root factor:
    read from t's row of a block (`_block_values`), a block of one by
    default.  Another t than the row's or a balance its block was not
    built for raises ValueError, and so do sums past the form's n_max."""
    row = _row if _row is not None else _block_values(spec, [t], [balance])[0]
    if row.t != t or balance not in row.lengths:
        raise ValueError("a row holds the central values of its own t at its block's balances")
    if balance not in row.values:
        n, n_max = max(row.lengths[balance]), spec.coefficients.n_max
        raise ValueError(f"need coefficients to n = {n}, have {n_max}")
    return row.values[balance]


def sn_sum(
    coeffs: CoefficientSource, N: int, t: float, W: WeightFamily
) -> list[complex]:
    """sum of lambda(n) n^{it} W_k(n/N) over the support of each case W_k
    of the family W, compensated: one sum per case."""
    out = []
    for k, (lo, hi) in enumerate(W.supports.tolist()):
        n_lo = max(1, int(math.floor(lo * N)))
        n_hi = int(math.ceil(hi * N))
        if n_hi > coeffs.n_max:
            raise ValueError(f"need coefficients to n = {n_hi}, have {coeffs.n_max}")
        ns = np.arange(n_lo, n_hi + 1, dtype=float)
        wv = W.evaluator(ns / N, np.full(ns.size, k))
        terms = coeffs.values[n_lo : n_hi + 1] * wv * np.exp(1j * t * np.log(ns))
        out.append(complex(math.fsum(terms.real), math.fsum(terms.imag)))
    return out


@dataclass(frozen=True)
class ScanRecord:
    t: float
    modulus: float
    afe_length: int
    consistency_gap: float
    convexity_ratio: float
    weyl_ratio: float
    accepted: bool


# relative gap allowed between the L-values of two AFE balances
BALANCE_TOL = 1e-6
# the two balances a scan compares at each t
_SCAN_BALANCES = (1.0, 2.0)
# desk scale: the largest |t| a scan or the `afe` command takes, and the
# most t-points one scan grid may hold
T_MAX = 5000.0
SCAN_POINTS_MAX = 10**6
# the most coefficients a scan's form is built with: at |t| = T_MAX the
# longest AFE piece over `_SCAN_BALANCES` is n = 47748 for every weight
# with 1 <= dim S_k <= 2 (balance 2)
PREC_MAX = 50000


# the rows of the block this thread is scanning, keyed by t; set by
# `_scan_block` for the span of its records, so `_scan_one` keeps the
# signature (spec, t, balances) that callers wrap and substitute, and
# popped by `_scan_one` as it reads each
_scanning = threading.local()


def _scan_one(spec: LFunctionSpec, t: float, balances: tuple[float, float]) -> ScanRecord:
    """The record at t, read from its block's row (a block of one when
    called outside `_scan_block`)."""
    row = getattr(_scanning, "rows", {}).pop(t, None)
    if row is None:
        row = _block_values(spec, [t], balances)[0]
    v1 = central_value(spec, t, balances[0], _row=row)
    v2 = central_value(spec, t, balances[1], _row=row)
    gap = abs(v1.value - v2.value)
    modulus = abs(v1.value)
    ok = gap <= BALANCE_TOL * max(1.0, modulus)
    base = max(abs(t), 1e-9)
    return ScanRecord(
        t=t,
        modulus=modulus,
        afe_length=max(row.lengths[balances[0]]),
        consistency_gap=gap,
        convexity_ratio=modulus / base**0.5,
        weyl_ratio=modulus / base ** (1.0 / 3.0),
        accepted=bool(ok),
    )


def _scan_blocks(spec: LFunctionSpec, ts: list[float]) -> list[list[float]]:
    """The grid cut into runs of consecutive t's, at most `_SCAN_BLOCK`
    long and within `_BLOCK_BYTES` of cutoff values at the run's largest
    log-u end."""
    blocks, top = [], -math.inf
    for t in ts:
        end = _log_u_range(spec, t)[1]
        top = max(top, end)
        size = min(_SCAN_BLOCK, max(1, int(_BLOCK_BYTES // (32.0 * math.exp(top)))))
        if not blocks or len(blocks[-1]) >= size:
            blocks.append([])
            top = end
        blocks[-1].append(t)
    return blocks


def _scan_block(
    spec: LFunctionSpec, ts: list[float], balances: tuple[float, float]
) -> list[ScanRecord]:
    _scanning.rows = {row.t: row for row in _block_values(spec, ts, balances)}
    try:
        return [_scan_one(spec, t, balances) for t in ts]
    finally:
        del _scanning.rows


def exponent_scan(
    spec: LFunctionSpec,
    t_min: float,
    t_max: float,
    step: float,
    parallelism: int = 1,
) -> list[ScanRecord]:
    """Scan |L(1/2 + it)| over a t-grid, gated by the gap between the
    values at balances 1 and 2.

    Grid includes both endpoints when t_min < t_max and is empty when
    t_min = t_max.  The grid is cut into blocks (`_scan_blocks`), which
    run in order in the calling thread, so records come ordered by
    t.  A grid past |t| = `T_MAX` or of more than `SCAN_POINTS_MAX`
    points raises ValueError before any point is formed.

    `parallelism` changes no work, since the scan has no thread pool.  It
    is still taken, and still refused below 1, because existing callers
    pass it.
    """
    if not all(math.isfinite(x) for x in (t_min, t_max, step)):
        raise ValueError(
            f"scan grid needs finite t_min, t_max and step, got {t_min}, {t_max}, {step}"
        )
    if step <= 0:
        raise ValueError("step must be positive")
    if parallelism < 1:
        raise ValueError(f"parallelism must be at least 1, got {parallelism}")
    if max(abs(t_min), abs(t_max)) > T_MAX:
        raise ValueError(f"desk-scale scan limited to |t| <= {T_MAX:g}")
    if t_max <= t_min:
        return []
    # steps + 1 points, one more when t_max falls between two steps; the
    # quotient is inf for a step that underflows it
    steps = (t_max - t_min) / step
    if steps > SCAN_POINTS_MAX - 1:
        raise ValueError(
            f"scan grid of {steps + 1:.3g} points exceeds the desk-scale "
            f"limit of {SCAN_POINTS_MAX}"
        )
    count = int(math.floor(steps + 1e-9)) + 1
    ts = [t_min + i * step for i in range(count)]
    if ts[-1] < t_max - 1e-9:
        ts.append(t_max)
    blocks = _scan_blocks(spec, ts)
    return [r for block in blocks for r in _scan_block(spec, block, _SCAN_BALANCES)]


@dataclass(frozen=True)
class ScanSummary:
    n_records: int
    n_flagged: int
    max_convexity_ratio: float
    max_weyl_ratio: float
    peak_count: int
    fit_slope: float | None
    fit_intercept: float | None


def scan_summary(records: list[ScanRecord]) -> ScanSummary:
    """Max ratios plus a least-squares fit of log |L| peaks against log |t|.

    Peaks are interior local maxima of |L| among accepted records; the
    fitted slope is the empirical growth exponent.  A peak at t = 0 is
    counted but left out of the fit.
    """
    ok = [r for r in records if r.accepted]
    flagged = len(records) - len(ok)
    if not ok:
        return ScanSummary(len(records), flagged, 0.0, 0.0, 0, None, None)
    peaks = [
        r
        for i, r in enumerate(ok)
        if 0 < i < len(ok) - 1
        and ok[i - 1].modulus <= r.modulus >= ok[i + 1].modulus
        and r.modulus > 0
    ]
    slope = intercept = None
    fitted = [r for r in peaks if r.t != 0]
    if len(fitted) >= 2:
        xs = np.log([abs(r.t) for r in fitted])
        ys = np.log([r.modulus for r in fitted])
        slope_f, intercept_f = np.polyfit(xs, ys, 1)
        slope, intercept = float(slope_f), float(intercept_f)
    return ScanSummary(
        n_records=len(records),
        n_flagged=flagged,
        max_convexity_ratio=max(r.convexity_ratio for r in ok),
        max_weyl_ratio=max(r.weyl_ratio for r in ok),
        peak_count=len(peaks),
        fit_slope=slope,
        fit_intercept=intercept,
    )


@dataclass(frozen=True)
class MaassIngestReport:
    nu: float
    epsilon: float
    parity: str
    n_max: int
    kim_sarnak_violations: tuple
    rankin_selberg_ratio: float


def _parsed(typ, text: str, where: str):
    """typ(text), or a ValueError that names `where`, the header or row."""
    try:
        return typ(text)
    except ValueError:
        raise ValueError(f"bad {where}: cannot read {text!r} as {typ.__name__}") from None


def load_maass_file(path: str) -> tuple[LFunctionSpec, MaassIngestReport]:
    """Read a Maass coefficient file and run its admission checks.

    Header: '# nu = <decimal>' with |nu| <= `T_MAX` (nu enters the
    conductor as t does), '# epsilon = <+1|-1>', '# parity = <even|odd>';
    then 'n,lambda_n' rows from n = 1 with lambda(1) = 1, each n once.
    The Rankin-Selberg mean-square ratio must land in [0.05, 20] or the
    file is rejected; coefficients breaching twice the 7/64 bound are
    reported but tolerated.  The gamma factor is Gamma_R(s + delta +- i nu),
    delta = 0 for an even form and 1 for an odd one.
    """
    headers: dict[str, str] = {}
    rows: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in map(str.strip, fh):
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    headers[key.strip().lower()] = val.strip()
            elif line:
                n_str, _, lam_str = line.partition(",")
                n = _parsed(int, n_str, f"coefficient row '{line}'")
                if n in rows:
                    raise ValueError(f"repeated coefficient row '{line}'")
                rows[n] = _parsed(float, lam_str, f"coefficient row '{line}'")
    if "nu" not in headers:
        raise ValueError("missing '# nu = ...' header")
    nu = _parsed(float, headers["nu"], f"'# nu = {headers['nu']}' header")
    if not abs(nu) <= T_MAX:
        raise ValueError(f"bad '# nu = {headers['nu']}' header: need finite |nu| <= {T_MAX:g}")
    parity = headers.get("parity")
    if parity not in ("even", "odd"):
        raise ValueError("missing or bad '# parity = ...' header")
    epsilon = _parsed(float, headers.get("epsilon", "1" if parity == "even" else "-1"),
                      f"'# epsilon = {headers.get('epsilon')}' header")
    if epsilon not in (1.0, -1.0):
        raise ValueError(f"bad '# epsilon = {headers['epsilon']}' header: need +1 or -1")
    if not rows:
        raise ValueError("no coefficient rows: expected 'n,lambda_n' lines from n = 1")
    n_max = max(rows)
    if set(rows) != set(range(1, n_max + 1)):
        raise ValueError("coefficient rows must cover n = 1..n_max")
    vals = np.zeros(n_max + 1)
    for n, lam in rows.items():
        vals[n] = lam
    if abs(vals[1] - 1.0) > 1e-12:
        raise ValueError("lambda(1) must equal 1")
    ns = np.arange(1, n_max + 1, dtype=float)
    violations = tuple(
        int(n)
        for n, lam in zip(ns, vals[1:])
        if abs(lam) > 2.0 * n ** (7.0 / 64.0)
    )
    rs_ratio = float(np.sum(vals[1:] ** 2) / n_max)
    if not (0.05 <= rs_ratio <= 20.0):
        raise ValueError(
            f"Rankin-Selberg mean-square ratio {rs_ratio:.4g} outside [0.05, 20]; "
            "file looks corrupted or misnormalized"
        )
    delta = int(parity == "odd")
    spec = LFunctionSpec(
        gamma_r=(complex(delta, nu), complex(delta, -nu)),
        gamma_c=(),
        coefficients=CoefficientSource("ingested", vals, n_max),
        root_number=complex(epsilon),
    )
    report = MaassIngestReport(
        nu=nu,
        epsilon=epsilon,
        parity=parity,
        n_max=n_max,
        kim_sarnak_violations=violations,
        rankin_selberg_ratio=rs_ratio,
    )
    return spec, report
