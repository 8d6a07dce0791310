"""Oscillatory-integral engine.

A brute-force adaptive quadrature is the ground truth: panels are sized
so each carries a bounded amount of phase, Gauss-Legendre pairs give a
per-panel error estimate, and accepted panels are summed in interval
order so results do not depend on refinement scheduling.  It integrates
a family of cases at once: a `WeightFamily` and a `PhaseFamily` are the
only weight and phase types, and take flat arrays of points and case
indices, so every panel generation of every case is one evaluator call
per chunk, and one estimate comes back per case; a single weight is a
family of one.  On top of it sit the leading-order stationary-phase
evaluation, nonstationary decay and second-derivative bound checks,
each over a family with one result per case, and the Bessel-weighted
sum over weights with its integral-kernel identity, one estimate per
(K, x) pair of its broadcast arguments.  Phases carry their
first two derivatives as exact callables; nothing here differentiates
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Sequence

import numpy as np

from .special import ComplexEstimate, _two_product, bessel_j_orders, bessel_kernel_ca


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_(n-1)(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x.copy()
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, p0


@cache
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of order n on [-1, 1].

    Newton's method on P_n, evaluated by its three-term recurrence, from
    Tricomi's initial guesses (Hale & Townsend, SIAM J. Sci. Comput. 35,
    2013), for the nonnegative nodes; the rest are their mirror images,
    and an odd n has a node at exactly 0.  The weight 2 / ((1 - x^2)
    P_n'(x)^2) is taken at the last point of evaluation and moved to
    first order by the last Newton step dx, a relative 2 x dx / (1 - x^2)
    that reaches 1e-12 at the end nodes of n = 560.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = (4 * k - 1) * math.pi / (4 * n + 2)
    x = np.cos(theta) * (
        1 - (n - 1) / (8.0 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    if n % 2:
        x[-1] = 0.0
    for _ in range(20):
        pn, pm = _legendre_pair(n, x)
        one = (1 - x) * (1 + x)
        dp = n * (pm - x * pn) / one
        step = pn / dp
        x, last = x - step, x
        if np.all(np.abs(step) <= 1e-15):
            break
    w = 2.0 / (one * dp * dp) * (1 + 2 * last * step / one)
    half = n // 2  # the positive nodes, mirrored
    return np.concatenate([-x, x[:half][::-1]]), np.concatenate([w, w[:half][::-1]])


def panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Panelled Gauss-Legendre: `order` nodes on each [edges[i], edges[i+1]].

    Returns flat (nodes, weights), panel by panel in the given order;
    exact for polynomials of degree 2 order - 1 on each panel.
    """
    xs, ws = _gl(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


class QuadratureError(RuntimeError):
    """Raised when the node budget is exhausted; carries the best value."""

    def __init__(self, message: str, value: complex, achieved_bound: float):
        super().__init__(message)
        self.value = value
        self.achieved_bound = achieved_bound


# ----------------------------------------------------------------------
# weights and phases


def _canonical_bump(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    return out


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, and
    g(t) / (g(t) + g(1 - t)) with g(t) = exp(-1/t) in between, where
    alone the exponentials are formed."""
    out = (t >= 1.0).astype(float)
    inside = ~((t <= 0.0) | (t >= 1.0))
    s = t[inside]
    g0 = np.exp(-1.0 / np.maximum(s, 1e-300))
    g1 = np.exp(-1.0 / np.maximum(1.0 - s, 1e-300))
    out[inside] = g0 / (g0 + g1)
    return out


@dataclass
class WeightFamily:
    """B smooth weights as one evaluator: evaluator(t, k) is w_k(t) at
    parallel flat arrays of points t and case indices k, each point in
    its case's support supports[k].  amp_scales[k] and var_scales[k] are
    case k's X and V of the derivative model w^(j) << X V^(-j); they
    gauge error heuristics, not correctness."""

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    supports: np.ndarray  # (B, 2)
    amp_scales: np.ndarray  # (B,)
    var_scales: np.ndarray  # (B,)

    @classmethod
    def stack(cls, members: Sequence[WeightFamily]) -> WeightFamily:
        """The members' cases in turn."""
        return cls(
            _stacked([m.evaluator for m in members], [len(m.supports) for m in members]),
            *(np.concatenate([getattr(m, name) for m in members])
              for name in ("supports", "amp_scales", "var_scales")),
        )


@dataclass
class PhaseFamily:
    """B phases (radians) as one evaluator, with their first two
    derivatives: each takes parallel flat arrays of points t and case
    indices k.

    Y and Q are each case's scales in h^(j) << Y Q^(-j) and, where
    relevant, h'' >> Y Q^(-2); R is a lower bound for |h'|, which the
    nonstationary check needs.  Each is an array of B values or one
    value for every case.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray, np.ndarray], np.ndarray]
    deriv2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    Y: np.ndarray | float = 1.0
    Q: np.ndarray | float = 1.0
    R: np.ndarray | float | None = None


def _per_case(value, n_cases: int) -> list[float]:
    """A per-case scale, or one for every case, as n_cases floats."""
    return np.broadcast_to(np.asarray(value, dtype=float), (n_cases,)).tolist()


def _stacked(evaluators, sizes):
    """One (t, k) evaluator over members of the given case counts: member
    j sees its own points with its own case numbers."""
    offsets = np.cumsum([0, *sizes])

    def ev(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        order = np.argsort(k, kind="stable")
        cuts = np.searchsorted(k[order], offsets)
        out = np.empty(t.shape)
        for j, f in enumerate(evaluators):
            idx = order[cuts[j] : cuts[j + 1]]
            if idx.size:
                out[idx] = f(t[idx], k[idx] - offsets[j])
        return out

    return ev


def _cases(*values) -> tuple[np.ndarray, ...]:
    """Scalars or arrays broadcast together, as 1-d float arrays."""
    return np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in values))


def bump_weight(a, b, amp=1.0) -> WeightFamily:
    """Canonical bump exp(1 - 1/(1-s^2)) mapped onto [a, b], peak = amp.

    a, b and amp broadcast together, case k on [a_k, b_k] with peak
    amp_k; scalars give a family of one.
    """
    a, b, amp = _cases(a, b, amp)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return WeightFamily(
        lambda t, k: amp[k] * _canonical_bump((t - mid[k]) / half[k]),
        np.stack([a, b], axis=1), amp, half,
    )


def plateau_weight(a, b, c, d, amp=1.0) -> WeightFamily:
    """Smoothed-step pair: rises on [a, b], flat at amp on [b, c], falls on
    [c, d].  The arguments broadcast together, one case per entry;
    scalars give a family of one."""
    a, b, c, d, amp = _cases(a, b, c, d, amp)
    if not np.all((a < b) & (b <= c) & (c < d)):
        raise ValueError("need a < b <= c < d")
    rise, fall = b - a, d - c
    return WeightFamily(
        lambda t, k: (
            amp[k] * _smooth_step((t - a[k]) / rise[k]) * _smooth_step((d[k] - t) / fall[k])
        ),
        np.stack([a, d], axis=1), amp, np.minimum(rise, fall),
    )


# ----------------------------------------------------------------------
# quadrature oracle

_PHASE_PER_PANEL = 9.0
_CHUNK_NODES = 1 << 14  # evaluator points per call, keeping the arrays small
_MAX_NODES = 3_000_000  # oscillatory_quadrature's node budget per case


def _phase_edges(h: PhaseFamily, supports: np.ndarray, max_panels: int) -> list[np.ndarray]:
    """Each case's panel edges at roughly equal phase increments.

    The phase is sampled at 1025 points of each support (more where its
    variation needs them), the cases' first samples in calls of at most
    _CHUNK_NODES points.
    """
    n0 = 1025
    per_call = max(1, _CHUNK_NODES // n0)
    edges = []
    for s in range(0, len(supports), per_call):
        part = supports[s : s + per_call]
        k = np.repeat(np.arange(s, s + len(part)), n0)
        ts = np.linspace(part[:, 0], part[:, 1], n0, axis=1)
        hv = np.asarray(h.evaluator(ts.ravel(), k), dtype=float).reshape(ts.shape)
        steps = np.abs(np.diff(hv, axis=1))
        totals = steps.sum(axis=1)
        for i, (a, b) in enumerate(part.tolist()):
            t_i, step, total = ts[i], steps[i], float(totals[i])
            need = int(min(max(total / 2.0, 1024), 4_000_000))
            if need > n0:  # one resampling, as finely as the first samples ask
                n = need + 1
                t_i = np.linspace(a, b, n)
                hv_i = np.asarray(h.evaluator(t_i, np.full(n, s + i)), dtype=float)
                step = np.abs(np.diff(hv_i))
                total = float(np.sum(step))
            if total > 1.2e7:
                raise ValueError(f"total phase variation {total:.3g} exceeds the 1e7 budget")
            cum = np.concatenate([[0.0], np.cumsum(step)])
            panels = int(min(max(total / _PHASE_PER_PANEL, 8), max_panels))
            e = np.interp(np.linspace(0.0, cum[-1], panels + 1), cum, t_i)
            e[0], e[-1] = a, b
            e.sort()
            edges.append(e[np.concatenate([[True], e[1:] != e[:-1]])])  # no repeats
    return edges


def oscillatory_quadrature(w, h, tol: float = 1e-10):
    """integral of w(t) exp(i h(t)) dt over the support of w.

    w and h are a WeightFamily and a PhaseFamily of B cases, giving a
    list of B ComplexEstimates; each case is integrated as if alone.
    Initial panels hold ~9 radians of phase each; every panel is accepted
    only when a GL24/GL12 pair agrees within its share of tol, otherwise
    it is bisected.  Each generation of pending panels, of every case, is
    evaluated in calls of w and h of at most _CHUNK_NODES points; each
    case's accepted panels are summed left to right.  A case past
    `_MAX_NODES` nodes raises QuadratureError with its partial value.
    """
    if tol < 1e-12:
        raise ValueError("tol below the 1e-12 floor")
    n_cases = len(w.supports)
    span = w.supports[:, 1] - w.supports[:, 0]
    edges = _phase_edges(h, w.supports, max_panels=_MAX_NODES // 72)
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    case = np.repeat(np.arange(n_cases), [e.size - 1 for e in edges])
    # per generation: case, lo, value and error of the accepted panels
    kept = [(case[:0], lo[:0], np.zeros(0, dtype=complex), lo[:0])]
    nodes = np.zeros(n_cases, dtype=np.int64)
    (x24, w24), (x12, w12) = _gl(24), _gl(12)
    xs = np.concatenate([x24, x12])  # a panel's 36 nodes: GL24, then GL12
    chunk = _CHUNK_NODES // xs.size
    while lo.size:
        # one generation: the GL24/GL12 pair of every pending panel
        nodes += xs.size * np.bincount(case, minlength=n_cases)
        if np.any(nodes > _MAX_NODES):
            k = int(np.argmax(nodes > _MAX_NODES))
            best, bound = _left_to_right(kept, n_cases)
            pending = float(np.sum((hi - lo)[case == k]) * w.amp_scales[k])
            raise QuadratureError(
                f"node budget {_MAX_NODES} exhausted", best[k], bound[k] + pending
            )
        i24 = np.empty(lo.size, dtype=complex)
        i12 = np.empty(lo.size, dtype=complex)
        for s in range(0, lo.size, chunk):
            sl = slice(s, s + chunk)
            half = 0.5 * (hi[sl] - lo[sl])
            mid = 0.5 * (lo[sl] + hi[sl])
            t = (mid[:, None] + half[:, None] * xs).ravel()
            k = np.repeat(case[sl], xs.size)
            f = w.evaluator(t, k) * np.exp(1j * np.asarray(h.evaluator(t, k), dtype=float))
            f = f.reshape(-1, xs.size)
            i24[sl] = ((half[:, None] * w24) * f[:, :24]).sum(axis=1)
            i12[sl] = ((half[:, None] * w12) * f[:, 24:]).sum(axis=1)
        err = np.abs(i24 - i12)
        share = tol * np.maximum((hi - lo) / span[case], 1e-6)
        done = (err <= share) | ((hi - lo) < 1e-13 * span[case])
        kept.append((case[done], lo[done], i24[done], np.minimum(err, share)[done]))
        lo, hi, case = lo[~done], hi[~done], case[~done]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        case = np.concatenate([case, case])
    values, bounds = _left_to_right(kept, n_cases)
    return [
        ComplexEstimate(v, max(b, 1e-16 * abs(v)), "quadrature")
        for v, b in zip(values, bounds)
    ]


def _left_to_right(kept, n_cases: int) -> tuple[list[complex], list[float]]:
    """Each case's accepted panels summed left to right: values and
    error bounds."""
    case, lo, val, err = (np.concatenate(parts) for parts in zip(*kept))
    order = np.lexsort((lo, case))
    cuts = np.concatenate([[0], np.cumsum(np.bincount(case, minlength=n_cases))]).tolist()
    val, err = val[order].tolist(), err[order].tolist()
    values = [complex(sum(val[a:b])) for a, b in zip(cuts, cuts[1:])]
    bounds = [float(sum(err[a:b])) for a, b in zip(cuts, cuts[1:])]
    return values, bounds


# ----------------------------------------------------------------------
# stationary phase


class StationaryPointError(RuntimeError):
    pass


def _find_stationary_points(h: PhaseFamily, supports: np.ndarray) -> np.ndarray:
    """Each case's unique interior zero of h', in lockstep.

    One scan of 257 points per support brackets the sign change; every
    case then bisects and is Newton-polished by itself, as if alone, with
    one h' (and h'') call per step over the cases still running.
    """
    n_cases = len(supports)
    a, b = supports[:, 0], supports[:, 1]
    ts = np.linspace(a, b, 257, axis=1)
    cases = np.arange(n_cases)
    d = np.asarray(h.deriv(ts.ravel(), np.repeat(cases, 257)), dtype=float)
    sgn = np.sign(d).reshape(ts.shape)
    exact = sgn[:, 1:-1] == 0
    flips = sgn[:, :-1] * sgn[:, 1:] < 0
    found = exact.sum(axis=1) + flips.sum(axis=1)
    if np.any(found != 1):
        k = int(np.argmax(found != 1))
        raise StationaryPointError(
            f"case {k}: no interior sign change of h'; use nonstationary_decay_check"
            if found[k] == 0 else f"case {k}: multiple stationary points in support"
        )
    # an interior zero at i + 1 brackets [i, i + 2], a sign change at i [i, i + 1]
    zero = exact.any(axis=1)
    i = np.where(zero, np.argmax(exact, axis=1), np.argmax(flips, axis=1))
    lo, hi = ts[cases, i], ts[cases, i + 1 + zero]
    flo = np.asarray(h.deriv(lo, cases), dtype=float)
    run = cases
    for _ in range(80):
        mid = 0.5 * (lo[run] + hi[run])
        fm = np.asarray(h.deriv(mid, run), dtype=float)
        left = flo[run] * fm <= 0
        hi[run[left]] = mid[left]
        lo[run[~left]], flo[run[~left]] = mid[~left], fm[~left]
        lo_r, hi_r = lo[run], hi[run]
        run = run[~(hi_r - lo_r < 1e-15 * np.maximum(np.maximum(abs(lo_r), abs(hi_r)), 1.0))]
        if not run.size:
            break
    t0 = 0.5 * (lo + hi)
    run = cases
    for _ in range(4):  # Newton polish
        d1 = np.asarray(h.deriv(t0[run], run), dtype=float)
        d2 = np.asarray(h.deriv2(t0[run], run), dtype=float)
        step = d1 / np.where(d2 == 0, 1.0, d2)
        t0n = t0[run] - step
        moved = (d2 != 0) & (a[run] < t0n) & (t0n < b[run])
        run, step, t0n = run[moved], step[moved], t0n[moved]
        t0[run] = t0n
        run = run[~(abs(step) < 1e-14 * np.maximum(abs(t0n), 1.0))]
        if not run.size:
            break
    return t0


def stationary_phase_eval(w: WeightFamily, h: PhaseFamily) -> list[ComplexEstimate]:
    """Leading term of the stationary-phase expansion of integral w exp(i h)
    at each case's unique interior critical point t0:
    w(t0) sqrt(2 pi / |h''(t0)|) exp(i (h(t0) +- pi/4)).

    w and h are a WeightFamily and a PhaseFamily of B cases, giving a
    list of B ComplexEstimates; each case's critical point is found as
    if alone.  A case without a unique interior critical point, or with
    h''(t0) = 0, raises StationaryPointError naming its index.  The
    claimed error is heuristic: twice the leading term times the
    expansion's ratio 1 / max(V^2 |h''|, (|h''| Q^2)^(1/3), 1.0001) from
    the weight's and the phase's scales, plus 1e-9 of the front factor.
    """
    n_cases = len(w.supports)
    cases = np.arange(n_cases)
    t0 = _find_stationary_points(h, w.supports)
    h0s = np.asarray(h.evaluator(t0, cases), dtype=float).tolist()
    h2s = np.asarray(h.deriv2(t0, cases), dtype=float).tolist()
    ws = np.asarray(w.evaluator(t0, cases), dtype=float).tolist()
    out = []
    for k, (h0, h2, wv, V, Q) in enumerate(
        zip(h0s, h2s, ws, w.var_scales.tolist(), _per_case(h.Q, n_cases))
    ):
        if h2 == 0.0:
            raise StationaryPointError(f"case {k}: degenerate stationary point (h'' = 0)")
        sgn = 1.0 if h2 > 0 else -1.0
        rot = complex(math.cos(sgn * math.pi / 4), math.sin(sgn * math.pi / 4))
        front = math.sqrt(2 * math.pi) * rot * complex(math.cos(h0), math.sin(h0))
        front /= math.sqrt(abs(h2))
        value = front * wv
        ratio = 1.0 / max((V**2 * abs(h2)), (abs(h2) * Q**2) ** (1.0 / 3.0), 1.0001)
        err = 2 * abs(value) * ratio + abs(front) * 1e-9
        out.append(ComplexEstimate(value, float(err), "asymptotic"))
    return out


# ----------------------------------------------------------------------
# decay and bound checks


@dataclass
class DecayReport:
    """The decay ladder: per rung its scale s, |I| and bound value; per
    rung past the first one beyond the threshold, the observed ratio
    |I_s| / |I_s0| and the bound's ratio at those rungs, which the
    verdict compares (observed <= _DECAY_SLACK x bound, or |I_s| at the
    1e-15 floor)."""

    status: str  # PASS | FAIL | INCONCLUSIVE
    scales: list[float]
    magnitudes: list[float]
    bounds: list[float]
    observed_ratios: list[float]
    bound_ratios: list[float]
    threshold_scale: float | None
    note: str = ""


# the decay check's phase scales, the bound's decay exponent A, and the
# factor by which an observed drop may fall short of the bound's
_DECAY_LADDER = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_DECAY_A = 3.0
_DECAY_SLACK = 4.0


def nonstationary_decay_check(w: WeightFamily, h: PhaseFamily) -> list[DecayReport]:
    """Scale the phase by s along a geometric ladder and compare decay.

    With h_s = s h the first-derivative floor R and the size Y both
    scale by s, so the no-critical-point bound scales like
    (Q s R / sqrt(s Y))^-A + (s R V)^-A.  PASS requires the observed
    |I| to fall at least as fast (within a fixed slack) between
    consecutive rungs past the threshold R_s >= 10 max(sqrt(Y_s)/Q, 1/V).
    w and h are a WeightFamily and a PhaseFamily of B cases, giving one
    report per case; every case's rungs are one quadrature family.
    """
    n_cases = len(w.supports)
    if h.R is None or not np.all(np.asarray(h.R) > 0):
        raise ValueError("phase must carry a positive lower bound R on |h'|")
    scale = np.array(_DECAY_LADDER)
    rungs = len(scale)
    ws = WeightFamily(
        lambda t, k: w.evaluator(t, k // rungs),
        *(np.repeat(getattr(w, name), rungs, axis=0)
          for name in ("supports", "amp_scales", "var_scales")),
    )
    hs = PhaseFamily(*(
        lambda t, k, f=f: scale[k % rungs] * np.asarray(f(t, k // rungs), dtype=float)
        for f in (h.evaluator, h.deriv, h.deriv2)
    ))
    mags = [abs(v.value) for v in oscillatory_quadrature(ws, hs, tol=1e-12)]
    reports = []
    for k, (V, X, Y, Q, R) in enumerate(zip(
        w.var_scales.tolist(), w.amp_scales.tolist(),
        *(_per_case(v, n_cases) for v in (h.Y, h.Q, h.R)),
    )):
        m = mags[k * rungs : (k + 1) * rungs]
        bounds = [
            V * X * ((Q * s * R / math.sqrt(s * Y)) ** (-_DECAY_A) + (s * R * V) ** (-_DECAY_A))
            for s in _DECAY_LADDER
        ]
        threshold = 10.0 * max(math.sqrt(Y) / Q, 1.0 / V)
        past = [i for i, s in enumerate(_DECAY_LADDER) if s * R >= threshold]
        if len(past) < 2:
            reports.append(DecayReport(
                "INCONCLUSIVE", list(_DECAY_LADDER), m, bounds, [], [], None,
                note="fewer than two rungs past the decay threshold",
            ))
            continue
        i0 = past[0]
        obs = [m[i] / max(m[i0], 1e-300) for i in past[1:]]
        ratios = [bounds[i] / bounds[i0] for i in past[1:]]
        ok = all(
            m[i] <= 1e-15 * max(m) or o <= _DECAY_SLACK * r
            for i, o, r in zip(past[1:], obs, ratios)
        )
        reports.append(DecayReport(
            "PASS" if ok else "FAIL",
            list(_DECAY_LADDER), m, bounds, obs, ratios, _DECAY_LADDER[i0],
        ))
    return reports


@dataclass
class SecondDerivativeReport:
    status: str
    integral: complex
    bound: float
    r: float
    M: float


def second_derivative_bound_check(g, f):
    """Check |integral g e(f)| <= 8 M / sqrt(r) for f'' of constant sign.

    g and f are a WeightFamily and a PhaseFamily, giving one report per
    case from one quadrature family.  r = min |f''| and M = max |g| come
    from a scan of 1025 points per support.  Raises ValueError if f''
    changes sign on any case's support.  The integrand uses the
    e(x) = exp(2 pi i x) convention of the bound.

    Titchmarsh's Lemma 4.5 also asks g / f' to be monotone, which a
    compactly supported bump or plateau is not: g / f' rises and then
    falls.  So the check tests 8 M / sqrt(r) empirically, on weights
    outside that hypothesis.
    """
    n = 1025
    per_call = max(1, _CHUNK_NODES // n)
    scans = []  # r, M per case
    for s in range(0, len(g.supports), per_call):
        part = g.supports[s : s + per_call]
        ts = np.linspace(part[:, 0] + 1e-9, part[:, 1] - 1e-9, n, axis=1).ravel()
        k = np.repeat(np.arange(s, s + len(part)), n)
        f2 = np.asarray(f.deriv2(ts, k), dtype=float).reshape(-1, n)
        if not np.all(np.all(f2 > 0, axis=1) | np.all(f2 < 0, axis=1)):
            raise ValueError("f'' changes sign on the support")
        gv = np.asarray(g.evaluator(ts, k), dtype=float).reshape(-1, n)
        scans += zip(np.min(np.abs(f2), axis=1).tolist(), np.max(np.abs(gv), axis=1).tolist())
    phase = PhaseFamily(*(
        lambda t, k, d=d: 2 * math.pi * np.asarray(d(t, k), dtype=float)
        for d in (f.evaluator, f.deriv, f.deriv2)
    ))
    out = []
    for val, (r, M) in zip(oscillatory_quadrature(g, phase, tol=1e-11), scans):
        bound = 8.0 * M / math.sqrt(r)
        out.append(SecondDerivativeReport(
            status="PASS" if abs(val.value) <= bound else "FAIL",
            integral=val.value, bound=bound, r=r, M=M,
        ))
    return out


# ----------------------------------------------------------------------
# Bessel-weighted sum over the odd weight grid

_PHI_HAT_STEP = 0.02
# the phi_hat table's range, past which phi_hat is taken as zero; it is not
# negligible there (30-digit quadrature): phi_hat(368) = -1.649e-10, and
# phi_hat(480) = -3.65e-12
_PHI_HAT_MAX = 368.0
_PHI_HAT_ROWS = 128  # grid rows per block of the phi_hat table
_IMAGE_STEP = 0.0025  # knot step of the k-sum kernel's folded image table
_KERNEL_PANELS = 2_000_000  # the k-sum kernel's panel budget on [0, 1/2]
_KERNEL_CHUNK = 1024  # kernel panels per pass, keeping the node arrays in cache
_IMAGE_ROWS = 4096  # image table rows gathered at a time


def _hermite(f: np.ndarray, d: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """Cubic Hermite pieces from values f and slopes d on knots of step h:
    piece i is c0 + c1 t + c2 t^2 + c3 t^3 in t = xi - i h."""
    slope = np.diff(f, axis=-1) / h
    c2 = (3.0 * slope - 2.0 * d[..., :-1] - d[..., 1:]) / h
    c3 = (d[..., :-1] + d[..., 1:] - 2.0 * slope) / (h * h)
    return f[..., :-1], d[..., :-1], c2, c3


@cache
def _phi_hat_table() -> tuple[np.ndarray, ...]:
    """Cubic Hermite table of phi_hat(xi) = int_{-1}^{1} exp(1 - 1/(1-s^2))
    e^{i xi s} ds on the grid of step _PHI_HAT_STEP from 0.

    phi is even, so phi_hat is real and even, and its derivative is
    -int s phi(s) sin(xi s) ds; both come from one GL-560 rule, which must
    resolve the full 2*xi radians of phase at the top of the grid, folded
    onto its positive nodes.  Grid point i = b R + r (R = _PHI_HAT_ROWS)
    is split into a block offset b R h and a row offset r h, so cos and
    sin of i h s follow by angle addition from those of r h s and of
    b R h s, and the table is four (R x 280) @ (280 x blocks) products.
    Each angle k h s is formed exactly, as k times h s in double-double,
    and its cosine and sine are corrected to first order in the low part,
    so the table is the GL-560 rule evaluated to within rounding.  The
    nodes run from s = 1 down, smallest terms first, which keeps the
    sums' rounding off phi_hat(0).  The four coefficient arrays of the
    pieces (see `_hermite`) are returned separately, each contiguous.
    """
    h, rows = _PHI_HAT_STEP, _PHI_HAT_ROWS
    n = math.ceil((_PHI_HAT_MAX + 1.0) / h)
    xs, ws = _gl(560)
    s, ws = xs[xs > 0][::-1], 2.0 * ws[xs > 0][::-1]  # each s > 0 stands for +-s
    phi_w = (_canonical_bump(s) * ws)[:, None]
    slope_w = -s[:, None] * phi_w
    hs, hs_lo = _two_product(h, s)

    def cos_sin(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of k h s, one row per integer k."""
        a, e = _two_product(k[:, None], hs)
        e += k[:, None] * hs_lo
        c, sn = np.cos(a), np.sin(a)
        return c - sn * e, sn + c * e

    c_row, s_row = cos_sin(np.arange(rows, dtype=float))
    c_blk, s_blk = cos_sin(rows * np.arange(-(-n // rows), dtype=float))
    c_blk, s_blk = c_blk.T, s_blk.T
    f = c_row @ (phi_w * c_blk) - s_row @ (phi_w * s_blk)
    d = s_row @ (slope_w * c_blk) + c_row @ (slope_w * s_blk)
    # column b holds grid points b R .. b R + R - 1
    return _hermite(f.T.ravel()[:n], d.T.ravel()[:n], h)


def _phi_hat_pieces(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi_hat and its slope at xi >= 0 from the table's cubic pieces,
    with no cut."""
    c0, c1, c2, c3 = _phi_hat_table()
    i = np.minimum(xi * (1.0 / _PHI_HAT_STEP), len(c0) - 1).astype(np.intp)
    d = xi - i * _PHI_HAT_STEP
    a1, a2, a3 = c1.take(i), c2.take(i), c3.take(i)
    # Horner's rule
    return ((a3 * d + a2) * d + a1) * d + c0.take(i), (3.0 * a3 * d + 2.0 * a2) * d + a1


def _phi_hat(xi: np.ndarray) -> np.ndarray:
    """phi_hat at |xi|, zero past the certified range."""
    xi = np.abs(np.asarray(xi, dtype=float))
    out = _phi_hat_pieces(xi)[0]
    out[xi > _PHI_HAT_MAX] = 0.0
    return out


@lru_cache(maxsize=4)
def _image_table(K: int) -> tuple[np.ndarray, float, int]:
    """The k-sum kernel's image sums at weight scale K, folded onto
    xi = pi K u in [0, pi K / 2].

    Image j adds phi_hat(xi + pi K j / 2) to the cosine part P_c or the
    sine part P_s of the kernel, with the sign of i^(3 K j), up to the
    phi_hat cut; for even K that sign is real, P_s is zero and only P_c
    is kept.  Only the last image reaches the cut, at xi = cut, the
    least float with cut + pi K (images - 1) / 2 > _PHI_HAT_MAX, so the
    test xi >= cut at a node is the cut of the per-image sum exactly.
    The parts are cubic Hermite tables of step _IMAGE_STEP from the
    values and slopes of phi_hat's own pieces; the piece holding the cut
    is tabulated twice, with the last image and without it.  Returns the
    rows (n, 4 p) for p parts, holding c3, c2, c1 and c0 of each part in
    turn, in t = xi - i _IMAGE_STEP; the cut; and the last uniform piece
    index.  Row i is piece i below the cut and row i + 1 is piece i
    from it on.  Past the cut with one image the parts vanish, so the
    table stops at the cut's piece and a zero row.
    """
    h = _IMAGE_STEP
    images = math.ceil(2 * _PHI_HAT_MAX / (math.pi * K))
    shifts = [0.5 * math.pi * K * j for j in range(images)]
    last = shifts[-1]
    cut = _PHI_HAT_MAX - last
    while cut + last > _PHI_HAT_MAX:
        cut = math.nextafter(cut, -math.inf)
    while not cut + last > _PHI_HAT_MAX:
        cut = math.nextafter(cut, math.inf)
    split = int(cut * (1.0 / h))
    pieces = math.ceil(0.5 * math.pi * K / h) if images > 1 else split + 1
    knots = np.arange(pieces + 1) * h

    def add(parts: np.ndarray, j: int) -> None:
        # e^(3 pi i K j / 2) = i^(3 K j): turn 0..3 adds to +P_c, +P_s, -P_c, -P_s
        turn = 3 * K * j % 4
        value_slope = np.stack(_phi_hat_pieces(knots[: parts.shape[-1]] + shifts[j]))
        parts[turn % 2] += value_slope if turn < 2 else -value_slope

    n = 1 + K % 2  # (P_c) or (P_c, P_s)
    parts = np.zeros((n, 2, pieces + 1))  # part x (value, slope) at the knots
    for j in range(images - 1):
        add(parts, j)
    with_last = parts[:, :, : split + 2].copy()
    add(with_last, images - 1)
    table = np.empty((pieces + 1, 4 * n))
    for rows, f, first in ((table[: split + 1], with_last, 0), (table[split + 1 :], parts, split)):
        for col, c in zip((3 * n, 2 * n, n, 0), _hermite(f[:, 0], f[:, 1], h)):
            rows[:, col : col + n] = c[:, first:].T
    return table, cut, pieces - 1


def _image_sums(K: int, xi: np.ndarray) -> np.ndarray:
    """(P_c,) for even K, else (P_c, P_s), of `_image_table(K)` at the
    nodes xi in [0, pi K / 2]: one table row per node, gathered
    _IMAGE_ROWS at a time, and Horner's rule on each part."""
    table, cut, last = _image_table(K)
    n = table.shape[1] // 4
    out = np.empty((n, xi.size))
    for s in range(0, xi.size, _IMAGE_ROWS):
        x, p = xi[s : s + _IMAGE_ROWS], out[:, s : s + _IMAGE_ROWS]
        i = np.minimum((x * (1.0 / _IMAGE_STEP)).astype(np.intp), last)
        t = x - i * _IMAGE_STEP
        c = table.take(i + (x >= cut), axis=0).T  # c3, c2, c1, c0 of each part
        np.multiply(c[:n], t, out=p)
        for k in (n, 2 * n):
            p += c[k : k + n]
            p *= t
        p += c[3 * n :]
    return out


def bessel_weighted_k_sum(K, x, mode: str) -> list[ComplexEstimate]:
    """S1 = sum over odd weights k of i^(-k) W((k-1)/K) J_{k-1}(2 pi x).

    K and x broadcast together, and one estimate comes back per (K, x)
    pair, in C order; scalars give a list of one.  The sum runs over the
    odd weight grid (the parity attached to odd nebentypus in the trace
    formula), with W the canonical bump on [1, 2].  Modes:

    direct      brute-force sum of Bessel values: the pairs at one x
                share one `bessel_j_orders` call (one Miller pass) over
                the union of their orders, and each sum adds its own
                terms in weight order; the method names the Bessel
                routes that ran, sorted and joined by "+";
    kernel      the sum-over-orders identity, pair by pair: combining
                the mod-4 kernels over the even order classes collapses
                to -i int_R K What(K v) cos(2 pi x cos 2 pi v) dv,
                with What(K v) = e^(3 pi i K v) phi_hat(pi K v) / 2.
                The integrand is even in v and G(v) = cos(2 pi x cos
                2 pi v) has period 1/2, so the integral folds onto one
                half-period: -i K int_0^(1/2) G(u) sum_j cos(3 pi K
                (u + j/2)) phi_hat(pi K (u + j/2)) du, over the images
                j up to the phi_hat cut.  For integer K, cos(3 pi K j/2)
                and sin(3 pi K j/2) are 0 or +-1, so the images add up
                to a cosine part P_c and a sine part P_s of xi = pi K u
                (P_s = 0 for even K), tabulated once per K
                (`_image_table`), and each GL-24 node of [0, 1/2] costs
                one G, one cosine (and for odd K one sine) of 3 xi and
                one table row; no Bessel value enters.
                A pair needing more than _KERNEL_PANELS panels raises
                ValueError before any node of any pair is built;
    asymptotic  leading stationary term with the u-integral folded in,
                pair by pair: -i K w0 cos(2 pi x - pi/4) / (2 pi
                sqrt(x)), w0 = int W.
    """
    pairs = list(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(K, x))))
    if min(K for K, _ in pairs) < 8:
        raise ValueError("need K >= 8")
    if min(x for _, x in pairs) <= 0:
        raise ValueError("need x > 0")
    if mode == "direct":
        terms, orders = {}, {}  # per K, its (k, W) with W((k - 1)/K) != 0; per x, its orders
        for K, x in pairs:
            if K not in terms:
                ks = range((K + 1) | 1, 2 * K + 2, 2)
                ws = [float(_canonical_bump(np.array([2.0 * ((k - 1) / K) - 3.0]))[0]) for k in ks]
                terms[K] = [(k, w) for k, w in zip(ks, ws) if w != 0.0]
            orders.setdefault(x, set()).update(k - 1 for k, _ in terms[K])
        jvs = {x: dict(zip(sorted(o), bessel_j_orders(sorted(o), 2 * math.pi * x)))
               for x, o in orders.items()}
        out = []
        for K, x in pairs:
            total, err = 0j, 0.0
            for k, wv in terms[K]:
                jv = jvs[x][k - 1]
                total += (1j) ** (-k % 4) * wv * jv.value
                err += wv * jv.abs_error
            routes = sorted({jvs[x][k - 1].method for k, _ in terms[K]})
            out.append(ComplexEstimate(total, err + 1e-15, "+".join(routes)))
        return out
    if mode == "kernel":
        # weight factor oscillates at ~4 pi K, the kernel at <= 2 pi (2 pi x)
        panels = [int((2 * math.pi * (2 * math.pi * x) + 4 * math.pi * K) / 22.0)
                  for K, x in pairs]
        for (K, x), n in zip(pairs, panels):
            if n > _KERNEL_PANELS:
                raise ValueError(
                    f"kernel quadrature at K = {K}, x = {x:g} needs {n} panels "
                    f"on [0, 1/2], over the budget of {_KERNEL_PANELS}"
                )
        out = []
        for (K, x), n in zip(pairs, panels):
            edges = np.linspace(0.0, 0.5, n + 1)
            total = 0.0
            for i0 in range(0, n, _KERNEL_CHUNK):
                u, wt = panel_rule(edges[i0 : i0 + _KERNEL_CHUNK + 1], 24)
                parts = _image_sums(K, math.pi * K * u)
                theta = 3 * math.pi * K * u
                f = np.cos(theta) * parts[0]
                if len(parts) == 2:
                    f -= np.sin(theta) * parts[1]
                f *= np.cos(2 * math.pi * x * np.cos(2 * math.pi * u))
                total += float(f @ wt)
            value = -1j * K * total
            out.append(ComplexEstimate(value, 2e-9 + abs(value) * 1e-10, "quadrature"))
        return out
    if mode == "asymptotic":
        xs, ws = _gl(64)
        w0 = float(np.dot(_canonical_bump(xs), ws)) * 0.5
        out = []
        for K, x in pairs:
            scale = 2 * math.pi * math.sqrt(x)
            lead = -1j * K * w0 * math.cos(2 * math.pi * x - math.pi / 4) / scale
            err = abs(K * w0 / scale) * min(1.0, 2.0 * K * K / x)
            out.append(ComplexEstimate(lead, err, "asymptotic"))
        return out
    raise ValueError(f"unknown mode {mode!r}")


# sum_over_orders_check's orders and the half-width of its kernel side
_ORDERS = (-80, 120)
_ORDERS_V_MAX = 12.0


def sum_over_orders_check(
    a: int,
    y: float,
    g: Callable[[np.ndarray], np.ndarray],
    g_hat: Callable[[np.ndarray], np.ndarray],
) -> tuple[complex, complex]:
    """Both sides of 4 sum_{u = a mod 4} g(u) J_u(y) = int ghat(v) C_a(v, y) dv.

    Odd residue class a; the kernel argument matches the Bessel argument
    y on both sides.  The orders run over `_ORDERS` and the kernel side
    over |v| <= `_ORDERS_V_MAX`.  Returns (direct, kernel) for the caller
    to compare.
    """
    if a % 2 == 0:
        raise ValueError("this check covers odd residue classes")
    terms = []
    for u in range(_ORDERS[0], _ORDERS[1] + 1):
        if u % 4 != a % 4:
            continue
        gu = float(g(np.array([float(u)]))[0])
        if gu != 0.0:
            terms.append((u, gu))
    jvs = bessel_j_orders([abs(u) for u, _ in terms], y)
    direct = 0.0 + 0j
    for (u, gu), jv in zip(terms, jvs):
        # J_(-u) = (-1)^u J_u
        ju = -jv.value if u < 0 and u % 2 else jv.value
        direct += 4.0 * gu * ju
    rate = 2 * math.pi * y + 1.0
    panels = int(min(max(rate * 2 * _ORDERS_V_MAX / 10.0, 64), 400_000))
    v, wt = panel_rule(np.linspace(-_ORDERS_V_MAX, _ORDERS_V_MAX, panels + 1), 24)
    ca = bessel_kernel_ca(a, v, y)
    return direct, complex(wt @ (np.asarray(g_hat(v), dtype=complex) * ca))
