"""Numerical reenactment of the dual off-diagonal transformation chain.

The chain is: Poisson summation turning the coefficient-side sum S5
into a short dual sum of oscillatory integrals I(m, n, c) against a
complete character sum; the 1/sqrt(t) bound for I; the doubly-nested
J(m) integrals whose size drops from 1/t at m = 0 to 1/(t K) off the
diagonal and collapses past m ~ N/K^2; and the assembly of the dual
off-diagonal second moment from J values and a congruence indicator.

Everything is measured against brute-force or quadrature ground truth;
scaling claims are fitted, never assumed.

W lives on [1, 2], so I(x^2, n, c) is e^(i omega0 x) times a function
band-limited in x = sqrt(m).  The J integrals and the assembly read their
profiles over the outer grid from a Chebyshev interpolant in x, fitted
once per (n, c) by the dense I kernel `i_integral_batch`, which is also
the test oracle.  The S5 dual side reads its whole window of n from one
node grid per (m, c), folded onto one period c/N of the e(-N v / c)
factor: the rest of the integrand, summed over the periods, is one
smooth function on that period, read at the period's nodes from a
Chebyshev interpolant, and only one period's nodes (and the leftover
piece's) step the phase from n to n + 1.  The dual terms are assembled
as one array pass over the window.  The S5 direct side reads S(n, m; c)
from one Kloosterman sum per residue class n mod c and forms its phases
in long double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import inv_mod
from .expsums import charsum_congruence, kloosterman_reals, units_and_inverses
from .oscint import _canonical_bump, _two_product, panel_rule, plateau_weight
from .special import chebyshev_fit

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
# 2 pi in long double (only double where long double is)
TWO_PI_LD = 8 * np.arctan(np.longdouble(1))
# The fold's degree above its phase's, per unit sqrt(c/N).  Period 0's
# bump is e exp(-1/(4w)) to leading order at w = v - 1 <= c/N (the last
# period's mirrors it at v = 2): flat to all orders at w = 0, so not
# analytic there, and by a saddle-point estimate its Chebyshev
# coefficients on [0, c/N] fall like exp(-3 (b k^2 / 4)^(1/3)),
# b = N / (4c), past 2^-52 near k = 83 / sqrt(b).  Measured, the edge
# period alone needs degree 13, 19, 23, 28 and 37 at c/N = 1/120, 1/80,
# 1/60, 13/600 and 1/30; 200 sqrt(c/N) = 100 / sqrt(b) covers each (26
# at criterion 7's widest period, 1/60).  The phase's degree adds to
# it, since the fold is the edge times the phase
_FOLD_EDGE_RATE = 200.0


@dataclass(frozen=True)
class PipelineParams:
    """Scales of the transformation chain.

    The dual length is always recomputed as Q^2 K^4 / N; it is a
    property, not a field, so inconsistent inputs cannot be expressed.
    """

    N: float
    t: float
    K: float
    Q: float

    def __post_init__(self):
        if min(self.N, self.t, self.K, self.Q) <= 0:
            raise ValueError("all parameters must be positive")
        if self.K > math.sqrt(self.t) + 1e-12:
            raise ValueError("need K <= sqrt(t)")

    @property
    def N_dual(self) -> float:
        return self.Q**2 * self.K**4 / self.N


def _panel_density(m_max: float, n: int, c: int, p: PipelineParams) -> int:
    """Panels per unit v resolving the worst-case phase of the I-integrand
    over first arguments up to m_max and second arguments up to |n|: 20
    Gauss-Legendre nodes per 13 rad of phase."""
    rate = (
        p.t
        + (TWO_PI / c) * (0.5 * math.sqrt(max(m_max, 1.0) * p.N))
        + (TWO_PI / c) * abs(n) * p.N
    )
    return int(min(max(rate / 13.0, 24), 600_000))


def _inner_nodes(m_max: float, n: int, c: int, p: PipelineParams):
    """Fixed Gauss-Legendre grid on [1, 2] at `_panel_density` panels."""
    return panel_rule(np.linspace(1.0, 2.0, _panel_density(m_max, n, c, p) + 1), 20)


def i_integral_batch(
    ms: np.ndarray, n: int, c: int, p: PipelineParams
) -> np.ndarray:
    """I(m, n, c) = int v^{it} W(v) e((sqrt(m N v) - n N v)/c) dv for an
    array of (continuous) first arguments m >= 0."""
    ms = np.asarray(ms, dtype=float)
    if np.any(ms < 0):
        raise ValueError("first argument must be nonnegative")
    v, wt = _inner_nodes(float(ms.max(initial=0.0)), n, c, p)
    w_v = _canonical_bump(2.0 * v - 3.0)
    base_phase = p.t * np.log(v) - (TWO_PI / c) * n * p.N * v
    base = wt * w_v * np.exp(1j * base_phase)
    sq = (TWO_PI / c) * math.sqrt(p.N) * np.sqrt(v)
    out = np.empty(len(ms), dtype=complex)
    block = max(1, int(4_000_000 // max(len(v), 1)))
    for i in range(0, len(ms), block):
        root_m = np.sqrt(ms[i : i + block])
        phases = np.exp(1j * np.outer(root_m, sq))
        out[i : i + block] = phases @ base
    return out


def _i_profile(ms: np.ndarray, n: int, c: int, p: PipelineParams) -> np.ndarray:
    """I(m, n, c) on an array of first arguments, read from one Chebyshev
    interpolant in x = sqrt(m).

    W lives on [1, 2], so x -> I(x^2, n, c) superposes e^(i omega x) over
    omega = (2 pi / c) sqrt(N v), v in [1, 2]: demodulated by the centre
    frequency omega0 it is band-limited to |omega - omega0| <= beta.  The
    demodulated profile is fitted on the x-range by the dense
    `i_integral_batch`, as one band of unit amplitude and frequency beta.
    """
    x = np.sqrt(np.asarray(ms, dtype=float))
    root_n = (TWO_PI / c) * math.sqrt(p.N)
    omega0 = root_n * (1.0 + SQRT2) / 2.0
    beta = root_n * (SQRT2 - 1.0) / 2.0
    fit = chebyshev_fit(
        lambda xs: np.exp(-1j * omega0 * xs) * i_integral_batch(xs * xs, n, c, p),
        float(x.min()), float(x.max()), beta,
    )
    return np.exp(1j * omega0 * x) * fit(x)


def _window_nodes(m: float, n: int, c: int, p: PipelineParams):
    """Gauss-Legendre grid on [1, 2] cut at the periods c/N of z(v) = e(-N v/c).

    Returns (rows, wt, tail, tail_wt).  rows[k] holds period k's nodes,
    rows[0] + k c/N, for the floor(N/c) whole periods from v = 1; the
    weights wt are shared by every row.  tail and tail_wt are the nodes and
    weights of the leftover piece [1 + floor(N/c) c/N, 2], which is all
    of [1, 2] when N < c.  Both pieces take the panels of `_panel_density`
    rounded up to a whole number per piece, so no panel is wider than
    the `_inner_nodes` grid's, and the grid's outer edges are exactly 1
    and 2.
    """
    density = _panel_density(m, n, c, p)
    period = c / p.N
    periods = math.floor(p.N / c)
    rows = np.empty((0, 0))
    wt = np.empty(0)
    if periods:
        per_period = math.ceil(density * period)
        u, wt = panel_rule(np.linspace(1.0, 1.0 + period, per_period + 1), 20)
        rows = u + period * np.arange(periods)[:, None]
    rest = p.N - periods * c  # what is left of [1, 2], in units of 1/N
    start = 1.0 + periods * period
    tail_panels = math.ceil(density * rest / p.N) if rest > 0 else 0
    tail, tail_wt = panel_rule(np.linspace(start, 2.0, tail_panels + 1), 20)
    return rows, wt, tail, tail_wt


def i_integral_window(
    m: float, n_lo: int, n_hi: int, c: int, p: PipelineParams
) -> np.ndarray:
    """I(m, n, c) for every integer n in [n_lo, n_hi], from one node grid.

    For fixed (m, c) the integrand is h(v) z(v)^n with h(v) = v^{it} W(v)
    e(sqrt(m N v)/c) and z(v) = e(-N v/c).  z has period c/N, so on the
    `_window_nodes` grid the whole periods fold onto the first: the fold
    H(u) = sum_k h(u + k c/N) is one smooth function on [1, 1 + c/N].
    `chebyshev_fit` samples it at d + 1 first-kind Chebyshev points,
    periods (d + 1) evaluations of h, and reads it at period 0's nodes;
    d is `chebyshev_degree` of the phase's half-width, whose rate is at
    most t + sqrt(m N) pi / c on [1, 2], plus `_FOLD_EDGE_RATE` sqrt(c/N)
    for the bump's flat edges.  The leftover piece's nodes take h
    directly, and with N < c (no whole period) they are the whole grid.
    Only period 0's nodes and the leftover piece's are stepped from n to
    n + 1, one complex product per node and n.  The step's N v / c
    cycles are reduced mod 1 with no rounding loss (N v = nv + nv_err
    exactly by Dekker's two-product, and nv mod c is exact), so after n
    steps the phase is off by about n ulps of a cycle, far under the
    n (2 pi N v / c) 2^-53 rad at which the dense kernel's argument
    rounds.  No re-seeding is needed.
    """
    if m < 0:
        raise ValueError("first argument must be nonnegative")
    rows, wt, tail, tail_wt = _window_nodes(
        float(m), max(abs(n_lo), abs(n_hi)), c, p
    )
    root_m = (TWO_PI / c) * math.sqrt(m * p.N)

    def h(v):
        return _canonical_bump(2.0 * v - 3.0) * np.exp(
            1j * (p.t * np.log(v) + root_m * np.sqrt(v))
        )

    folded = np.empty(0, dtype=complex)
    if len(rows):
        period = c / p.N
        shifts = period * np.arange(len(rows))[:, None]
        fold = chebyshev_fit(
            lambda u: h(u + shifts).sum(axis=0), 1.0, 1.0 + period,
            p.t + 0.5 * root_m, math.ceil(_FOLD_EDGE_RATE * math.sqrt(period)),
        )
        folded = fold(rows[0])
    # period-0 nodes carry the folded h; the leftover nodes their own
    v = np.concatenate([rows[:1].ravel(), tail])
    acc = np.concatenate([wt * folded, tail_wt * h(tail)])
    nv, nv_err = _two_product(p.N, v)
    cycles = ((nv - c * np.floor(nv / c)) + nv_err) / c
    acc *= np.exp(-1j * TWO_PI * n_lo * cycles)
    step = np.exp(-1j * TWO_PI * cycles)
    out = np.empty(n_hi - n_lo + 1, dtype=complex)
    for k in range(len(out)):
        out[k] = acc.sum()
        acc *= step
    return out


@dataclass(frozen=True)
class S5Report:
    m: int
    c: int
    direct: complex
    dual: complex
    abs_diff: float
    rel_diff: float
    trivial_bound: float
    n_window: tuple[int, int]
    nonpositive_mass: float
    tail_mass: float
    tail_cutoff: int
    status: str


# the two sides of the S5 Poisson identity agree to this fraction of
# max(|direct|, 1e-3 trivial bound)
S5_TOL = 1e-6


def poisson_check_s5(m: int, c: int, p: PipelineParams) -> S5Report:
    """Both sides of the Poisson identity for S5.

    direct: sum over n in [N, 2N] of n^{it} e(sqrt(nm)/c) S(n, m; c)
    W(n/N).  Its phases t log n + 2 pi sqrt(nm) / c are formed and
    reduced mod 2 pi in `np.longdouble` before they round to double;
    where long double is only double, the same code runs at the accuracy
    of double phases.  dual: N^{1+it} sum over gcd(n, c) = 1 of
    e(-m nbar / c) I(m, n, c), with the n-window extended well past the
    nominal c t / N cutoff and through zero into negative frequencies
    whose mass is reported.  The identity is exact; PASS demands
    agreement at S5_TOL times max(|direct|, 1e-3 trivial bound), the floor
    covering regimes where S5 itself cancels to exponentially small size.
    """
    if c > 50 or p.N > 1e5 or p.t > 2000:
        raise ValueError("desk-scale limits: c <= 50, N <= 1e5, t <= 2000")
    N = p.N
    ns = np.arange(int(math.floor(N)), int(math.ceil(2 * N)) + 1)
    bump = _canonical_bump(2.0 * ns / N - 3.0)
    keep = bump != 0.0
    ns, bump = ns[keep], bump[keep]
    # S(n, m; c) depends on n mod c alone
    s = kloosterman_reals(np.arange(c), m, c)[ns % c]
    n_ld = ns.astype(np.longdouble)
    phase = p.t * np.log(n_ld) + TWO_PI_LD * np.sqrt(n_ld * m) / c
    terms = bump * s * np.exp(1j * (phase % TWO_PI_LD).astype(float))
    direct = complex(math.fsum(terms.real), math.fsum(terms.imag))
    # a running total in n order, as a per-n loop would sum it
    trivial = float(np.cumsum(bump * np.abs(s))[-1]) if ns.size else 0.0

    cutoff = int(math.ceil(8.0 * c * max(p.t, 1.0) / N))
    n_win_hi = cutoff + max(6, cutoff)
    n_win_lo = -max(6, cutoff // 2)
    ivals = i_integral_window(m, n_win_lo, n_win_hi, c, p)
    prefac = N * np.exp(1j * p.t * math.log(N))
    # nbar by n mod c; -1 marks the non-units
    units, inverses = units_and_inverses(c)
    nbar_of = np.full(c, -1)
    nbar_of[units] = inverses
    window = np.arange(n_win_lo, n_win_hi + 1)
    nbar = nbar_of[window % c]
    unit = nbar >= 0
    window = window[unit]
    dual_terms = np.exp(-2j * math.pi * ((m % c) * nbar[unit] % c) / c) * ivals[unit]
    total = complex(math.fsum(dual_terms.real), math.fsum(dual_terms.imag))
    mass = np.abs(dual_terms)
    nonpos = math.fsum(mass[window <= 0])
    tail = math.fsum(mass[window > cutoff])
    dual = complex(prefac * total)
    diff = abs(direct - dual)
    rel = diff / max(abs(direct), 1e-300)
    scale = max(abs(direct), 1e-3 * trivial)
    return S5Report(
        m=m, c=c, direct=direct, dual=dual,
        abs_diff=diff, rel_diff=rel,
        trivial_bound=trivial,
        n_window=(n_win_lo, n_win_hi),
        nonpositive_mass=abs(prefac) * nonpos,
        tail_mass=abs(prefac) * tail,
        tail_cutoff=cutoff,
        status="PASS" if diff <= S5_TOL * scale else "FAIL",
    )


def _outer_nodes(m_max: float, n1: int, c1: int, n2: int, c2: int,
                 p: PipelineParams):
    """Fixed Gauss-Legendre grid on [0.5, 3] resolving the phase of the
    J-integrand up to frequency m_max: 16 nodes per 10 rad of phase."""
    rate = TWO_PI * abs(m_max) + TWO_PI * math.sqrt(p.N * p.N_dual) * math.sqrt(
        2.0 / 0.5
    ) * (1.0 / c1 + 1.0 / c2)
    panels = int(min(max(rate * 2.5 / 10.0, 32), 400_000))
    return panel_rule(np.linspace(0.5, 3.0, panels + 1), 16)


def j_integral_batch(
    ms: np.ndarray,
    n1: int,
    c1: int,
    n2: int,
    c2: int,
    p: PipelineParams,
) -> np.ndarray:
    """J(m) = int I(v Ntil, n1, c1) conj(I(v Ntil, n2, c2)) U(v) e(-m v) dv
    for an array of integer frequencies m, sharing one profile pass.

    The conjugate on the second factor realizes the opened absolute
    square this integral comes from (its expanded form carries
    (y1/y2)^{it} and opposite-sign phases).
    """
    ms = np.asarray(ms, dtype=float)
    v, wt = _outer_nodes(float(np.max(np.abs(ms), initial=0.0)), n1, c1, n2, c2, p)
    u_plateau = plateau_weight(0.5, 1.0, 2.0, 3.0)
    prof1 = _i_profile(v * p.N_dual, n1, c1, p)
    prof2 = prof1 if (n1, c1) == (n2, c2) else _i_profile(v * p.N_dual, n2, c2, p)
    core = wt * prof1 * np.conj(prof2) * u_plateau(v)
    out = np.empty(len(ms), dtype=complex)
    block = max(1, int(4_000_000 // max(len(v), 1)))
    for i in range(0, len(ms), block):
        phases = np.exp(-2j * math.pi * np.outer(ms[i : i + block], v))
        out[i : i + block] = phases @ core
    return out


@dataclass(frozen=True)
class JDecayReport:
    j0: float
    a0: float
    worst_a1: float
    decay_threshold: int
    decay_ratio: float
    octave_trend_ok: bool
    status: str


def j_decay_report(p: PipelineParams, n: int, c: int) -> JDecayReport:
    """Fit |J(0)| t and |J(m)| t K constants, the latter over
    m = 1, 2, 4, 8, and measure the collapse past m = 16 N / K^2, all on
    one (n, c; n, c) profile family."""
    fit_ms = (1, 2, 4, 8)
    m_big = int(16 * p.N / p.K**2)
    octaves = []
    mm = max(2 * int(p.N / p.K**2), 4)
    while mm <= m_big:
        octaves.append(mm)
        mm *= 2
    ms = np.array([0, *fit_ms, *octaves, m_big], dtype=float)
    vals = j_integral_batch(ms, n, c, n, c, p)
    j0 = abs(vals[0])
    a0 = j0 * p.t
    worst_a1 = max(
        abs(v) * p.t * p.K for v in vals[1 : 1 + len(fit_ms)]
    )
    jbig = abs(vals[-1])
    oct_vals = [abs(v) for v in vals[1 + len(fit_ms) : -1]]
    floor = 1e-10 * max(j0, 1e-300)
    trend_ok = all(
        oct_vals[i + 1] <= 2.0 * oct_vals[i] or oct_vals[i + 1] <= floor
        for i in range(len(oct_vals) - 1)
    )
    ratio = jbig / max(j0, 1e-300)
    ok = a0 <= 100.0 and worst_a1 <= 100.0 and ratio <= 1e-6
    return JDecayReport(
        j0=j0,
        a0=a0,
        worst_a1=worst_a1,
        decay_threshold=m_big,
        decay_ratio=ratio,
        octave_trend_ok=trend_ok,
        status="PASS" if ok else "FAIL",
    )


@dataclass(frozen=True)
class AssemblyReport:
    diagonal: float
    offdiagonal: float
    diag_constant: float
    offdiag_constant: float
    offdiag_constant_alt: float
    hits: int
    expected_hits: float
    sparsity_ratio: float
    status: str


def stationary_dual_index(p: PipelineParams, c: int) -> int:
    """Dual index n whose I(v Ntil, n, c) profile carries the critical
    point inside the weight support (the coarse dyadic bookkeeping c t / N
    drops the 2 pi and the sqrt term)."""
    y = 1.4
    n_star = c * p.t / (TWO_PI * y * p.N) + 0.5 * math.sqrt(
        1.5 * p.N_dual / (y * p.N)
    )
    return max(1, round(n_star))


# the assembly's dual indices per modulus: the stationary index +- this
_N_HALF_WIDTH = 2
# the assembly's frequencies m: -_M_WINDOW .. _M_WINDOW
_M_WINDOW = 60


def offdiagonal_assembly(
    p: PipelineParams, c_values: tuple[int, ...]
) -> AssemblyReport:
    """Assemble the dual off-diagonal second moment from measured J
    values and the congruence indicator, split diagonal from
    off-diagonal, and compare both against their predicted scales.

    The off-diagonal constant is fitted with the written double
    1/(c1 c2) chain (offdiag_constant); the alternative single-factor
    reading is reported alongside (offdiag_constant_alt).  Profiles
    I(v Ntil, n, c) are shared across every pair they appear in.  The
    expected-hit density 1/(c1 c2) is a statement about generic tuples,
    so structurally forced diagonal hits are counted separately.
    """
    if len(c_values) < 2:
        raise ValueError("need at least a 2 x 2 grid of moduli")
    ntil = p.N_dual

    def n_window(c: int) -> list[int]:
        center = stationary_dual_index(p, c)
        lo, hi = max(1, center - _N_HALF_WIDTH), center + _N_HALF_WIDTH
        return [n for n in range(lo, hi + 1) if math.gcd(n, c) == 1]

    hits = []
    expected = 0.0
    for c1 in c_values:
        for c2 in c_values:
            cc = c1 * c2
            for n1 in n_window(c1):
                n1b = inv_mod(n1, c1) if c1 > 1 else 0
                for n2 in n_window(c2):
                    n2b = inv_mod(n2, c2) if c2 > 1 else 0
                    diag_tuple = c1 == c2 and n1 == n2
                    if not diag_tuple:
                        expected += (2 * _M_WINDOW + 1) / cc
                    base = (n1b * c2 - n2b * c1) % cc
                    for m in range(-_M_WINDOW, _M_WINDOW + 1):
                        if (m - base) % cc == 0:
                            hits.append((m, n1, c1, n2, c2, diag_tuple))
    # sample cross-check of the indicator against the brute-force sum
    for m, n1, c1, n2, c2, _ in hits[:5]:
        r = charsum_congruence(m, n1, n2, c1, c2)
        if not (r.indicator and r.abs_diff < 1e-6):
            raise ArithmeticError(
                f"congruence indicator disagrees with the character sum at "
                f"(m, n1, c1, n2, c2) = {(m, n1, c1, n2, c2)}"
            )
    # shared outer grid sized for the largest |m| among hits
    m_max = max((abs(h[0]) for h in hits), default=1)
    cmin = min(c_values)
    v, wt = _outer_nodes(float(m_max), 1, cmin, 1, cmin, p)
    u_plateau = plateau_weight(0.5, 1.0, 2.0, 3.0)
    uw = wt * u_plateau(v)
    profiles: dict[tuple[int, int], np.ndarray] = {}

    def profile(n: int, c: int) -> np.ndarray:
        key = (n, c)
        if key not in profiles:
            profiles[key] = _i_profile(v * ntil, n, c, p)
        return profiles[key]

    diag = 0.0
    off = 0.0
    generic_hits = 0
    for m, n1, c1, n2, c2, diag_tuple in hits:
        core = profile(n1, c1) * np.conj(profile(n2, c2)) * uw
        jv = complex(np.exp(-2j * math.pi * m * v) @ core)
        if diag_tuple and m == 0:
            diag += jv.real / (c1 * c2)
        else:
            off += abs(jv) / (c1 * c2)
            if not diag_tuple:
                generic_hits += 1
    diag *= ntil
    off *= ntil
    diag_const = diag / (ntil / p.N)
    denom = ntil * p.t / (p.N * p.K**3)
    off_const = off / denom
    sparsity = generic_hits / max(expected, 1e-300)
    ok = diag_const <= 100.0 and off_const <= 100.0 and (1 / 3 <= sparsity <= 3)
    return AssemblyReport(
        diagonal=diag,
        offdiagonal=off,
        diag_constant=diag_const,
        offdiag_constant=off_const,
        offdiag_constant_alt=off_const / p.Q**2,
        hits=generic_hits,
        expected_hits=expected,
        sparsity_ratio=sparsity,
        status="PASS" if ok else "FAIL",
    )
