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
band-limited in x = sqrt(m).  Every J value, the assembly's included,
comes from `j_integral_batch`, which reads its profiles over one outer
grid per call from a Chebyshev series in x, one per (n, c), whose
coefficients are closed-form: by Jacobi-Anger, a signed Bessel table
times the inner grid's amplitudes.  It factors e(-m v) over the outer
grid's panels, so no dense table of exponentials is formed; the dense I
kernel `i_integral_batch` is the test oracle.  The S5 dual side reads
its whole window of n from one node grid per (m, c), folded onto one
period c/N of the e(-N v / c) factor: the rest of the integrand, summed
over the periods, is one smooth function on that period, read at the
period's nodes from a Chebyshev interpolant, and only one period's
nodes (and the leftover piece's) step the phase from n to n + 1.  The dual terms are assembled
as one array pass over the window.  The S5 direct side reads S(n, m; c)
from one Kloosterman sum per residue class n mod c and forms each phase
as a double-double pair, reduced mod 2 pi by `special._reduce_two_pi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import inv_mod
from .expsums import charsum_congruence, kloosterman_reals, units_and_inverses
from .oscint import _canonical_bump, panel_rule, plateau_weight
from .special import (
    _TWO_PI_LO, _log_n, _reduce_two_pi, _two_product, _two_sum, chebyshev_block,
    chebyshev_degree, chebyshev_fit, jacobi_anger_coefficients, signed_bessel_table,
)

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)
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
# U(v), the J integrals' plateau: rising on [0.5, 1], 1 on [1, 2], falling on [2, 3]
_U = plateau_weight(0.5, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class PipelineParams:
    """Scales of the transformation chain.

    The dual length is always recomputed as Q^2 K^4 / N; it is a
    property, not a field, so inconsistent inputs cannot be expressed.
    Scales whose dual length underflows to 0 or overflows are refused.
    """

    N: float
    t: float
    K: float
    Q: float

    def __post_init__(self):
        for name in ("N", "t", "K", "Q"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.N, self.t, self.K, self.Q) <= 0:
            raise ValueError("all parameters must be positive")
        if self.K > math.sqrt(self.t) + 1e-12:
            raise ValueError("need K <= sqrt(t)")
        try:
            in_range = 0.0 < self.N_dual < math.inf
        except OverflowError:  # a float ** raises where a product gives inf
            in_range = False
        if not in_range:
            raise ValueError(f"dual length Q^2 K^4 / N underflows or overflows "
                             f"at N = {self.N:g}, K = {self.K:g}, Q = {self.Q:g}")

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


def _inner_terms(m_max: float, n: int, c: int, p: PipelineParams):
    """I(m, n, c) = sum_j base_j e^(i sqrt(m) omega_j) on the `_inner_nodes`
    grid for first arguments up to m_max: returns the frequencies omega_j
    = (2 pi / c) sqrt(N v_j) and base_j = wt_j W(v_j) e^(i (t log v_j - 2 pi
    n N v_j / c))."""
    v, wt = _inner_nodes(m_max, n, c, p)
    w_v = _canonical_bump(2.0 * v - 3.0)
    base_phase = p.t * np.log(v) - (TWO_PI / c) * n * p.N * v
    base = wt * w_v * np.exp(1j * base_phase)
    return (TWO_PI / c) * math.sqrt(p.N) * np.sqrt(v), base


def i_integral_batch(
    ms: np.ndarray, n: int, c: int, p: PipelineParams
) -> np.ndarray:
    """I(m, n, c) = int v^{it} W(v) e((sqrt(m N v) - n N v)/c) dv for an
    array of (continuous) first arguments m >= 0, one dense complex
    exponential per first argument and inner node: the oracle of
    `_i_profile` and `i_integral_window`."""
    ms = np.asarray(ms, dtype=float)
    if np.any(ms < 0):
        raise ValueError("first argument must be nonnegative")
    sq, base = _inner_terms(float(ms.max(initial=0.0)), n, c, p)
    out = np.empty(len(ms), dtype=complex)
    block = max(1, int(4_000_000 // max(len(sq), 1)))
    for i in range(0, len(ms), block):
        root_m = np.sqrt(ms[i : i + block])
        phases = np.exp(1j * np.outer(root_m, sq))
        out[i : i + block] = phases @ base
    return out


def _profile_band(c: int, p: PipelineParams) -> tuple[float, float]:
    """Centre frequency omega0 and half-width beta of x -> I(x^2, n, c):
    omega = (2 pi / c) sqrt(N v) over v in [1, 2]."""
    root_n = (TWO_PI / c) * math.sqrt(p.N)
    return root_n * (1.0 + SQRT2) / 2.0, root_n * (SQRT2 - 1.0) / 2.0


def _i_profile(ms: np.ndarray, n: int, c: int, p: PipelineParams) -> np.ndarray:
    """I(m, n, c) on an array of first arguments, read from one Chebyshev
    series in x = sqrt(m) whose coefficients are formed in closed form.

    W lives on [1, 2], so x -> I(x^2, n, c) superposes e^(i omega x) over
    omega = (2 pi / c) sqrt(N v), v in [1, 2]: demodulated by the centre
    frequency omega0 it is band-limited to |omega - omega0| <= beta.  On
    x = mid + half y it is, on the `_inner_nodes` grid sized at the
    range's end x_hi^2, sum_j amp_j e^(i half dw_j y) with dw_j = omega_j
    - omega0 and amp_j = base_j e^(i mid dw_j) (`_inner_terms`).  By
    Jacobi-Anger its Chebyshev coefficients are one product of the
    amplitudes with the table J_k(-half dw_j), k up to
    `chebyshev_degree(beta half / 2)` (`signed_bessel_table`), built over
    the inner nodes in blocks of at most 4e6 entries and summed, and
    `chebyshev_block` reads the series at every x.
    """
    x = np.sqrt(np.asarray(ms, dtype=float))
    lo, hi = float(x.min()), float(x.max())
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    omega0, beta = _profile_band(c, p)
    omega, base = _inner_terms(hi * hi, n, c, p)
    dw = omega - omega0
    amp = (base * np.exp(1j * mid * dw))[:, None]
    z = -half * dw
    kmax = chebyshev_degree(beta * half / 2.0)
    block = max(1, 4_000_000 // (kmax + 1))
    coef = sum(
        jacobi_anger_coefficients(signed_bessel_table(kmax, z[i : i + block]), amp[i : i + block])
        for i in range(0, len(z), block)
    )
    return np.exp(1j * omega0 * x) * chebyshev_block(coef, lo, hi, x)[:, 0]


def _window_nodes(m: float, n: int, c: int, p: PipelineParams):
    """Gauss-Legendre grid on [1, 2] cut at the periods c/N of z(v) = e(-N v/c).

    Returns (u, wt, periods, tail, tail_wt).  u and wt are the nodes and
    weights of period 0, [1, 1 + c/N]; each of the periods = floor(N/c)
    whole periods from v = 1 takes the nodes u + k c/N and the same
    weights (u and wt are empty when N < c).  tail and tail_wt are the
    nodes and weights of the leftover piece [1 + periods c/N, 2], which is
    all of [1, 2] when N < c.  Both pieces take the panels of `_panel_density`
    rounded up to a whole number per piece, so no panel is wider than
    the `_inner_nodes` grid's, and the grid's outer edges are exactly 1
    and 2.
    """
    density = _panel_density(m, n, c, p)
    period = c / p.N
    periods = math.floor(p.N / c)
    u, wt = np.empty(0), np.empty(0)
    if periods:
        per_period = math.ceil(density * period)
        u, wt = panel_rule(np.linspace(1.0, 1.0 + period, per_period + 1), 20)
    rest = p.N - periods * c  # what is left of [1, 2], in units of 1/N
    start = 1.0 + periods * period
    tail_panels = math.ceil(density * rest / p.N) if rest > 0 else 0
    tail, tail_wt = panel_rule(np.linspace(start, 2.0, tail_panels + 1), 20)
    return u, wt, periods, tail, tail_wt


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
    u, wt, periods, tail, tail_wt = _window_nodes(
        float(m), max(abs(n_lo), abs(n_hi)), c, p
    )
    root_m = (TWO_PI / c) * math.sqrt(m * p.N)

    def h(v):
        return _canonical_bump(2.0 * v - 3.0) * np.exp(
            1j * (p.t * np.log(v) + root_m * np.sqrt(v))
        )

    folded = np.empty(0, dtype=complex)
    if periods:
        period = c / p.N
        shifts = period * np.arange(periods)[:, None]
        fold = chebyshev_fit(
            lambda u: h(u + shifts).sum(axis=0), 1.0, 1.0 + period,
            p.t + 0.5 * root_m, math.ceil(_FOLD_EDGE_RATE * math.sqrt(period)),
        )
        folded = fold(u)
    # period-0 nodes carry the folded h; the leftover nodes their own
    v = np.concatenate([u, tail])
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
    """Both sides of the S5 identity; status is the whole verdict, read
    from scaled_diff and fat_tail as `poisson_check_s5` states it."""

    m: int
    c: int
    direct: complex
    dual: complex
    abs_diff: float
    scaled_diff: float
    trivial_bound: float
    n_window: tuple[int, int]
    nonpositive_mass: float
    tail_mass: float
    tail_cutoff: int
    fat_tail: bool
    status: str


# the two sides of the S5 Poisson identity agree to this fraction of
# max(|direct|, 1e-3 trivial bound)
S5_TOL = 1e-6
# desk scale: the largest nominal cutoff 8 c max(t, 1) / N of the S5 dual window,
# which holds 2.5 times as many terms (4001 and 20001 take 0.15 and 9 s on x86)
S5_CUTOFF_MAX = 4000


def s5_cutoff(c: int, p: PipelineParams) -> float:
    """The nominal dual cutoff 8 c max(t, 1) / N of the S5 window at
    modulus c; ValueError past the desk-scale limits, or where no
    integer n lies in N < n < 2N, so S5 has no term to compare."""
    if c > 50 or p.N > 1e5 or p.t > 2000:
        raise ValueError("desk-scale limits: c <= 50, N <= 1e5, t <= 2000")
    reach = 8.0 * c * max(p.t, 1.0) / p.N
    if not reach <= S5_CUTOFF_MAX:
        raise ValueError(f"desk-scale S5 dual window limited to 8 c max(t, 1) / N <= "
                         f"{S5_CUTOFF_MAX}, got {reach:.3g} at N = {p.N:g}, t = {p.t:g}, c = {c}")
    if not math.floor(p.N) + 1 < 2 * p.N:
        raise ValueError(f"empty S5 window: no integer n with N < n < 2N at N = {p.N:g}")
    return reach


def poisson_check_s5(m: int, c: int, p: PipelineParams) -> S5Report:
    """Both sides of the Poisson identity for S5.

    direct: sum over n in [N, 2N] of n^{it} e(sqrt(nm)/c) S(n, m; c)
    W(n/N).  Each phase t log n + 2 pi sqrt(nm) / c is one double-double
    pair, reduced mod 2 pi before it rounds to double: t log n by a
    two-product on the log n pair of `special._log_n`, sqrt(nm) as a pair
    from its exact square residual, less its whole multiples of c, over c
    and times 2 pi as pairs.  Only log n's low part comes from long
    double; where long double is only double it is 0, which costs up to
    2e-13 rad at t = 500, and at t = 0 nothing depends on it.  dual:
    N^{1+it} sum over gcd(n, c) = 1 of e(-m nbar / c) I(m, n, c), with the
    n-window extended well past the nominal c t / N cutoff and through
    zero into negative frequencies whose mass is reported.  The identity
    is exact; PASS demands scaled_diff = |direct - dual| / max(|direct|,
    1e-3 trivial bound) at most S5_TOL (inf where that scale is 0), the
    floor covering regimes where S5 itself cancels to exponentially small
    size, and no fat tail: |dual| above 1e-3 trivial bound with over 1e-8
    of it past the cutoff.
    """
    reach = s5_cutoff(c, p)
    N = p.N
    ns = np.arange(int(math.floor(N)), int(math.ceil(2 * N)) + 1)
    bump = _canonical_bump(2.0 * ns / N - 3.0)
    keep = bump != 0.0
    ns, bump = ns[keep], bump[keep]
    # S(n, m; c) depends on n mod c alone
    s = kloosterman_reals(np.arange(c), m, c)[ns % c]
    # t log n from the log n pair, and sqrt(nm) = r + r_lo from r's exact
    # square residual (r >= 1 unless nm = 0), less whole multiples of c
    hi, lo = (part[ns - 1] for part in _log_n(int(math.ceil(2 * N))))
    nm = ns * float(m)
    r = np.sqrt(nm)
    sq, sq_err = _two_product(r, r)
    r_lo = (nm - sq - sq_err) / (2.0 * np.maximum(r, 1.0))
    r -= c * np.floor(r / c)
    # turns + turns_lo = (r + r_lo) / c, and 2 pi times it as a pair
    turns = r / c
    rc, rc_err = _two_product(turns, float(c))
    turns_lo = (r - rc - rc_err + r_lo) / c
    a, a_err = _two_product(turns, TWO_PI)
    b, b_err = _two_product(p.t, hi)
    phase, err = _two_sum(a, b)
    err += a_err + b_err + p.t * lo + turns * _TWO_PI_LO + turns_lo * TWO_PI
    terms = bump * s * np.exp(1j * _reduce_two_pi(phase, err))
    direct = complex(math.fsum(terms.real), math.fsum(terms.imag))
    # a running total in n order, as a per-n loop would sum it
    trivial = float(np.cumsum(bump * np.abs(s))[-1]) if ns.size else 0.0

    cutoff = int(math.ceil(reach))
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
    scale = max(abs(direct), 1e-3 * trivial)
    scaled = diff / scale if scale else math.inf
    tail_mass = abs(prefac) * tail
    fat = bool(abs(dual) > 1e-3 * trivial and tail_mass > 1e-8 * abs(dual))
    return S5Report(
        m=m, c=c, direct=direct, dual=dual,
        abs_diff=diff, scaled_diff=scaled,
        trivial_bound=trivial,
        n_window=(n_win_lo, n_win_hi),
        nonpositive_mass=abs(prefac) * nonpos,
        tail_mass=tail_mass,
        tail_cutoff=cutoff,
        fat_tail=fat,
        status="PASS" if scaled <= S5_TOL and not fat else "FAIL",
    )


def _outer_panels(rows, p: PipelineParams) -> int:
    """The panel count of `_outer_nodes`' grid, which resolves the phase of
    the J-integrand of every row (m, n1, c1, n2, c2): the largest |m|
    against two profiles of the least modulus, 16 nodes per 10 rad of
    phase.  ValueError past 400,000 panels (6.4e6 nodes), where a grid
    clamped at the cap would alias the largest |m|."""
    m_max = max(abs(row[0]) for row in rows)
    c = min(min(row[2], row[4]) for row in rows)
    rate = TWO_PI * m_max + TWO_PI * math.sqrt(p.N * p.N_dual) * math.sqrt(
        2.0 / 0.5
    ) * (2.0 / c)
    panels = int(max(rate * 2.5 / 10.0, 32))
    if panels > 400_000:
        raise ValueError(f"desk-scale J grid limited to 400000 panels, "
                         f"got {panels} for |m| = {m_max} at N = {p.N:g}, K = {p.K:g}")
    return panels


def _outer_nodes(rows, p: PipelineParams):
    """Fixed Gauss-Legendre grid on [0.5, 3] for the J-integrand of every
    row: `_outer_panels` panels of 16 nodes."""
    return panel_rule(np.linspace(0.5, 3.0, _outer_panels(rows, p) + 1), 16)


def j_integral_batch(rows, p: PipelineParams) -> np.ndarray:
    """J(m) = int I(v Ntil, n1, c1) conj(I(v Ntil, n2, c2)) U(v) e(-m v) dv
    for each row (m, n1, c1, n2, c2) on one `_outer_nodes` grid, each
    profile (n, c) read once (`_i_profile`) and each profile pair's m in
    one pass.

    The grid's 16 Gauss-Legendre nodes per panel are v = mid_i + d_j, so
    e(-m v) factors: J(m) = sum_i e(-m mid_i) sum_j core[i, j] e(-m d_j),
    one (panels x 16) by (16 x rows) product and a rows x panels table of
    exponentials per pair.  The conjugate on the second factor realizes
    the opened absolute square this integral comes from (its expanded
    form carries (y1/y2)^{it} and opposite-sign phases).
    """
    v, wt = _outer_nodes(rows, p)
    u = _U.evaluator(v, np.zeros(v.size, dtype=np.intp))
    # each panel's centre, and the offsets of the first panel's nodes from it
    panels = v.reshape(-1, 16)
    mid = 0.5 * (panels[:, 0] + panels[:, -1])
    offset = panels[0] - mid[0]
    ms = np.array([row[0] for row in rows], dtype=float)
    pairs = {}  # profile pair -> its rows
    for i, (_, n1, c1, n2, c2) in enumerate(rows):
        pairs.setdefault(((n1, c1), (n2, c2)), []).append(i)
    keys = {key for pair in pairs for key in pair}
    profiles = {key: _i_profile(v * p.N_dual, *key, p) for key in keys}
    out = np.empty(len(rows), dtype=complex)
    block = max(1, 4_000_000 // len(mid))
    for (key1, key2), idx in pairs.items():
        core = (wt * profiles[key1] * np.conj(profiles[key2]) * u).reshape(panels.shape)
        for i in range(0, len(idx), block):
            part = idx[i : i + block]
            inner = core @ np.exp(-2j * math.pi * np.outer(offset, ms[part]))
            outer = np.exp(-2j * math.pi * np.outer(ms[part], mid))
            out[part] = np.einsum("ri,ir->r", outer, inner)
    return out


# desk scale: the largest `j_integral_work`, about 2 s at 5e-9 to 1e-8 s per
# unit on a 2-vCPU x86 Xeon with one BLAS thread: the CLI defaults' assembly
# at 4.0e6 takes 0.07 s and N = 2500, Q = 3's 1.6e8 0.9 s; N = 1e4 at Q = 3
# would take 3.3 s at 3.4e8, and N = 1e5 at Q = 3 is 2.4e9
J_WORK_MAX = 2 * 10**8


def j_integral_work(rows, p: PipelineParams) -> int:
    """Predicted work of `j_integral_batch(rows, p)`: rows x outer nodes, plus
    each profile's signed Bessel table, Chebyshev coefficients x inner
    nodes, exactly as `_i_profile` builds it."""
    panels = _outer_panels(rows, p)
    # the outer grid's end panels alone, to the bit: np.linspace puts edge
    # i at i * (2.5 / panels) + 0.5 and the last at 3.0
    step = 2.5 / panels
    v_lo = panel_rule(np.array([0.5, step + 0.5]), 16)[0].min()
    v_hi = panel_rule(np.array([(panels - 1) * step + 0.5, 3.0]), 16)[0].max()
    x_lo, x_hi = math.sqrt(v_lo * p.N_dual), math.sqrt(v_hi * p.N_dual)
    work = len(rows) * 16 * panels
    for n, c in {key for row in rows for key in (row[1:3], row[3:5])}:
        coefs = chebyshev_degree(_profile_band(c, p)[1] * (x_hi - x_lo) / 4.0) + 1
        # `_inner_nodes` puts 20 nodes on each panel of [1, 2], counted, not built
        work += coefs * 20 * _panel_density(x_hi * x_hi, n, c, p)
    return work


@dataclass(frozen=True)
class JDecayReport:
    """The J(m) fits; status is the whole verdict, octave trend
    included, as `j_decay_report` states it."""

    j0: float
    a0: float
    worst_a1: float
    decay_threshold: int
    decay_ratio: float
    octave_trend_ok: bool
    status: str


def j_decay_rows(p: PipelineParams, n: int, c: int) -> list[tuple]:
    """J-decay's rows (m, n, c, n, c): m = 0; 1, 2, 4, 8; the octaves of m
    from max(2 floor(N / K^2), 4) up to m_big = 16 N / K^2; m_big."""
    m_big = int(16 * p.N / p.K**2)
    octaves = []
    mm = max(2 * int(p.N / p.K**2), 4)
    while mm <= m_big:
        octaves.append(mm)
        mm *= 2
    return [(m, n, c, n, c) for m in (0, 1, 2, 4, 8, *octaves, m_big)]


def j_decay_report(p: PipelineParams, n: int, c: int) -> JDecayReport:
    """Fit |J(0)| t and |J(m)| t K constants, the latter over
    m = 1, 2, 4, 8, and measure the collapse past m = 16 N / K^2, all on
    the `j_decay_rows` of (n, c).  PASS: both constants at most 100,
    the collapse ratio at most 1e-6, and |J| at most doubling from one
    octave of m to the next (or under 1e-10 |J(0)|)."""
    rows = j_decay_rows(p, n, c)
    vals = j_integral_batch(rows, p)
    j0 = abs(vals[0])
    a0 = j0 * p.t
    worst_a1 = max(abs(v) * p.t * p.K for v in vals[1:5])
    jbig = abs(vals[-1])
    oct_vals = [abs(v) for v in vals[5:-1]]
    floor = 1e-10 * max(j0, 1e-300)
    trend_ok = all(
        oct_vals[i + 1] <= 2.0 * oct_vals[i] or oct_vals[i + 1] <= floor
        for i in range(len(oct_vals) - 1)
    )
    ratio = jbig / max(j0, 1e-300)
    ok = a0 <= 100.0 and worst_a1 <= 100.0 and ratio <= 1e-6 and trend_ok
    return JDecayReport(
        j0=j0,
        a0=a0,
        worst_a1=worst_a1,
        decay_threshold=rows[-1][0],
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


def _assembly_plan(p: PipelineParams, c_values: tuple[int, ...]):
    """The assembly's congruence hits, rows (m, n1, c1, n2, c2) of
    `j_integral_batch`, and the expected count of generic hits, those
    off the diagonal tuples (n1, c1) = (n2, c2)."""
    if len(c_values) < 2:
        raise ValueError("need at least a 2 x 2 grid of moduli")

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
                    if (n1, c1) != (n2, c2):
                        expected += (2 * _M_WINDOW + 1) / cc
                    base = (n1b * c2 - n2b * c1) % cc
                    for m in range(-_M_WINDOW, _M_WINDOW + 1):
                        if (m - base) % cc == 0:
                            hits.append((m, n1, c1, n2, c2))
    return hits, expected


def offdiagonal_assembly(
    p: PipelineParams, c_values: tuple[int, ...]
) -> AssemblyReport:
    """Assemble the dual off-diagonal second moment from measured J
    values and the congruence indicator, split diagonal from
    off-diagonal, and compare both against their predicted scales.

    The J values are one `j_integral_batch` call over the hits.  The
    off-diagonal constant is fitted with the written double 1/(c1 c2)
    chain (offdiag_constant); the alternative single-factor reading is
    reported alongside (offdiag_constant_alt).  The expected-hit density
    1/(c1 c2) is a statement about generic tuples, so structurally
    forced diagonal hits are counted separately.
    """
    ntil = p.N_dual
    hits, expected = _assembly_plan(p, c_values)
    # sample cross-check of the indicator against the brute-force sum
    for m, n1, c1, n2, c2 in hits[:5]:
        r = charsum_congruence(m, n1, n2, c1, c2)
        if not (r.indicator and r.abs_diff < 1e-6):
            raise ArithmeticError(
                f"congruence indicator disagrees with the character sum at "
                f"(m, n1, c1, n2, c2) = {(m, n1, c1, n2, c2)}"
            )
    diag = 0.0
    off = 0.0
    generic_hits = 0
    for (m, n1, c1, n2, c2), jv in zip(hits, j_integral_batch(hits, p)):
        diag_tuple = (n1, c1) == (n2, c2)
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
