import math
import tracemalloc

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre
import numpy as np
import pytest
from scipy.integrate import quad

from weylbound import acceptance, oscint, pipeline, special
from weylbound.oscint import (
    PhaseFamily,
    PhaseSpec,
    QuadratureError,
    SmoothWeight,
    StationaryPointError,
    bessel_weighted_k_sum,
    bump_weight,
    nonstationary_decay_check,
    oscillatory_quadrature,
    panel_rule,
    plateau_weight,
    second_derivative_bound_check,
    stationary_phase_eval,
    sum_over_orders_check,
)

ZERO_PHASE = PhaseSpec(
    evaluator=lambda t: np.zeros_like(t), deriv=lambda t: np.zeros_like(t),
    deriv2=lambda t: np.zeros_like(t),
)


def quadrature(w, h, tol=1e-10, max_nodes=3_000_000):
    """One weight and phase as a quadrature family of one."""
    (est,) = oscillatory_quadrature(
        oscint.WeightFamily.stack([w]), PhaseFamily.stack([h]), tol, max_nodes
    )
    return est


def second_derivative_report(g, f):
    """One weight and phase as a second-derivative check family of one."""
    (rep,) = second_derivative_bound_check(
        oscint.WeightFamily.stack([g]), PhaseFamily.stack([f])
    )
    return rep


def quadratic_phase(A, center=1.5):
    return PhaseSpec(
        evaluator=lambda t: A * (t - center) ** 2,
        deriv=lambda t: 2 * A * (t - center),
        deriv2=lambda t: 2 * A * np.ones_like(t),
        Y=abs(A) / 4,
        Q=0.5,
    )


def endpoint_defect(w: SmoothWeight) -> float:
    """Largest sampled |w|, |w'|, |w''| at the support endpoints."""
    a, b = w.support
    h = 1e-4 * (b - a)
    worst = 0.0
    for x0 in (a, b):
        pts = np.array([x0 - h, x0, x0 + h])
        inside = np.clip(pts, a, b)
        vals = w.evaluator(inside)
        # one-sided values outside the support are zero by definition
        vals = np.where((pts >= a) & (pts <= b), vals, 0.0)
        w0 = vals[1]
        w1 = (vals[2] - vals[0]) / (2 * h)
        w2 = (vals[2] - 2 * vals[1] + vals[0]) / (h * h)
        worst = max(worst, abs(w0), abs(w1) * h, abs(w2) * h * h)
    return worst


def test_weights_vanish_at_endpoints():
    assert endpoint_defect(bump_weight(1, 2)) < 1e-8
    assert endpoint_defect(plateau_weight(0.5, 1.0, 2.0, 3.0)) < 1e-8


def test_nonvanishing_weight_flagged():
    w = SmoothWeight(lambda t: np.cos(t), (0.0, 1.0))
    assert endpoint_defect(w) > 1e-3


def test_plateau_is_flat_on_middle():
    u = plateau_weight(0.5, 1.0, 2.0, 3.0)
    ts = np.linspace(1.0, 2.0, 50)
    assert np.max(np.abs(u(ts) - 1.0)) < 1e-12


def test_quadrature_no_oscillation():
    w = bump_weight(1.0, 2.0)
    r = quadrature(w, ZERO_PHASE, tol=1e-12)
    ref = quad(lambda t: w(np.array([t]))[0], 1, 2, epsabs=1e-14)[0]
    assert abs(r.value - ref) < 1e-12


def test_quadrature_self_consistency():
    w = bump_weight(1.0, 2.0)
    h = PhaseSpec(
        evaluator=lambda t: 1000.0 * np.log(t) * 40.0,
        deriv=lambda t: 40000.0 / t,
        deriv2=lambda t: -40000.0 / t**2,
        Y=4e4, Q=1.5,
    )
    r1 = quadrature(w, h, tol=1e-9)
    r2 = quadrature(w, h, tol=1e-12)
    assert abs(r1.value - r2.value) <= max(r1.abs_error, 1e-12)


def _regression_corpus(n_cases=50, seed=11):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        a, b = sorted(rng.uniform(0.5, 3.0, size=2))
        if b - a < 0.3:
            b = a + 0.3
        kind = int(rng.integers(0, 2))
        w = (
            bump_weight(a, b, float(rng.uniform(0.5, 2.0)))
            if kind == 0
            else plateau_weight(a, a + 0.3 * (b - a), b - 0.3 * (b - a), b)
        )
        amp = float(10 ** rng.uniform(0.5, 3.0))
        c0 = float(rng.uniform(a + 0.2 * (b - a), b - 0.2 * (b - a)))
        style = int(rng.integers(0, 2))
        if style == 0:
            h = PhaseSpec(
                evaluator=lambda t, A=amp, c=c0: A * (t - c) ** 2,
                deriv=lambda t, A=amp, c=c0: 2 * A * (t - c),
                deriv2=lambda t, A=amp: 2 * A * np.ones_like(t),
                Y=amp, Q=(b - a) / 2,
            )
        else:
            h = PhaseSpec(
                evaluator=lambda t, A=amp: A * np.log(t),
                deriv=lambda t, A=amp: A / t,
                deriv2=lambda t, A=amp: -A / t**2,
                Y=amp, Q=a,
            )
        cases.append((w, h))
    return cases


def test_quadrature_regression_corpus_halving():
    # halving tol moves the result by less than the claimed bound
    for w, h in _regression_corpus():
        r1 = quadrature(w, h, tol=2e-9)
        r2 = quadrature(w, h, tol=1e-9)
        assert abs(r1.value - r2.value) <= max(r1.abs_error, r2.abs_error, 1e-13)


def test_stationary_error_model_on_corpus():
    # order 0 within twice its claimed error on every corpus case with a
    # stationary point; the heuristic claim alone is exceeded by up to
    # 1.55x on this corpus
    checked = 0
    for w, h in _regression_corpus():
        try:
            s0 = stationary_phase_eval(w, h)
        except StationaryPointError:
            continue
        ref = quadrature(w, h, tol=1e-12)
        assert abs(s0.value - ref.value) <= 2 * s0.abs_error
        checked += 1
    assert checked == 28


def test_quadrature_phase_budget():
    w = bump_weight(0.0, 1.0)
    h = PhaseSpec(
        evaluator=lambda t: 2e7 * t, deriv=lambda t: 2e7 * np.ones_like(t),
        deriv2=np.zeros_like,
    )
    with pytest.raises(ValueError):
        quadrature(w, h, tol=1e-9)


def test_quadrature_node_budget_reports_partial():
    w = bump_weight(1.0, 2.0)
    h = PhaseSpec(
        evaluator=lambda t: 3e5 * t, deriv=lambda t: 3e5 * np.ones_like(t),
        deriv2=np.zeros_like,
    )
    with pytest.raises(QuadratureError) as exc:
        quadrature(w, h, tol=1e-12, max_nodes=500)
    assert exc.value.achieved_bound > 0


def test_stationary_phase_quadratic_leading():
    w = bump_weight(1.0, 2.0)
    A = 1000.0
    got = stationary_phase_eval(w, quadratic_phase(A))
    lead = math.sqrt(math.pi / A) * np.exp(1j * math.pi / 4) * w(np.array([1.5]))[0]
    assert abs(got.value - lead) < 1e-14
    ref = quadrature(w, quadratic_phase(A), tol=1e-12)
    assert abs(got.value - ref.value) <= 0.02 * abs(ref.value)


def test_stationary_phase_negative_curvature():
    w = bump_weight(1.0, 2.0)
    h = quadratic_phase(-700.0)
    ref = quadrature(w, h, tol=1e-12).value
    got = stationary_phase_eval(w, h)
    assert abs(got.value - ref) <= 2 * got.abs_error


def test_stationary_phase_error_model_envelope():
    w = bump_weight(1.0, 2.0)
    for A in (200.0, 1000.0, 5000.0):
        h = quadratic_phase(A)
        ref = quadrature(w, h, tol=1e-12).value
        s0 = stationary_phase_eval(w, h)
        assert abs(s0.value - ref) <= 2 * s0.abs_error, A


def gaussian_weight(center: float, sigma: float, halfwidth: float) -> SmoothWeight:
    """Truncated Gaussian; halfwidth must make the cut numerically silent."""

    def ev(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.exp(-(((t - center) / sigma) ** 2))

    return SmoothWeight(
        ev, (center - halfwidth, center + halfwidth), amp_scale=1.0, var_scale=sigma
    )


def fresnel_gaussian_reference(A: float) -> complex:
    """Closed form of integral exp(i A t^2 - t^2) dt over the real line."""
    return complex(np.sqrt(np.pi / complex(1.0, -A)))


def test_fresnel_gaussian_reference_case():
    wg = gaussian_weight(0.0, 1.0, 9.0)
    A = 7.0
    h = PhaseSpec(
        evaluator=lambda t: A * t**2, deriv=lambda t: 2 * A * t,
        deriv2=lambda t: 2 * A * np.ones_like(t), Q=1.0,
    )
    got = quadrature(wg, h, tol=1e-12)
    assert abs(got.value - fresnel_gaussian_reference(A)) < 1e-11


def test_offdiag_dual_phase_curvature_scale():
    # log-quadratic-bilinear phase: 2 t log x - a x^2 - b x x3, with the
    # curvature at the critical point on the scale of t
    t, N, Q, K = 1000.0, 1e4, 100.0, 10.0
    ntil = Q * Q * K**4 / N
    c1, n1, x3 = 100.0, 9.0, 1.2
    a = N * n1 / c1
    b = math.sqrt(N * ntil) / c1
    h = PhaseSpec(
        evaluator=lambda x: 2 * t * np.log(x) - a * x**2 - b * x * x3,
        deriv=lambda x: 2 * t / x - 2 * a * x - b * x3,
        deriv2=lambda x: -2 * t / x**2 - 2 * a * np.ones_like(x),
        Y=t, Q=1.0,
    )
    w = bump_weight(0.8, 1.6)
    got = stationary_phase_eval(w, h)
    # curvature check at the located point
    from weylbound.oscint import _find_stationary_point

    x0 = _find_stationary_point(h, 0.8, 1.6)
    curv = abs(float(h.deriv2(np.array([x0]))[0]))
    assert t / 4 <= curv <= 4 * t
    ref = quadrature(w, h, tol=1e-12)
    assert abs(got.value - ref.value) <= 0.02 * abs(ref.value)


def test_stationary_point_absence_detected():
    w = bump_weight(1.0, 2.0)
    h = PhaseSpec(
        evaluator=lambda t: 50.0 * t, deriv=lambda t: 50.0 * np.ones_like(t),
        deriv2=np.zeros_like,
    )
    with pytest.raises(StationaryPointError):
        stationary_phase_eval(w, h)


def test_multiple_stationary_points_error():
    w = bump_weight(-1.0, 1.0)
    h = PhaseSpec(
        evaluator=lambda t: 100.0 * np.sin(8 * t),
        deriv=lambda t: 800.0 * np.cos(8 * t),
        deriv2=lambda t: -6400.0 * np.sin(8 * t),
    )
    with pytest.raises(StationaryPointError):
        stationary_phase_eval(w, h)


def test_nonstationary_linear_phase_ladder():
    w = bump_weight(1.0, 2.0)
    R0 = 40.0
    h = PhaseSpec(
        evaluator=lambda t: R0 * t, deriv=lambda t: R0 * np.ones_like(t),
        deriv2=np.zeros_like, Y=R0, Q=1.0, R=R0,
    )
    rep = nonstationary_decay_check(w, h)
    assert rep.status == "PASS"
    # raw magnitudes fall much faster than R^-3 across the ladder
    drop = rep.magnitudes[-1] / rep.magnitudes[0]
    assert drop < (rep.scales[-1] / rep.scales[0]) ** (-3)


def _decay_status(rep):
    """The verdict rebuilt from the report's fields alone."""
    if rep.threshold_scale is None:
        return "INCONCLUSIVE"
    past = [i for i, s in enumerate(rep.scales) if s >= rep.threshold_scale][1:]
    floor = 1e-15 * max(rep.magnitudes)
    assert len(past) == len(rep.observed_ratios) == len(rep.bound_ratios)
    ok = all(
        rep.magnitudes[i] <= floor or o <= oscint._DECAY_SLACK * r
        for i, o, r in zip(past, rep.observed_ratios, rep.bound_ratios)
    )
    return "PASS" if ok else "FAIL"


@pytest.mark.parametrize(
    "w, R0, status",
    [
        (bump_weight(1.0, 2.0), 40.0, "PASS"),
        (bump_weight(1.0, 2.0), 1e-3, "INCONCLUSIVE"),
        # a weight that does not vanish at its ends decays only like 1/R
        (SmoothWeight(lambda t: np.ones_like(t), (1.0, 2.0), var_scale=0.5), 40.0, "FAIL"),
    ],
)
def test_decay_report_rebuilds_its_status(w, R0, status):
    h = PhaseSpec(
        evaluator=lambda t: R0 * t, deriv=lambda t: R0 * np.ones_like(t),
        deriv2=np.zeros_like, Y=R0, Q=1.0, R=R0,
    )
    rep = nonstationary_decay_check(w, h)
    assert rep.status == _decay_status(rep) == status
    # bounds are the per-rung bound values; bound_ratios their ratios to
    # the first rung past the threshold, parallel to observed_ratios
    assert len(rep.bounds) == len(rep.scales) == len(rep.magnitudes)
    if rep.threshold_scale is not None:
        i0 = rep.scales.index(rep.threshold_scale)
        assert rep.bound_ratios == [b / rep.bounds[i0] for b in rep.bounds[i0 + 1 :]]
        assert rep.observed_ratios == [m / rep.magnitudes[i0] for m in rep.magnitudes[i0 + 1 :]]


def test_decay_ladder_is_one_family_of_single_integrals():
    # each rung's |I| is the single quadrature of the scaled phase
    w = bump_weight(1.0, 2.0)
    h = PhaseSpec(
        evaluator=lambda t: 5.0 * t**2, deriv=lambda t: 10.0 * t,
        deriv2=lambda t: 10.0 * np.ones_like(t), Y=20.0, Q=1.0, R=10.0,
    )
    rep = nonstationary_decay_check(w, h)
    for s, mag in zip(rep.scales, rep.magnitudes):
        hs = PhaseSpec(
            evaluator=lambda t, s=s: s * np.asarray(h(t)), deriv=h.deriv, deriv2=h.deriv2
        )
        assert mag == abs(quadrature(w, hs, tol=1e-12).value), s


def test_nonstationary_below_threshold_inconclusive():
    w = bump_weight(1.0, 2.0)
    h = PhaseSpec(
        evaluator=lambda t: 1e-3 * t, deriv=lambda t: 1e-3 * np.ones_like(t),
        deriv2=np.zeros_like, Y=1e-3, Q=1.0, R=1e-3,
    )
    rep = nonstationary_decay_check(w, h)
    assert rep.status == "INCONCLUSIVE"


def test_nonstationary_requires_R():
    w = bump_weight(1.0, 2.0)
    h = PhaseSpec(evaluator=lambda t: t, deriv=np.ones_like, deriv2=np.zeros_like)
    with pytest.raises(ValueError):
        nonstationary_decay_check(w, h)


def test_plus_sign_phase_is_negligible():
    # with the plus sign there is no critical point on the support and
    # the integral collapses relative to the minus sign
    K, u = 10.0, 40.0
    coef = u / 2.0  # makes the minus-phase critical point sit at v = 1
    w = bump_weight(0.4, 1.8)
    two_pi = 2 * math.pi
    h_plus = PhaseSpec(
        evaluator=lambda v: two_pi * (u * v + coef * v**2),
        deriv=lambda v: two_pi * (u + 2 * coef * v),
        deriv2=lambda v: two_pi * 2 * coef * np.ones_like(v),
    )
    h_minus = PhaseSpec(
        evaluator=lambda v: two_pi * (u * v - coef * v**2),
        deriv=lambda v: two_pi * (u - 2 * coef * v),
        deriv2=lambda v: -two_pi * 2 * coef * np.ones_like(v),
    )
    ip = quadrature(w, h_plus, tol=1e-12)
    im = quadrature(w, h_minus, tol=1e-12)
    assert abs(im.value) >= 1e3 * abs(ip.value)


def test_second_derivative_bound_square_phase():
    g = bump_weight(1.0, 2.0)
    f = PhaseSpec(
        evaluator=lambda x: x**2, deriv=lambda x: 2 * x,
        deriv2=lambda x: 2 * np.ones_like(x), Y=4.0, Q=1.0,
    )
    rep = second_derivative_report(g, f)
    assert rep.status == "PASS"
    assert abs(rep.r - 2.0) < 1e-6
    assert rep.bound >= abs(rep.integral)


def test_second_derivative_bound_log_phase():
    # f = (t / 2 pi) log x on [1, 2]: r ~ t / (8 pi), the 1/sqrt(t) mechanism
    t = 500.0
    g = bump_weight(1.0, 2.0)
    f = PhaseSpec(
        evaluator=lambda x: (t / (2 * math.pi)) * np.log(x),
        deriv=lambda x: (t / (2 * math.pi)) / x,
        deriv2=lambda x: -(t / (2 * math.pi)) / x**2,
        Y=t, Q=1.0,
    )
    rep = second_derivative_report(g, f)
    assert rep.status == "PASS"
    assert abs(rep.r - t / (8 * math.pi)) < 0.05 * rep.r
    assert abs(rep.integral) <= 8.0 / math.sqrt(t / (8 * math.pi))


def test_second_derivative_bound_zero_weight():
    g = SmoothWeight(lambda t: np.zeros_like(t), (1.0, 2.0))
    f = PhaseSpec(
        evaluator=lambda x: x**2, deriv=lambda x: 2 * x,
        deriv2=lambda x: 2 * np.ones_like(x),
    )
    rep = second_derivative_report(g, f)
    assert rep.status == "PASS"
    assert abs(rep.integral) < 1e-12


def test_second_derivative_sign_change_rejected():
    g = bump_weight(-1.0, 1.0)
    f = PhaseSpec(
        evaluator=lambda x: x**3, deriv=lambda x: 3 * x**2,
        deriv2=lambda x: 6 * x,
    )
    with pytest.raises(ValueError):
        second_derivative_report(g, f)


def bump_fourier(v: np.ndarray) -> np.ndarray:
    """Fourier transform of the canonical [1,2] bump: int W(u) e(uv) du."""
    v = np.asarray(v, dtype=float)
    return 0.5 * np.exp(3j * math.pi * v) * oscint._phi_hat(v * math.pi)


def test_bump_fourier_inversion_sanity():
    # int What(v) e(-uv) dv recovers W(u) for u inside the support
    from scipy.integrate import quad as _q

    u0 = 1.4
    re = _q(
        lambda v: (bump_fourier(np.array([v]))[0] * np.exp(-2j * math.pi * u0 * v)).real,
        -40, 40, limit=4000,
    )[0]
    w = bump_weight(1.0, 2.0)
    assert abs(re - w(np.array([u0]))[0]) < 1e-6


def test_ksum_identity_direct_vs_kernel_small():
    for K, x in [(8, 10.0), (8, 100.0), (16, 10.0), (16, 100.0), (32, 10.0),
                 (9, 10.0), (9, 100.0), (10, 10.0), (10, 100.0), (11, 10.0),
                 (11, 100.0)]:
        d = bessel_weighted_k_sum(K, x, "direct")
        k = bessel_weighted_k_sum(K, x, "kernel")
        assert abs(d.value - k.value) <= 1e-8, (K, x)


def _unfolded_kernel(K, x):
    """-i int_R K What(K v) cos(2 pi x cos 2 pi v) dv as twice the even
    integrand's integral over [0, vmax], vmax at the phi_hat cut: the
    kernel quadrature before its fold onto one half-period, GL-24 panels
    at rate / 11 per unit v, in passes of 4096 panels."""
    y = 2 * math.pi * x
    vmax = oscint._PHI_HAT_MAX / (math.pi * K)
    rate = 2 * math.pi * y + 4 * math.pi * K
    panels = int(max(rate * vmax / 11.0, 64))
    edges = np.linspace(0.0, vmax, panels + 1)
    total = 0.0
    for i0 in range(0, panels, 4096):
        v, wt = panel_rule(edges[i0 : i0 + 4097], 24)
        f = (
            (K / 2.0)
            * np.cos(3 * math.pi * K * v)
            * oscint._phi_hat(math.pi * K * v)
            * np.cos(y * np.cos(2 * math.pi * v))
        )
        total += float(f @ wt)
    return -2j * total


@pytest.mark.parametrize("x", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("K", [8, 9, 10, 11])
def test_folded_kernel_matches_unfolded_integral(K, x):
    # K runs over every residue mod 4, so each image's rotation
    # e^(3 pi i K j / 2) takes all four values
    got = bessel_weighted_k_sum(K, x, "kernel").value
    assert abs(got - _unfolded_kernel(K, x)) <= 1e-12, (K, x)


def test_kernel_past_panel_budget_refused_before_any_node(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("a node was built")

    monkeypatch.setattr(oscint, "panel_rule", no_nodes)
    monkeypatch.setattr(oscint, "_phi_hat", no_nodes)
    with pytest.raises(ValueError) as exc:
        bessel_weighted_k_sum(8, 1e7, "kernel")
    assert str(exc.value) == (
        "kernel quadrature at K = 8, x = 1e+07 needs 17944739 panels "
        "on [0, 1/2], over the budget of 2000000"
    )


def test_ksum_direct_reports_bessel_routes():
    # 2 pi x = 2 pi 1e4 sits in the recurrence regime for every order
    assert bessel_weighted_k_sum(32, 1e4, "direct").method == "recurrence"
    assert bessel_weighted_k_sum(8, 1.0, "direct").method == "series"


def _direct_sum_by_definition(K, x):
    """S1 by its definition: one Miller pass over this K's orders alone."""
    ks = [k for k in range(K + 1, 2 * K + 2) if k % 2 == 1]
    ws = [float(oscint._canonical_bump(np.array([2.0 * ((k - 1) / K) - 3.0]))[0]) for k in ks]
    jvs = special.bessel_j_orders([k - 1 for k, w in zip(ks, ws) if w != 0.0], 2 * math.pi * x)
    terms = [(k, w) for k, w in zip(ks, ws) if w != 0.0]
    return sum(((1j) ** (-k % 4) * w * jv.value for (k, w), jv in zip(terms, jvs)), 0j)


def test_criterion_5a_direct_sums_share_one_miller_pass_per_x(monkeypatch):
    passes = []
    miller = special._bessel_miller

    def counted(orders, x):
        passes.append(x)
        return miller(orders, x)

    monkeypatch.setattr(special, "_bessel_miller", counted)
    res = acceptance.criterion_bessel_sum_identity()
    assert len(passes) == len(set(passes)) == 4
    assert res.detail == "worst |direct - kernel| 1.55e-10 over 12 pairs"
    monkeypatch.undo()
    # the shared pass starts above every order of the union; where 2 pi x
    # sets the start, the values are those of a pass per K
    for x in (10.0, 100.0, 1000.0):
        for K, d in zip((8, 9, 16, 32), oscint._direct_k_sums((8, 9, 16, 32), x)):
            want = _direct_sum_by_definition(K, x)
            assert bessel_weighted_k_sum(K, x, "direct").value == want, (K, x)
            assert abs(d.value - want) <= (0.0 if x >= 100 else 1e-15), (K, x)


@pytest.mark.parametrize("order", [1, 3, 12, 24])
def test_panel_rule_exact_to_degree(order):
    edges = np.array([-1.3, -1.0, 0.2, 0.25, 1.7, 4.0])
    v, wt = panel_rule(edges, order)
    assert v.shape == wt.shape == (order * (len(edges) - 1),)
    assert np.all(np.diff(v) > 0)
    a, b = edges[0], edges[-1]
    for deg in range(2 * order):
        exact = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
        got = wt @ v**deg
        assert abs(got - exact) <= 1e-14 * max(1.0, abs(exact)), deg


def test_ksum_asymptotic_scale():
    for K in (8, 16, 32):
        x = float(4 * K * K)
        d = bessel_weighted_k_sum(K, x, "direct")
        a = bessel_weighted_k_sum(K, x, "asymptotic")
        assert abs(a.value - d.value) <= 0.10 * abs(d.value), K


def test_ksum_rejects_small_K_and_bad_mode():
    with pytest.raises(ValueError):
        bessel_weighted_k_sum(4, 10.0, "direct")
    with pytest.raises(ValueError):
        bessel_weighted_k_sum(8, 10.0, "sideways")


def test_sum_over_orders_identity_odd_classes():
    sigma = 6.0
    center = 12.0

    def g(u):
        return np.exp(-(((np.asarray(u, dtype=float) - center) / sigma) ** 2))

    def g_hat(v):
        v = np.asarray(v, dtype=float)
        return (
            sigma
            * math.sqrt(math.pi)
            * np.exp(2j * math.pi * center * v)
            * np.exp(-((sigma * math.pi * v) ** 2))
        )

    for a in (1, 3):
        for y in (5.0, 30.0):
            direct, kernel = sum_over_orders_check(a, y, g, g_hat, v_max=1.0)
            assert abs(direct - kernel) < 1e-10, (a, y)


def _per_panel_quadrature(w, h, tol):
    """The panel-at-a-time loop that the generation-batched quadrature
    replaced: one GL24/GL12 pair per popped panel, bisected on failure."""
    a, b = w.support
    x24, w24 = oscint._gl(24)
    x12, w12 = oscint._gl(12)

    def panel_pair(lo, hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        t24, t12 = mid + half * x24, mid + half * x12
        f24 = w(t24) * np.exp(1j * np.asarray(h(t24), dtype=float))
        f12 = w(t12) * np.exp(1j * np.asarray(h(t12), dtype=float))
        return half * np.dot(w24, f24), half * np.dot(w12, f12)

    edges = oscint._phase_edges(
        PhaseFamily.stack([h]), np.array([[a, b]], dtype=float), max_panels=3_000_000 // 72
    )[0]
    todo = [(float(lo), float(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    accepted = []
    span = b - a
    while todo:
        lo, hi = todo.pop()
        i24, i12 = panel_pair(lo, hi)
        err = abs(i24 - i12)
        share = tol * max((hi - lo) / span, 1e-6)
        if err <= share or (hi - lo) < 1e-13 * span:
            accepted.append((lo, i24))
        else:
            mid = 0.5 * (lo + hi)
            todo.append((mid, hi))
            todo.append((lo, mid))
    accepted.sort(key=lambda p: p[0])
    return complex(sum(v for _, v in accepted))


def _quadrature_corpus():
    p = pipeline.PipelineParams(N=1e4, t=1e3, K=10.0, Q=100.0)
    cases = [(w, h, 1e-12) for w, h in acceptance._offdiag_phase_cases(p)]
    cases += [(w, h, tol) for w, h in _regression_corpus() for tol in (2e-9, 1e-12)]
    log_phase = PhaseSpec(
        evaluator=lambda t: 4e4 * np.log(t), deriv=lambda t: 4e4 / t,
        deriv2=lambda t: -4e4 / t**2,
    )
    cases += [
        (bump_weight(1.0, 2.0), ZERO_PHASE, 1e-12),
        (bump_weight(1.0, 2.0), log_phase, 1e-9),
        (bump_weight(1.0, 2.0), quadratic_phase(1000.0), 1e-12),
        (gaussian_weight(0.0, 1.0, 8.0), quadratic_phase(30.0, center=0.0), 1e-12),
    ]
    return cases


def test_batched_quadrature_matches_per_panel_loop():
    cases = _quadrature_corpus()
    assert len(cases) == 12 + 100 + 4
    for w, h, tol in cases:
        got = quadrature(w, h, tol=tol).value
        ref = _per_panel_quadrature(w, h, tol)
        assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref)), (w.support, tol)


def _mp_phi_hat(xi, nodes):
    """phi_hat(xi) and phi_hat'(xi) from a composite 30-digit rule."""
    xi = mp.mpf(xi)
    value = mp.fsum(w * mp.cos(xi * s) for s, w in nodes)
    slope = -mp.fsum(w * s * mp.sin(xi * s) for s, w in nodes)
    return value, slope


def _mp_phi_hat_nodes():
    """Gauss-Legendre, 24 nodes a panel, on panels of [0, 0.995] that
    narrow toward s = 1 where the bump falls off; each node stands for
    +-s.  Past 0.995 the bump is below 1e-43.  At 48 nodes a panel the
    values and slopes at the knots below move by under 1e-30."""
    edges = [mp.mpf(k) / 20 for k in range(19)] + [
        mp.mpf(e) for e in ("0.95", "0.97", "0.98", "0.985", "0.99", "0.9925", "0.995")
    ]
    rule = GaussLegendre(mp.mp).calc_nodes(4, mp.mp.prec)
    nodes = []
    for a, b in zip(edges, edges[1:]):
        for x, w in rule:
            s = (a + b) / 2 + (b - a) / 2 * x
            nodes.append((s, (b - a) * w * mp.exp(1 - 1 / (1 - s * s))))
    return nodes


def test_phi_hat_table_built_in_row_blocks():
    oscint._gl(560)
    tracemalloc.start()
    try:
        c0, c1, c2, c3 = oscint._phi_hat_table.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the one-shot 18450 x 280 cosine and sine matrices alone take 41 MB each
    assert peak < 20e6, peak
    # each piece starts at phi_hat and its slope at its left knot: at 26
    # knots from 0 to 367.98 against 30-digit quadrature, the worst errors
    # are 4.4e-16 (value) and 3.6e-16 (slope), at the GL-560 rule's own
    # floor; the one-shot cosine build of the rule was off by 4.9e-16 and
    # 2.8e-16 there, so the bound is that build's worst
    h = oscint._PHI_HAT_STEP
    knots = [*range(0, 18400, 766), 18399]
    with mp.workdps(30):
        nodes = _mp_phi_hat_nodes()
        for i in knots:
            value, slope = _mp_phi_hat(i * mp.mpf(h), nodes)
            assert abs(c0[i] - value) <= 4.9e-16, (i, c0[i] - value)
            assert abs(c1[i] - slope) <= 4.9e-16, (i, c1[i] - slope)
    # and ends at the next knot's value and slope
    assert np.max(np.abs(c0[:-1] + h * (c1[:-1] + h * (c2[:-1] + h * c3[:-1])) - c0[1:])) <= 1e-15
    assert np.max(np.abs(c1[:-1] + h * (2 * c2[:-1] + 3 * h * c3[:-1]) - c1[1:])) <= 1e-15
    # phi_hat is even, and zero past the cut although the grid runs on
    xi = np.array([367.99, 368.0, 368.01, 368.5, 500.0])
    got = oscint._phi_hat(np.concatenate([xi, -xi]))
    assert np.array_equal(got[:5], got[5:])
    assert np.all(got[:2] != 0.0) and np.all(got[2:5] == 0.0)


@pytest.mark.parametrize("K", [8, 16, 32, 11])
def test_phi_hat_table_matches_direct_quadrature_at_kernel_nodes(K, monkeypatch):
    # the folded image sums P_c, P_s at the kernel's own nodes xi = pi K u
    # of criterion 5a's k-sums at x = 10 and 100, and of K = 11, whose
    # images take all four signs +-1, +-i: every seventh node, each
    # one below 0.1, where a spline's end condition would show, and each
    # one within 0.05 of the cut, against the image sums of the GL-560
    # quadrature of phi_hat itself, each image cut where it passes 368
    seen = []
    sums = oscint._image_sums

    def recorded(k, xi):
        seen.append(np.array(xi))
        return sums(k, xi)

    monkeypatch.setattr(oscint, "_image_sums", recorded)
    for x in (10.0, 100.0):
        bessel_weighted_k_sum(K, x, "kernel")
    xi = np.concatenate(seen)
    _, cut, _ = oscint._image_table(K)
    xi = np.concatenate([xi[::7], xi[xi < 0.1], xi[np.abs(xi - cut) < 0.05]])
    assert np.sum(xi < 0.1) >= 10
    assert np.any((xi > cut - 0.05) & (xi < cut)) and np.any((xi >= cut) & (xi < cut + 0.05))
    xs, ws = oscint._gl(560)
    phi_w = oscint._canonical_bump(xs) * ws
    images = math.ceil(2 * oscint._PHI_HAT_MAX / (math.pi * K))
    direct = np.zeros((2, len(xi)))
    for j in range(images):
        arg = xi + 0.5 * math.pi * K * j
        value = np.cos(np.outer(arg, xs)) @ phi_w
        value[arg > oscint._PHI_HAT_MAX] = 0.0
        turn = 3 * K * j % 4
        direct[turn % 2] += value if turn < 2 else -value
    got = sums(K, xi)
    # for even K every image's sign is real: the sine part is zero and
    # only the cosine part is tabulated
    assert len(got) == 1 + K % 2 and np.all(direct[len(got) :] == 0.0)
    assert np.max(np.abs(got - direct[: len(got)])) <= 5e-11


def _mp_gauss_legendre(n, x0):
    """The Gauss-Legendre node of order n near x0 and its weight, by
    Newton's method in the current mpmath precision."""
    x = mp.mpf(x0)
    for _ in range(10):
        p0, p1 = mp.mpf(1), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        step = p1 * (1 - x * x) / (n * (p0 - x * p1))
        x -= step
        if abs(step) < mp.mpf(10) ** (5 - mp.mp.dps):
            break
    p0, p1 = mp.mpf(1), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return x, 2 * (1 - x * x) / (n * p0) ** 2


@pytest.mark.parametrize("n", [12, 24, 64, 560])
def test_gauss_legendre_rule_against_mpmath(n):
    xs, ws = oscint._gl(n)
    assert xs.shape == ws.shape == (n,)
    assert np.all(np.diff(xs) > 0) and np.array_equal(xs, -xs[::-1])
    # every node of the small rules; at n = 560 the four at each end, where
    # the weights are hardest, and every ninth
    idx = range(n) if n <= 64 else sorted({*range(4), *range(0, n, 9), *range(n - 4, n)})
    with mp.workdps(30):
        for i in idx:
            x, w = _mp_gauss_legendre(n, xs[i])
            assert abs(float(x - xs[i])) <= 2e-16, (n, i)
            assert abs(float((w - ws[i]) / w)) <= 1e-12, (n, i)


def test_gauss_legendre_odd_rule_has_zero_node():
    for n in (1, 3, 25):
        xs, ws = oscint._gl(n)
        assert xs[n // 2] == 0.0 and abs(np.sum(ws) - 2.0) <= 1e-14
    assert oscint._gl(1)[1][0] == 2.0


def _same_estimate(a, b):
    return [repr(a.value), repr(a.abs_error), a.method] == [
        repr(b.value), repr(b.abs_error), b.method
    ]


@pytest.mark.parametrize("tol", [2e-9, 1e-12])
def test_family_quadrature_equals_single_calls_on_regression_corpus(tol):
    # bit for bit: the family's edges, acceptance and left-to-right sums
    # are each case's own
    cases = _regression_corpus()
    family = oscillatory_quadrature(
        oscint.WeightFamily.stack([w for w, _ in cases]),
        PhaseFamily.stack([h for _, h in cases]),
        tol=tol,
    )
    assert len(family) == len(cases)
    for (w, h), got in zip(cases, family):
        assert _same_estimate(got, quadrature(w, h, tol=tol)), w.support


def test_family_quadrature_equals_single_calls_on_criterion_6():
    p = pipeline.PipelineParams(N=1e4, t=1e3, K=10.0, Q=100.0)
    cases = acceptance._offdiag_phase_cases(p)
    family = oscillatory_quadrature(
        oscint.WeightFamily.stack([w for w, _ in cases]),
        PhaseFamily.stack([h for _, h in cases]),
        tol=1e-12,
    )
    for (w, h), got in zip(cases, family):
        assert _same_estimate(got, quadrature(w, h, tol=1e-12))
    g, f, draws = acceptance._vdc_corpus(20240801)
    assert len(draws) == len(g.supports) == 200
    reports = second_derivative_bound_check(g, f)
    for (kind, a, b, d, amp), got in zip(draws, reports):
        w = bump_weight(1.0, 2.0, amp) if kind == 0 else plateau_weight(1.0, 1.25, 1.75, 2.0, amp)
        h = PhaseSpec(
            evaluator=lambda x, a=a, b=b, d=d: a * x**2 + b * x + d * np.log(x),
            deriv=lambda x, a=a, b=b, d=d: 2 * a * x + b + d / x,
            deriv2=lambda x, a=a, d=d: 2 * a - d / x**2,
        )
        one = second_derivative_report(w, h)
        assert repr(got) == repr(one), (kind, a, b, d, amp)


def _nodes_used(w, h, tol):
    """The quadrature nodes one case evaluates, counted at its weight,
    and its number of initial panels."""
    seen = []
    counted = SmoothWeight(
        lambda t: (seen.append(t.size), w(t))[1], w.support, w.amp_scale, w.var_scale
    )
    quadrature(counted, h, tol=tol)
    edges = oscint._phase_edges(PhaseFamily.stack([h]), np.array([w.support]), 10**9)[0]
    return sum(seen), edges.size - 1


def test_family_quadrature_chunks_and_budgets_per_case(monkeypatch):
    # a generation split over many evaluator calls gives the same bits,
    # and the node budget holds per case: a family whose cases together
    # need more than max_nodes runs when each case fits
    cases = [
        (w, h) for w, h in _regression_corpus(n_cases=6) if _nodes_used(w, h, 1e-12)[0] < 2000
    ]
    needs, panels = zip(*(_nodes_used(w, h, 1e-12) for w, h in cases))
    budget = max(needs)
    assert len(cases) >= 3 and sum(needs) > budget and max(panels) <= (budget - 1) // 72
    w = oscint.WeightFamily.stack([w for w, _ in cases])
    h = PhaseFamily.stack([h for _, h in cases])
    whole = oscillatory_quadrature(w, h, tol=1e-12)
    assert all(map(_same_estimate, whole, oscillatory_quadrature(w, h, 1e-12, max_nodes=budget)))
    monkeypatch.setattr(oscint, "_CHUNK_NODES", 1000)
    assert all(map(_same_estimate, whole, oscillatory_quadrature(w, h, tol=1e-12)))
    with pytest.raises(QuadratureError) as exc:
        oscillatory_quadrature(w, h, tol=1e-12, max_nodes=budget - 1)
    assert exc.value.achieved_bound > 0


def test_weight_families_equal_their_members():
    t = np.linspace(0.9, 2.1, 301)
    amps = np.array([0.5, 1.0, 2.5])
    bumps = bump_weight(np.array([1.0, 1.2, 0.95]), 2.0, amps)
    plateaus = plateau_weight(1.0, 1.25, 1.75, 2.0, amps)
    for j, amp in enumerate(amps.tolist()):
        k = np.full(t.size, j)
        inside = (t >= bumps.supports[j, 0]) & (t <= bumps.supports[j, 1])
        one = bump_weight(float(bumps.supports[j, 0]), 2.0, amp)
        assert np.array_equal(bumps.evaluator(t[inside], k[inside]), one(t[inside]))
        one = plateau_weight(1.0, 1.25, 1.75, 2.0, amp)
        assert np.array_equal(plateaus.evaluator(t, k), one(t))
    with pytest.raises(ValueError):
        plateau_weight(np.array([1.0, 1.5]), 1.25, 1.75, 2.0)
