import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from weylbound import pipeline
from weylbound.expsums import kloosterman
from weylbound.oscint import _canonical_bump
from weylbound.pipeline import (
    PipelineParams,
    _i_profile,
    _outer_nodes,
    i_integral_batch,
    i_integral_window,
    j_decay_report,
    j_integral_batch,
    offdiagonal_assembly,
    poisson_check_s5,
    stationary_dual_index,
)


def test_params_validation():
    with pytest.raises(ValueError):
        PipelineParams(N=0.0, t=1.0, K=1.0, Q=1.0)
    with pytest.raises(ValueError):
        PipelineParams(N=100.0, t=100.0, K=11.0, Q=10.0)
    p = PipelineParams(N=1e4, t=1e3, K=10.0, Q=100.0)
    assert abs(p.N_dual - 1e4) < 1e-9


def _second_derivative_bound(p):
    """8 max W / sqrt(r) for |I|: the phase curvature is dominated by
    -t/v^2, so r = t/(8 pi) in the e(x) normalization, whenever t > 0."""
    return 8.0 / math.sqrt(p.t / (8.0 * math.pi))


def test_i_integral_bound():
    p = PipelineParams(N=1000.0, t=400.0, K=20.0, Q=40.0)
    value = i_integral_batch(np.array([1.0]), 1, 10, p)[0]
    assert abs(value) <= _second_derivative_bound(p)


def test_i_integral_sqrt_t_scaling():
    # peak |I| over the dual window shrinks like sqrt at 4x the height
    N, c, m = 1000.0, 22, 1.0
    def amp(t):
        p = PipelineParams(N=N, t=t, K=math.sqrt(t) / 2, Q=40.0)
        best = 0.0
        for n in range(1, 9):
            v = i_integral_batch(np.array([m]), n, c, p)[0]
            best = max(best, abs(v))
        return best
    ratio = amp(400.0) / amp(1600.0)
    assert 1.4 <= ratio <= 3.5


def test_i_integral_t_zero_finite():
    p = PipelineParams(N=1000.0, t=1e-12, K=1e-7, Q=40.0)
    value = i_integral_batch(np.array([1.0]), 0, 10, p)[0]
    assert np.isfinite(value.real)
    assert abs(value) <= _second_derivative_bound(p)


def test_poisson_identity_stationary_regime():
    # c t / (2 pi N) ~ 1: the dual sum carries genuine stationary mass
    p = PipelineParams(N=600.0, t=300.0, K=17.0, Q=25.0)
    rep = poisson_check_s5(1, 13, p, tol=1e-6)
    assert rep.status == "PASS"
    assert abs(rep.direct) > 1e-4  # healthy size
    assert rep.rel_diff <= 1e-6
    # truncated dual terms are reported and negligible
    assert rep.tail_mass <= 1e-8 * abs(rep.dual)


def test_poisson_identity_cancelling_regime():
    # sub-stationary: S5 collapses; agreement is still required at the
    # trivial-bound floor
    p = PipelineParams(N=500.0, t=100.0, K=9.0, Q=30.0)
    rep = poisson_check_s5(1, 3, p, tol=1e-6)
    assert rep.status == "PASS"
    assert rep.abs_diff <= 1e-6 * max(abs(rep.direct), 1e-3 * rep.trivial_bound)


def test_poisson_identity_degenerate_modulus():
    p = PipelineParams(N=400.0, t=1.0, K=1.0, Q=10.0)
    rep = poisson_check_s5(1, 1, p, tol=1e-6)
    assert rep.status == "PASS"


def test_poisson_identity_t_zero():
    p = PipelineParams(N=400.0, t=1e-12, K=1e-7, Q=10.0)
    rep = poisson_check_s5(2, 5, p, tol=1e-6)
    assert rep.status == "PASS"


def test_poisson_desk_scale_guard():
    p = PipelineParams(N=4e5, t=10.0, K=3.0, Q=10.0)
    with pytest.raises(ValueError):
        poisson_check_s5(1, 3, p)


SMALL = PipelineParams(N=2500.0, t=400.0, K=10.0, Q=25.0)


def test_j_symmetry():
    a = j_integral_batch(np.array([2]), 1, 24, 2, 25, SMALL)[0]
    b = j_integral_batch(np.array([-2]), 2, 25, 1, 24, SMALL)[0]
    assert abs(a - np.conj(b)) <= 1e-9 + 1e-6 * abs(a)


def test_j_zero_positive_for_matched_profiles():
    v = j_integral_batch(np.array([0]), 1, 25, 1, 25, SMALL)[0]
    assert v.real > 0
    assert abs(v.imag) <= 1e-9 * v.real


def test_j_decay_report_small_params():
    n = stationary_dual_index(SMALL, 25)
    rep = j_decay_report(SMALL, n, 25)
    assert rep.status == "PASS"
    assert rep.a0 <= 100.0
    assert rep.worst_a1 <= 100.0
    assert rep.decay_ratio <= 1e-6
    assert rep.octave_trend_ok


def test_j_batch_matches_scalar():
    ms = np.array([0.0, 1.0, 3.0])
    batch = j_integral_batch(ms, 1, 24, 1, 24, SMALL)
    for m, bv in zip(ms, batch):
        sv = j_integral_batch(np.array([m]), 1, 24, 1, 24, SMALL)[0]
        assert abs(bv - sv) <= 1e-10 + 1e-8 * abs(sv)


def test_assembly_small_grid():
    rep = offdiagonal_assembly(SMALL, (23, 24, 25, 26), n_half_width=2, m_window=60)
    assert rep.status == "PASS"
    assert rep.diag_constant <= 100.0
    assert rep.offdiag_constant <= 100.0
    assert 1 / 3 <= rep.sparsity_ratio <= 3
    assert rep.offdiag_constant_alt == rep.offdiag_constant / SMALL.Q**2


def test_assembly_refuses_a_congruence_indicator_the_character_sum_denies(monkeypatch):
    # the cross-check raises, not asserts, so it holds under python -O too
    congruence = pipeline.charsum_congruence

    def denied(*args):
        return dataclasses.replace(congruence(*args), indicator=False)

    monkeypatch.setattr(pipeline, "charsum_congruence", denied)
    with pytest.raises(ArithmeticError, match="congruence indicator"):
        offdiagonal_assembly(SMALL, (23, 24, 25, 26), n_half_width=2, m_window=60)


def test_assembly_rejects_tiny_grid():
    with pytest.raises(ValueError):
        offdiagonal_assembly(SMALL, (25,), n_half_width=1)


CRIT8 = PipelineParams(N=1e4, t=1e3, K=10.0, Q=100.0)
# |I| <= int_1^2 W(v) dv; the mean of the bump over a uniform grid on
# [-1, 1] is that integral (spectrally accurate for a compact C-infinity bump)
TRIVIAL_I = float(np.mean(_canonical_bump(np.linspace(-1.0, 1.0, 4001))))


@pytest.mark.parametrize(
    "p, n, c, m_max, stride",
    [
        (CRIT8, stationary_dual_index(CRIT8, 100), 100, 1600.0, 97),
        (SMALL, 1, 24, 60.0, 7),
        (SMALL, 2, 25, 60.0, 7),
        (SMALL, 1, 23, 60.0, 7),
    ],
    ids=["crit8", "small-1-24", "small-2-25", "small-1-23"],
)
def test_i_profile_against_dense_oracle(p, n, c, m_max, stride):
    # the interpolant is fitted on the whole outer grid j_integral_batch
    # uses; the dense kernel checks it on a stride of those nodes.  Past
    # 1e-11 max |I|, the dense sum's own rounding (phases up to ~1500 rad,
    # ~2e-13 each, against total weight int W) sets a floor; it matters at
    # (2, 25), where no stationary point leaves |I| at ~1e-7
    v, _ = _outer_nodes(m_max, n, c, n, c, p)
    ms = v * p.N_dual
    got = _i_profile(ms, n, c, p)[::stride]
    dense = i_integral_batch(ms[::stride], n, c, p)
    tol = 1e-11 * np.max(np.abs(dense)) + 1e-12 * TRIVIAL_I
    assert np.max(np.abs(got - dense)) <= tol


def test_j_decay_reference_figures():
    # reference values from the dense 50256-node profile
    rep = j_decay_report(CRIT8, stationary_dual_index(CRIT8, 100), 100)
    assert abs(rep.a0 - 1.9201656839834222) <= 1e-9 * 1.9201656839834222
    assert abs(rep.worst_a1 - 3.1061219980383523) <= 1e-9 * 3.1061219980383523


def test_j_decay_dense_profile_work(monkeypatch):
    # the dense kernel only fits the interpolant: deg + 1 first arguments,
    # not the 50256 outer nodes
    dense = pipeline.i_integral_batch
    seen = []

    def counted(ms, n, c, p):
        seen.append(np.size(ms))
        return dense(ms, n, c, p)

    monkeypatch.setattr(pipeline, "i_integral_batch", counted)
    j_decay_report(CRIT8, stationary_dual_index(CRIT8, 100), 100)
    assert 0 < sum(seen) <= 300


def _crit7_params(t):
    # the parameters criterion 7 builds for height t
    t_eff = max(t, 1e-12)
    return PipelineParams(
        N=600.0, t=t_eff, K=max(min(math.sqrt(t_eff) / 2.0, 10.0), 1e-7), Q=20.0
    )


@pytest.mark.parametrize(
    "p, m, c",
    [
        (_crit7_params(500.0), 1, 10),
        (_crit7_params(500.0), 3, 7),
        (_crit7_params(100.0), 1, 7),
        (_crit7_params(0.0), 2, 5),
        (PipelineParams(N=600.0, t=300.0, K=17.0, Q=25.0), 1, 13),
        (_crit7_params(500.0), 1, 1),
        (PipelineParams(N=40.0, t=20.0, K=2.0, Q=10.0), 2, 47),
    ],
    ids=[
        "t500-m1-c10", "t500-m3-c7", "t100-m1-c7", "t0-m2-c5", "stationary-c13",
        "t500-m1-c1", "n-below-c47",
    ],
)
def test_i_window_against_dense_oracle(p, m, c):
    # the whole S5 dual window, one dense one-point call per n as oracle.
    # c = 7 and 13 leave a leftover piece after the whole periods c/N;
    # (500, 1, 1) is criterion 7's widest window (600 periods); at
    # N = 40 < c = 47 there is no whole period, only the leftover piece
    n_lo, n_hi = poisson_check_s5(m, c, p).n_window
    got = i_integral_window(m, n_lo, n_hi, c, p)
    dense = np.array([
        i_integral_batch(np.array([float(m)]), n, c, p)[0]
        for n in range(n_lo, n_hi + 1)
    ])
    tol = 1e-11 * np.max(np.abs(dense)) + 1e-12 * TRIVIAL_I
    assert np.max(np.abs(got - dense)) <= tol


def test_poisson_dual_window_work(monkeypatch):
    # the dual side builds one folded node grid and makes no dense
    # one-point calls
    calls = {"batch": 0, "inner": 0, "window": 0}
    batch, inner, window = (
        pipeline.i_integral_batch, pipeline._inner_nodes, pipeline._window_nodes
    )

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pipeline, "i_integral_batch", counted("batch", batch))
    monkeypatch.setattr(pipeline, "_inner_nodes", counted("inner", inner))
    monkeypatch.setattr(pipeline, "_window_nodes", counted("window", window))
    rep = poisson_check_s5(1, 10, _crit7_params(500.0))
    assert rep.status == "PASS"
    assert calls == {"batch": 0, "inner": 0, "window": 1}


def test_window_nodes_fold_layout():
    # whole periods c/N from v = 1, then the leftover piece up to 2, no
    # panel wider than the dense grid's; with no whole period the grid is
    # the dense one
    p = _crit7_params(100.0)
    for c, periods in ((5, 120), (7, 85)):
        rows, wt, tail, tail_wt = pipeline._window_nodes(1.0, 20, c, p)
        density = pipeline._panel_density(1.0, 20, c, p)
        assert rows.shape == (periods, wt.size) and 1.0 < rows[0, 0]
        assert np.allclose(np.diff(rows, axis=0), c / p.N, rtol=0, atol=1e-14)
        assert wt.sum() == pytest.approx(c / p.N)
        assert wt.size / 20 >= density * c / p.N  # panels per period
        rest = 1.0 - periods * c / p.N
        assert (tail.size == 0) == (p.N % c == 0)
        assert tail_wt.sum() == pytest.approx(rest, abs=1e-15)
        assert tail.size / 20 >= density * rest and np.all(tail < 2.0)
    q = PipelineParams(N=40.0, t=20.0, K=2.0, Q=10.0)
    rows, wt, tail, tail_wt = pipeline._window_nodes(2.0, 400, 47, q)
    dense_v, dense_wt = pipeline._inner_nodes(2.0, 400, 47, q)
    assert rows.size == 0
    assert np.array_equal(tail, dense_v) and np.array_equal(tail_wt, dense_wt)


def test_i_window_stepped_phase_at_ulp_level():
    # the stepped phase stays at the level of the node sum's own rounding
    # (~1e-16): a 30-digit sum over the folded grid's own nodes, stepped
    # at 30 digits, is the reference at every n of the window.  z(v)^n = e(-n N v / c) has
    # period c/N, so period k's nodes take their z-phase at their period-0
    # node, exactly; h is taken at the stored nodes.  At t ~ 0 the folded
    # sums are coherent: a step of plain rounded phase (N / c) v errs by
    # 9e-15 TRIVIAL_I here, one without the two-product's low part by
    # 1.7e-15.  The cell has 85 whole periods and a leftover piece
    p, m, c = _crit7_params(0.0), 1, 7
    n_lo, n_hi = poisson_check_s5(m, c, p).n_window
    got = i_integral_window(m, n_lo, n_hi, c, p)
    rows, wt, tail, tail_wt = pipeline._window_nodes(
        float(m), max(abs(n_lo), abs(n_hi)), c, p
    )
    assert len(rows) == 85 and tail.size
    nodes = np.concatenate([rows.ravel(), tail])
    z_nodes = np.concatenate([np.tile(rows[0], len(rows)), tail])
    weights = np.concatenate([np.tile(wt, len(rows)), tail_wt])
    weights *= _canonical_bump(2.0 * nodes - 3.0)
    with mp.workdps(30):
        two_pi = 2 * mp.pi
        terms, steps = [], []
        for w, x, z in zip(weights.tolist(), nodes.tolist(), z_nodes.tolist()):
            x, z = mp.mpf(x), mp.mpf(z)
            phase = p.t * mp.log(x) + two_pi / c * mp.sqrt(m * p.N * x)
            terms.append(w * mp.expj(phase - two_pi * n_lo * p.N * z / c))
            steps.append(mp.expj(-two_pi * p.N * z / c))
        for n in range(n_lo, n_hi + 1):
            ref = complex(mp.fsum(terms))
            assert abs(got[n - n_lo] - ref) <= 1e-15 * TRIVIAL_I
            terms = [a * b for a, b in zip(terms, steps)]


def test_poisson_direct_side_against_per_n_loop():
    # S(n, m; c) read by residue class gives the per-n loop's terms bit for
    # bit; N / c = 600 / 7 is not an integer
    p, m, c = _crit7_params(500.0), 3, 7
    rep = poisson_check_s5(m, c, p)
    re, im = [], []
    trivial = 0.0
    ns = range(600, 1201)
    for n, wv in zip(ns, _canonical_bump(2.0 * np.array(ns) / p.N - 3.0).tolist()):
        if wv == 0.0:
            continue
        s = kloosterman(n, m, c).real
        trivial += wv * abs(s)
        term = wv * s * np.exp(1j * (p.t * math.log(n) + 2 * math.pi * math.sqrt(n * m) / c))
        re.append(term.real)
        im.append(term.imag)
    assert rep.direct == complex(math.fsum(re), math.fsum(im))
    assert abs(rep.trivial_bound - trivial) <= 1e-14 * trivial
