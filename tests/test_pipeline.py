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
    rep = poisson_check_s5(1, 13, p)
    assert rep.status == "PASS"
    assert abs(rep.direct) > 1e-4  # healthy size
    assert rep.rel_diff <= 1e-6
    # truncated dual terms are reported and negligible
    assert rep.tail_mass <= 1e-8 * abs(rep.dual)


def test_poisson_identity_cancelling_regime():
    # sub-stationary: S5 collapses; agreement is still required at the
    # trivial-bound floor
    p = PipelineParams(N=500.0, t=100.0, K=9.0, Q=30.0)
    rep = poisson_check_s5(1, 3, p)
    assert rep.status == "PASS"
    assert rep.abs_diff <= 1e-6 * max(abs(rep.direct), 1e-3 * rep.trivial_bound)


def test_poisson_identity_degenerate_modulus():
    p = PipelineParams(N=400.0, t=1.0, K=1.0, Q=10.0)
    rep = poisson_check_s5(1, 1, p)
    assert rep.status == "PASS"


def test_poisson_identity_t_zero():
    p = PipelineParams(N=400.0, t=1e-12, K=1e-7, Q=10.0)
    rep = poisson_check_s5(2, 5, p)
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
    rep = offdiagonal_assembly(SMALL, (23, 24, 25, 26))
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
        offdiagonal_assembly(SMALL, (23, 24, 25, 26))


def test_assembly_rejects_tiny_grid():
    with pytest.raises(ValueError):
        offdiagonal_assembly(SMALL, (25,))


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
    # one-point calls; the fold samples h at its Chebyshev points, so the
    # whole check (the direct side's 601 included) evaluates the bump at
    # no more than an eighth of the grid's nodes
    calls = {"batch": 0, "inner": 0, "window": 0}
    batch, inner, window, bump = (
        pipeline.i_integral_batch, pipeline._inner_nodes, pipeline._window_nodes,
        pipeline._canonical_bump,
    )
    grid, bumped = [], []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def counted_window(*args):
        rows, wt, tail, tail_wt = window(*args)
        grid.append(rows.size + tail.size)
        return rows, wt, tail, tail_wt

    def counted_bump(s):
        bumped.append(np.size(s))
        return bump(s)

    monkeypatch.setattr(pipeline, "i_integral_batch", counted("batch", batch))
    monkeypatch.setattr(pipeline, "_inner_nodes", counted("inner", inner))
    monkeypatch.setattr(pipeline, "_window_nodes", counted("window", counted_window))
    monkeypatch.setattr(pipeline, "_canonical_bump", counted_bump)
    rep = poisson_check_s5(1, 10, _crit7_params(500.0))
    assert rep.status == "PASS"
    assert calls == {"batch": 0, "inner": 0, "window": 1}
    assert 0 < sum(bumped) <= grid[0] / 8


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
    # (~1e-16): the folded grid's own sum, stepped at 30 digits, is the
    # reference at every n of the window.  z(v)^n = e(-n N v / c) has
    # period c/N, so period k's nodes take their z-phase at their period-0
    # node, exactly: the sum is, at each period-0 node, the weight times
    # the 30-digit h summed over the periods at the stored nodes, and only
    # those nodes and the leftover piece's are stepped.  At t ~ 0 the
    # folded sums are coherent: a step of plain rounded phase (N / c) v
    # errs by 9e-15 TRIVIAL_I here, one without the two-product's low part
    # by 1.7e-15.  The cell has 85 whole periods and a leftover piece
    p, m, c = _crit7_params(0.0), 1, 7
    n_lo, n_hi = poisson_check_s5(m, c, p).n_window
    got = i_integral_window(m, n_lo, n_hi, c, p)
    rows, wt, tail, tail_wt = pipeline._window_nodes(
        float(m), max(abs(n_lo), abs(n_hi)), c, p
    )
    assert len(rows) == 85 and tail.size
    bump_rows = _canonical_bump(2.0 * rows - 3.0)
    bump_tail = _canonical_bump(2.0 * tail - 3.0)
    with mp.workdps(30):
        two_pi = 2 * mp.pi

        def h(w, x):
            x = mp.mpf(x)
            return w * mp.expj(p.t * mp.log(x) + two_pi / c * mp.sqrt(m * p.N * x))

        folded = [
            mp.fsum(h(w, x) for w, x in zip(ws, xs))
            for ws, xs in zip(bump_rows.T.tolist(), rows.T.tolist())
        ]
        sums = folded + [h(w, x) for w, x in zip(bump_tail.tolist(), tail.tolist())]
        weights = wt.tolist() + tail_wt.tolist()
        terms, steps = [], []
        for w, f, z in zip(weights, sums, rows[0].tolist() + tail.tolist()):
            z = mp.mpf(z)
            terms.append(w * f * mp.expj(-two_pi * n_lo * p.N * z / c))
            steps.append(mp.expj(-two_pi * p.N * z / c))
        for n in range(n_lo, n_hi + 1):
            ref = complex(mp.fsum(terms))
            assert abs(got[n - n_lo] - ref) <= 1e-15 * TRIVIAL_I
            terms = [a * b for a, b in zip(terms, steps)]


def test_poisson_direct_side_against_per_n_loop():
    # S(n, m; c) read by residue class, and each phase formed and reduced
    # mod 2 pi in long double, give the per-n loop's terms bit for bit;
    # N / c = 600 / 7 is not an integer
    p, m, c = _crit7_params(500.0), 3, 7
    rep = poisson_check_s5(m, c, p)
    two_pi = 8 * np.arctan(np.longdouble(1))
    re, im = [], []
    trivial = 0.0
    ns = np.arange(600, 1201)
    sums = kloosterman(ns, m, c).real.tolist()
    for n, wv, s in zip(ns.tolist(), _canonical_bump(2.0 * ns / p.N - 3.0).tolist(), sums):
        if wv == 0.0:
            continue
        trivial += wv * abs(s)
        n_ld = np.longdouble(n)
        phase = p.t * np.log(n_ld) + two_pi * np.sqrt(n_ld * m) / c
        term = wv * s * np.exp(1j * float(phase % two_pi))
        re.append(term.real)
        im.append(term.imag)
    assert rep.direct == complex(math.fsum(re), math.fsum(im))
    assert abs(rep.trivial_bound - trivial) <= 1e-14 * trivial


@pytest.mark.parametrize("t, m, c", [(500.0, 3, 7), (100.0, 2, 10), (0.0, 1, 1)])
def test_poisson_dual_assembly_against_per_n_loop(t, m, c):
    # the array pass over the window against a per-n loop over the same
    # I values: gcd filter, nbar by inv_mod, and the nonpositive and tail
    # masses cut at n <= 0 and n > cutoff
    p = _crit7_params(t)
    rep = poisson_check_s5(m, c, p)
    n_lo, n_hi = rep.n_window
    ivals = i_integral_window(m, n_lo, n_hi, c, p)
    total, nonpos, tail = 0j, 0.0, 0.0
    for n, ival in zip(range(n_lo, n_hi + 1), ivals.tolist()):
        if math.gcd(n, c) != 1:
            continue
        term = np.exp(-2j * math.pi * ((m % c) * pow(n, -1, c) % c) / c) * ival
        total += term
        nonpos += abs(term) if n <= 0 else 0.0
        tail += abs(term) if n > rep.tail_cutoff else 0.0
    prefac = p.N * np.exp(1j * p.t * math.log(p.N))
    assert abs(rep.dual - prefac * total) <= 1e-14 * p.N * np.sum(np.abs(ivals))
    assert abs(rep.nonpositive_mass - p.N * nonpos) <= 1e-13 * p.N * nonpos
    assert abs(rep.tail_mass - p.N * tail) <= 1e-13 * p.N * tail


# criterion 7's cells: (500, 2, 2), where the dual side's rounding
# peaks, (500, 3, 5), where the double-phase direct side erred most, a
# leftover piece (c = 7), the widest period (c = 10) and t = 0 at c = 1
S5_CELLS = [(500.0, 2, 2), (500.0, 3, 5), (500.0, 1, 7), (500.0, 1, 10), (0.0, 1, 1)]


@pytest.mark.parametrize("t, m, c", S5_CELLS)
def test_poisson_dual_side_against_long_double_dense_sum(t, m, c):
    # the folded, interpolated, stepped dual side against the same grid
    # summed node by node in long double: h at every stored node, z^n at
    # its period-0 node (the same function there) stepped in long double,
    # e(-m nbar / c) by n.  The interpolant's rounding, a smooth error
    # across the period, sets the new side's floor: worst 2.0e-12 of
    # scale over criterion 7's 54 cells, against 1.4e-12 for the node sum
    p = _crit7_params(t)
    rep = poisson_check_s5(m, c, p)
    n_lo, n_hi = rep.n_window
    rows, wt, tail, tail_wt = pipeline._window_nodes(
        float(m), max(abs(n_lo), abs(n_hi)), c, p
    )
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    v = np.concatenate([rows.ravel(), tail]).astype(ld)
    z = np.concatenate([np.tile(rows[0], len(rows)), tail])
    w = np.concatenate([np.tile(wt, len(rows)), tail_wt]).astype(ld)
    s = 2 * v - 3
    amp = w * np.exp(1 - 1 / (1 - s * s))
    phase = p.t * np.log(v) + two_pi / c * np.sqrt(ld(m) * ld(p.N) * v)
    cycles = (ld(p.N) * z.astype(ld) / c) % 1
    acc = amp * (np.cos(phase) + 1j * np.sin(phase))
    step = np.cos(two_pi * cycles) - 1j * np.sin(two_pi * cycles)
    acc *= step ** n_lo
    total = np.clongdouble(0)
    for n in range(n_lo, n_hi + 1):
        if math.gcd(n, c) == 1:
            char = two_pi * ld((m % c) * pow(n, -1, c) % c) / c
            total += (np.cos(char) - 1j * np.sin(char)) * acc.sum()
        acc *= step
    log_n = p.t * np.log(ld(p.N)) % two_pi
    dense = p.N * (np.cos(log_n) + 1j * np.sin(log_n)) * total
    scale = max(abs(rep.direct), 1e-3 * rep.trivial_bound)
    assert abs(rep.dual - complex(dense)) <= 5e-12 * scale


@pytest.mark.parametrize("t, m, c", S5_CELLS)
def test_poisson_direct_side_against_mpmath(t, m, c):
    # the long-double phases leave the direct side at its terms' own
    # rounding; in double they erred by up to 1.8e-11 of scale
    p = _crit7_params(t)
    rep = poisson_check_s5(m, c, p)
    ns = np.arange(600, 1201)
    with mp.workdps(30):
        two_pi = 2 * mp.pi
        sums = kloosterman(ns, m, c).real.tolist()
        ref = mp.fsum(
            wv * s * mp.expj(p.t * mp.log(n) + two_pi * mp.sqrt(n * m) / c)
            for n, wv, s in zip(
                ns.tolist(), _canonical_bump(2.0 * ns / p.N - 3.0).tolist(), sums
            )
            if wv != 0.0
        )
    scale = max(abs(rep.direct), 1e-3 * rep.trivial_bound)
    assert abs(rep.direct - complex(ref)) <= 1e-13 * scale
