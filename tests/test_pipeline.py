import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from weylbound import pipeline, special
from weylbound.expsums import kloosterman
from weylbound.oscint import _canonical_bump
from weylbound.pipeline import (
    PipelineParams,
    _i_profile,
    _outer_nodes,
    i_integral_batch,
    i_integral_window,
    j_decay_report,
    j_decay_rows,
    j_integral_batch,
    j_integral_work,
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
    assert rep.scaled_diff <= 1e-6
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


def test_poisson_identity_without_direct_terms_fails():
    # n = 2 lies in N < n < 2N, but the bump underflows to 0 there, so the
    # scale max(|direct|, 1e-3 trivial bound) is 0: nothing is compared
    p = PipelineParams(N=1.0001, t=1.0, K=1.0, Q=3.0)
    rep = poisson_check_s5(1, 2, p)
    assert rep.direct == 0 and rep.trivial_bound == 0
    assert rep.scaled_diff == math.inf and rep.status == "FAIL"


def test_poisson_desk_scale_guard():
    p = PipelineParams(N=4e5, t=10.0, K=3.0, Q=10.0)
    with pytest.raises(ValueError):
        poisson_check_s5(1, 3, p)


SMALL = PipelineParams(N=2500.0, t=400.0, K=10.0, Q=25.0)


def test_j_symmetry():
    a = j_integral_batch([(2, 1, 24, 2, 25)], SMALL)[0]
    b = j_integral_batch([(-2, 2, 25, 1, 24)], SMALL)[0]
    assert abs(a - np.conj(b)) <= 1e-9 + 1e-6 * abs(a)


def test_j_zero_positive_for_matched_profiles():
    v = j_integral_batch([(0, 1, 25, 1, 25)], SMALL)[0]
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
    rows = [(m, 1, 24, 1, 24) for m in (0, 1, 3)]
    batch = j_integral_batch(rows, SMALL)
    for row, bv in zip(rows, batch):
        sv = j_integral_batch([row], SMALL)[0]
        assert abs(bv - sv) <= 1e-10 + 1e-8 * abs(sv)


def test_j_batch_over_two_profile_pairs_matches_per_pair_calls():
    # one grid, sized for the least modulus and the largest |m| of all
    # rows, serves both pairs; each pair's own call sizes its own grid
    pair_a, pair_b = (1, 24, 1, 24), (1, 24, 2, 25)
    rows = [(0, *pair_a), (2, *pair_b), (3, *pair_a), (-5, *pair_b)]
    batch = j_integral_batch(rows, SMALL)
    for pair in (pair_a, pair_b):
        mine = [i for i, row in enumerate(rows) if row[1:] == pair]
        alone = j_integral_batch([rows[i] for i in mine], SMALL)
        for bv, sv in zip(batch[mine], alone):
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


def _count_profile_work(monkeypatch):
    """Record the entries (rows x inner nodes) of every signed Bessel table
    the profiles build, and count the dense I kernel's calls."""
    tables, dense_calls = [], []
    table, dense = pipeline.signed_bessel_table, pipeline.i_integral_batch

    def counted_table(kmax, zs):
        out = table(kmax, zs)
        tables.append(out.size)
        return out

    def counted_dense(*args):
        dense_calls.append(args)
        return dense(*args)

    monkeypatch.setattr(pipeline, "signed_bessel_table", counted_table)
    monkeypatch.setattr(pipeline, "i_integral_batch", counted_dense)
    return tables, dense_calls


def test_assembly_work_predicts_the_profile_fits(monkeypatch):
    # past the hits x outer nodes of the J values, the prediction is the
    # signed Bessel table's entries, rows x inner nodes, of each profile's
    # Jacobi-Anger coefficients, to the entry: the inner grid is sized at
    # the x-range's end, as j_integral_work counts it.  The dense I kernel
    # is not called
    tables, dense_calls = _count_profile_work(monkeypatch)
    cs = (23, 24, 25, 26)
    offdiagonal_assembly(SMALL, cs)
    hits, _ = pipeline._assembly_plan(SMALL, cs)
    v, _ = _outer_nodes(hits, SMALL)
    profiles = {key for row in hits for key in (row[1:3], row[3:5])}
    assert len(tables) == len(profiles)
    assert j_integral_work(hits, SMALL) - len(hits) * len(v) == sum(tables)
    assert dense_calls == []


def test_assembly_work_cap_admits_the_checked_scales():
    # the CLI defaults (SMALL) and criterion 8's point sit far below the
    # cap, for the assembly's hits and the J-decay rows alike; N = 1e5 at
    # Q = 3, whose assembly takes 164 s, sits above it
    for p, cs in ((SMALL, (23, 24, 25, 26)), (CRIT8, (98, 99, 100, 101))):
        c = int(p.Q)
        for rows in (pipeline._assembly_plan(p, cs)[0],
                     j_decay_rows(p, stationary_dual_index(p, c), c)):
            assert j_integral_work(rows, p) < pipeline.J_WORK_MAX / 10
    hits, _ = pipeline._assembly_plan(FAR, (1, 2, 3, 4))
    assert j_integral_work(hits, FAR) > pipeline.J_WORK_MAX


@pytest.mark.parametrize(
    "case, figure",
    [("defaults-assembly", 3979400), ("defaults-j-decay", 491360),
     ("criterion-8", 1022860), ("far-assembly", 2411373188)],
)
def test_j_integral_work_sizes_the_grid_without_building_it(case, figure, monkeypatch):
    # the node count and the end nodes come from the panel count, with the
    # floats of the built grid, so the figure is the one a built grid gave
    # (pinned here) at the CLI defaults, criterion 8's rows and the 164 s
    # assembly's 2.4e9
    p, rows = {
        "defaults-assembly": (SMALL, pipeline._assembly_plan(SMALL, (23, 24, 25, 26))[0]),
        "defaults-j-decay": (SMALL, j_decay_rows(SMALL, stationary_dual_index(SMALL, 25), 25)),
        "criterion-8": (CRIT8, j_decay_rows(CRIT8, stationary_dual_index(CRIT8, 100), 100)),
        "far-assembly": (FAR, pipeline._assembly_plan(FAR, (1, 2, 3, 4))[0]),
    }[case]
    v, _ = _outer_nodes(rows, p)
    panels = pipeline._outer_panels(rows, p)
    ends = (pipeline.panel_rule(np.array([0.5, 2.5 / panels + 0.5]), 16)[0].min(),
            pipeline.panel_rule(np.array([(panels - 1) * (2.5 / panels) + 0.5, 3.0]), 16)[0].max())
    assert (len(v), v.min(), v.max()) == (16 * panels, *ends)
    monkeypatch.setattr(pipeline, "_outer_nodes", None)
    assert j_integral_work(rows, p) == figure


def test_assembly_rejects_tiny_grid():
    with pytest.raises(ValueError):
        offdiagonal_assembly(SMALL, (25,))


CRIT8 = PipelineParams(N=1e4, t=1e3, K=10.0, Q=100.0)
# N = 1e5 at Q = 3, whose assembly takes 164 s
FAR = PipelineParams(N=1e5, t=400.0, K=10.0, Q=3.0)
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
    v, _ = _outer_nodes([(m_max, n, c, n, c)], p)
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
    # criterion 8 makes no dense I call: its one profile's coefficients
    # come from one signed Bessel table, whose entries are the profile
    # term of j_integral_work
    tables, dense_calls = _count_profile_work(monkeypatch)
    n = stationary_dual_index(CRIT8, 100)
    j_decay_report(CRIT8, n, 100)
    rows = j_decay_rows(CRIT8, n, 100)
    v, _ = _outer_nodes(rows, CRIT8)
    assert len(tables) == 1
    assert j_integral_work(rows, CRIT8) - len(rows) * len(v) == tables[0]
    assert dense_calls == []


@pytest.mark.parametrize("case", ["criterion-8", "defaults-assembly"])
def test_j_batch_against_dense_exponentials(case):
    # the panel-factored e(-m v) against one dense exponential per row
    # and outer node, on the same grid and the same profiles
    p, rows = {
        "criterion-8": (CRIT8, j_decay_rows(CRIT8, stationary_dual_index(CRIT8, 100), 100)),
        "defaults-assembly": (SMALL, pipeline._assembly_plan(SMALL, (23, 24, 25, 26))[0]),
    }[case]
    v, wt = _outer_nodes(rows, p)
    u = pipeline._U.evaluator(v, np.zeros(v.size, dtype=np.intp))
    keys = {key for row in rows for key in (row[1:3], row[3:5])}
    profiles = {key: _i_profile(v * p.N_dual, *key, p) for key in keys}
    dense = np.array([
        np.exp(-2j * np.pi * np.outer([m], v))[0]
        @ (wt * profiles[(n1, c1)] * np.conj(profiles[(n2, c2)]) * u)
        for m, n1, c1, n2, c2 in rows
    ])
    got = j_integral_batch(rows, p)
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


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
        nodes = window(*args)
        u, _, periods, tail, _ = nodes
        grid.append(periods * u.size + tail.size)
        return nodes

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
    for c, whole in ((5, 120), (7, 85)):
        u, wt, periods, tail, tail_wt = pipeline._window_nodes(1.0, 20, c, p)
        density = pipeline._panel_density(1.0, 20, c, p)
        assert periods == whole and u.shape == wt.shape
        assert 1.0 < u[0] and u[-1] < 1.0 + c / p.N
        assert wt.sum() == pytest.approx(c / p.N)
        assert wt.size / 20 >= density * c / p.N  # panels per period
        rest = 1.0 - periods * c / p.N
        assert (tail.size == 0) == (p.N % c == 0)
        assert tail_wt.sum() == pytest.approx(rest, abs=1e-15)
        assert tail.size / 20 >= density * rest and np.all(tail < 2.0)
        assert np.all(tail > 1.0 + periods * c / p.N)
    q = PipelineParams(N=40.0, t=20.0, K=2.0, Q=10.0)
    u, wt, periods, tail, tail_wt = pipeline._window_nodes(2.0, 400, 47, q)
    dense_v, dense_wt = pipeline._inner_nodes(2.0, 400, 47, q)
    assert periods == 0 and u.size == wt.size == 0
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
    u, wt, periods, tail, tail_wt = pipeline._window_nodes(
        float(m), max(abs(n_lo), abs(n_hi)), c, p
    )
    assert periods == 85 and tail.size
    # period k's nodes, u + k c/N
    rows = u + (c / p.N) * np.arange(periods)[:, None]
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
        for w, f, z in zip(weights, sums, u.tolist() + tail.tolist()):
            z = mp.mpf(z)
            terms.append(w * f * mp.expj(-two_pi * n_lo * p.N * z / c))
            steps.append(mp.expj(-two_pi * p.N * z / c))
        for n in range(n_lo, n_hi + 1):
            ref = complex(mp.fsum(terms))
            assert abs(got[n - n_lo] - ref) <= 1e-15 * TRIVIAL_I
            terms = [a * b for a, b in zip(terms, steps)]


def test_poisson_direct_side_against_per_n_loop():
    # S(n, m; c) read by residue class, and each phase t log n +
    # 2 pi sqrt(nm) / c formed as a double-double pair and reduced mod 2 pi
    # before it rounds to double, give the per-n loop's terms bit for bit;
    # N / c = 600 / 7 is not an integer
    p, m, c = _crit7_params(500.0), 3, 7
    rep = poisson_check_s5(m, c, p)
    log_hi, log_lo = special._log_n(1200)
    re, im = [], []
    trivial = 0.0
    ns = np.arange(600, 1201)
    sums = kloosterman(ns, m, c).real.tolist()
    for n, wv, s in zip(ns.tolist(), _canonical_bump(2.0 * ns / p.N - 3.0).tolist(), sums):
        if wv == 0.0:
            continue
        trivial += wv * abs(s)
        # sqrt(nm) = r + r_lo, less whole multiples of c, then over c
        r = math.sqrt(n * m)
        sq, sq_err = special._two_product(r, r)
        r_lo = (n * m - sq - sq_err) / (2.0 * r)
        r -= c * math.floor(r / c)
        turns = r / c
        rc, rc_err = special._two_product(turns, float(c))
        turns_lo = (r - rc - rc_err + r_lo) / c
        # 2 pi (turns + turns_lo) plus t (log_hi + log_lo), as one pair
        a, a_err = special._two_product(turns, 2 * math.pi)
        b, b_err = special._two_product(p.t, log_hi[n - 1])
        phase, err = special._two_sum(a, b)
        err += (a_err + b_err + p.t * log_lo[n - 1] + turns * special._TWO_PI_LO
                + turns_lo * 2 * math.pi)
        term = wv * s * np.exp(1j * float(special._reduce_two_pi(phase, err)))
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
# leftover piece (c = 7), the widest period (c = 10), t = 0 at c = 1, and
# (0, 1, 2), which sets criterion 7's worst scaled difference
S5_CELLS = [(500.0, 2, 2), (500.0, 3, 5), (500.0, 1, 7), (500.0, 1, 10), (0.0, 1, 1),
            (0.0, 1, 2)]


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
    u, wt, periods, tail, tail_wt = pipeline._window_nodes(
        float(m), max(abs(n_lo), abs(n_hi)), c, p
    )
    # the whole grid, periods x nodes, then the leftover piece
    rows = u + (c / p.N) * np.arange(periods)[:, None]
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    v = np.concatenate([rows.ravel(), tail]).astype(ld)
    z = np.concatenate([np.tile(u, periods), tail])
    w = np.concatenate([np.tile(wt, periods), tail_wt]).astype(ld)
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
    # the double-double phases leave the direct side at its terms' own
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
