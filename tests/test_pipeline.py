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
    # one lattice, sized for the least modulus and the largest |m| of all
    # rows, serves both pairs; each pair's own call sizes its own lattice
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
    # past the profile pairs x lattice points of the J values, the
    # prediction is the signed Bessel table's entries, rows x inner nodes,
    # of each profile's Jacobi-Anger coefficients, to the entry: the inner
    # grid is sized at the x-range's end, as j_integral_work counts it.
    # Every profile is read on the lattice _j_lattice builds, and the
    # dense I kernel is not called
    tables, dense_calls = _count_profile_work(monkeypatch)
    profile, read = pipeline._i_profile, []

    def recorded_profile(ms, *args):
        read.append(ms)
        return profile(ms, *args)

    monkeypatch.setattr(pipeline, "_i_profile", recorded_profile)
    cs = (23, 24, 25, 26)
    offdiagonal_assembly(SMALL, cs)
    hits, _ = pipeline._assembly_plan(SMALL, cs)
    v = _j_lattice(hits, SMALL)
    profiles = {key for row in hits for key in (row[1:3], row[3:5])}
    pairs = {(row[1:3], row[3:5]) for row in hits}
    assert len(tables) == len(read) == len(profiles)
    assert all(np.array_equal(ms, v * SMALL.N_dual) for ms in read)
    assert j_integral_work(hits, SMALL) - len(pairs) * len(v) == sum(tables)
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
    [("defaults-assembly", 3744450), ("defaults-j-decay", 292902),
     ("criterion-8", 525802), ("far-assembly", 2303996712)],
    ids=["defaults-assembly", "defaults-j-decay", "criterion-8", "far-assembly"],
)
def test_j_integral_work_sizes_the_grid_without_building_it(case, figure, monkeypatch):
    # the point count and the end points come from M, with the floats of
    # the built lattice, so the figure is the one the built lattice gives
    # (pinned here) at the CLI defaults, criterion 8's rows and the far
    # assembly's 2.3e9; no profile is read
    p, rows = {
        "defaults-assembly": (SMALL, pipeline._assembly_plan(SMALL, (23, 24, 25, 26))[0]),
        "defaults-j-decay": (SMALL, j_decay_rows(SMALL, stationary_dual_index(SMALL, 25), 25)),
        "criterion-8": (CRIT8, j_decay_rows(CRIT8, stationary_dual_index(CRIT8, 100), 100)),
        "far-assembly": (FAR, pipeline._assembly_plan(FAR, (1, 2, 3, 4))[0]),
    }[case]
    size = pipeline._j_lattice_size(rows, p)
    v = _j_lattice(rows, p)
    points = math.ceil(2.5 * size) - 1
    assert (len(v), v[0], v[-1]) == (points, 0.5 + 1 / size, 0.5 + points / size)
    monkeypatch.setattr(pipeline, "_i_profile", None)
    monkeypatch.setattr(pipeline, "signed_bessel_table", None)
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


def _j_lattice(rows, p):
    """The J lattice v_j = 0.5 + j / M, j = 1 .. ceil(2.5 M) - 1, M from
    `_j_lattice_size`."""
    size = pipeline._j_lattice_size(rows, p)
    return 0.5 + np.arange(1, math.ceil(2.5 * size)) / size


def _gauss_legendre_j_grid(rows, p):
    """The Gauss-Legendre grid on [0.5, 3] that the J kernel used before its
    lattice, as an independent rule: 16 nodes a panel at 10 rad of the
    integrand's phase rate 2 pi (max |m| + 4 sqrt(N Ntil) / c), c the
    least modulus."""
    m_max = max(abs(row[0]) for row in rows)
    c = min(min(row[2], row[4]) for row in rows)
    rate = 2.0 * np.pi * (m_max + 4.0 * math.sqrt(p.N * p.N_dual) / c)
    panels = int(max(rate * 2.5 / 10.0, 32))
    return pipeline.panel_rule(np.linspace(0.5, 3.0, panels + 1), 16)


@pytest.mark.parametrize(
    "p, n, c, m_max, stride",
    [
        (CRIT8, stationary_dual_index(CRIT8, 100), 100, 1600.0, 11),
        (SMALL, 1, 24, 60.0, 1),
        (SMALL, 2, 25, 60.0, 1),
        (SMALL, 1, 23, 60.0, 1),
    ],
    ids=["crit8", "small-1-24", "small-2-25", "small-1-23"],
)
def test_i_profile_against_dense_oracle(p, n, c, m_max, stride):
    # the interpolant is fitted on the whole lattice j_integral_batch
    # uses; the dense kernel checks it on every point, or at criterion 8
    # on a stride of 11 (501 of 5502 points).  Past 1e-11 max |I|, the
    # dense sum's own rounding (phases up to ~1500 rad, ~2e-13 each,
    # against total weight int W) sets a floor; it matters at (2, 25),
    # where no stationary point leaves |I| at ~1e-7
    ms = _j_lattice([(m_max, n, c, n, c)], p) * p.N_dual
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
    assert len(tables) == 1
    assert j_integral_work(rows, CRIT8) - len(_j_lattice(rows, CRIT8)) == tables[0]
    assert dense_calls == []


J_CASES = {
    "criterion-8": (CRIT8, j_decay_rows(CRIT8, stationary_dual_index(CRIT8, 100), 100)),
    "defaults-assembly": (SMALL, pipeline._assembly_plan(SMALL, (23, 24, 25, 26))[0]),
}


@pytest.mark.parametrize("case", list(J_CASES))
def test_j_batch_against_dense_exponentials(case):
    # an independent rule: Gauss-Legendre on the panels the kernel used
    # before its lattice, with the profiles read on those nodes and one
    # dense exponential per row and node
    p, rows = J_CASES[case]
    v, wt = _gauss_legendre_j_grid(rows, p)
    u = pipeline._U.evaluator(v, np.zeros(v.size, dtype=np.intp))
    keys = {key for row in rows for key in (row[1:3], row[3:5])}
    profiles = {key: _i_profile(v * p.N_dual, *key, p) for key in keys}
    dense = np.array([
        np.exp(-2j * np.pi * m * v)
        @ (wt * profiles[(n1, c1)] * np.conj(profiles[(n2, c2)]) * u)
        for m, n1, c1, n2, c2 in rows
    ])
    got = j_integral_batch(rows, p)
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("case", list(J_CASES))
def test_j_batch_independent_of_lattice_above_the_rule(case, monkeypatch):
    # M carries every alias _J_BAND past the band, so 2M, whose aliases lie
    # M further out, moves no J value past the rounding floor
    p, rows = J_CASES[case]
    got = j_integral_batch(rows, p)
    size = pipeline._j_lattice_size
    monkeypatch.setattr(pipeline, "_j_lattice_size", lambda *args: 2 * size(*args))
    doubled = j_integral_batch(rows, p)
    assert np.max(np.abs(got - doubled)) <= 1e-14 * np.max(np.abs(got))


def test_j_batch_refuses_a_non_integer_frequency():
    # e(-m v_j) is periodic on the lattice only for integer m
    with pytest.raises(ValueError, match="must be integers"):
        j_integral_batch([(0.5, 1, 24, 1, 24)], SMALL)
    assert j_integral_batch([(2.0, 1, 24, 1, 24)], SMALL)[0] == j_integral_batch(
        [(2, 1, 24, 1, 24)], SMALL)[0]


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
    # the dual side samples h once per lattice point below x = 1 and takes
    # one FFT: no dense one-point call, no Gauss-Legendre grid.  The
    # direct side's bump takes its 601 n, the lattice's at most its
    # ceil(N/c) M - 1 points
    p, c = _crit7_params(500.0), 10
    calls = {"batch": 0, "inner": 0, "fft": 0}
    batch, inner, fft, size, bump = (
        pipeline.i_integral_batch, pipeline._inner_nodes, np.fft.fft,
        pipeline._window_size, pipeline._canonical_bump,
    )
    sizes, bumped = [], []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def recorded_size(*args):
        sizes.append(size(*args))
        return sizes[-1]

    def counted_bump(s):
        bumped.append(np.size(s))
        return bump(s)

    monkeypatch.setattr(pipeline, "i_integral_batch", counted("batch", batch))
    monkeypatch.setattr(pipeline, "_inner_nodes", counted("inner", inner))
    monkeypatch.setattr(np.fft, "fft", counted("fft", fft))
    monkeypatch.setattr(pipeline, "_window_size", recorded_size)
    monkeypatch.setattr(pipeline, "_canonical_bump", counted_bump)
    rep = poisson_check_s5(1, c, p)
    assert rep.status == "PASS"
    assert calls == {"batch": 0, "inner": 0, "fft": 1} and len(sizes) == 1
    assert bumped[0] == 601 and len(bumped) == 2
    assert 0 < bumped[1] <= math.ceil(p.N / c) * sizes[0] - 1


def test_window_lattice_layout():
    # M is the least integer past the rule, with h's frequency on [1, 2]
    # running from f_lo at v = 2 to f_hi at v = 1 (cycles per unit v) and
    # 400 cycles of margin; the ceil(N/c) rows of M samples hold h(1 + x) e^(-i root_m) at x_j = j c / (N M), checked
    # at 30 digits at the lattice's first and last live points and
    # between, and 0 at x = 0 and x >= 1.  c = 7 leaves a partial last
    # row, c = 5 none, and with N = 40 < c = 47 the lattice is one row
    for p, m, c in [
        (_crit7_params(100.0), 1, 7),
        (_crit7_params(500.0), 3, 5),
        (PipelineParams(N=40.0, t=20.0, K=2.0, Q=10.0), 2, 47),
    ]:
        n_lo, n_hi = poisson_check_s5(m, c, p).n_window
        root_m = 2 * math.pi * math.sqrt(m * p.N) / c
        f_hi = (p.t + root_m / 2) / (2 * math.pi)
        f_lo = (p.t / 2 + root_m / (2 * math.sqrt(2))) / (2 * math.pi)
        per = c / p.N
        rule = max(f_hi * per - n_lo, n_hi - f_lo * per) + 400 * per
        size = pipeline._window_size(float(m), n_lo, n_hi, c, p)
        assert size - 1 <= rule < size
        samples = pipeline._window_samples(float(m), size, c, p)
        rows = math.ceil(p.N / c)
        assert samples.shape == (rows * size,)
        j = np.arange(rows * size)
        outside = (j == 0) | (j * (c / (p.N * size)) >= 1.0)
        assert np.all(samples[outside] == 0.0)
        live = np.flatnonzero(~outside)
        with mp.workdps(30):
            for k in np.unique(live[np.linspace(0, live.size - 1, 9).astype(int)]).tolist():
                x = mp.mpf(k) * c / (mp.mpf(p.N) * size)
                v = 1 + x
                ref = mp.exp(1 - 1 / (1 - (2 * x - 1) ** 2)) * mp.expj(
                    p.t * mp.log(v) + 2 * mp.pi * mp.sqrt(m * p.N) * (mp.sqrt(v) - 1) / c
                )
                assert abs(samples[k] - complex(ref)) <= 1e-13, (c, k)


def test_i_window_fft_at_ulp_level():
    # the fold, the FFT and the assembly stay at the level of the
    # samples' own rounding (~1e-16): the window against a 30-digit DFT
    # of the same samples, folded at 30 digits, with e^(i root_m) and
    # e(-n N / c) exact, at every n of the window.  (0, 1, 7) has 86 rows
    # of M, the last partly past x = 1; (500, 1, 10) has criterion 7's
    # widest window, 168 terms
    for t, m, c in [(0.0, 1, 7), (500.0, 1, 10)]:
        p = _crit7_params(t)
        n_lo, n_hi = poisson_check_s5(m, c, p).n_window
        got = i_integral_window(m, n_lo, n_hi, c, p)
        size = pipeline._window_size(float(m), n_lo, n_hi, c, p)
        rows = pipeline._window_samples(float(m), size, c, p).reshape(-1, size)
        with mp.workdps(30):
            two_pi, N = 2 * mp.pi, mp.mpf(p.N)
            folded = [mp.fsum(mp.mpc(z) for z in col) for col in rows.T.tolist()]
            roots = [mp.expj(-two_pi * k / size) for k in range(size)]
            root_m = two_pi * mp.sqrt(m * N) / c
            for n in range(n_lo, n_hi + 1):
                dft = mp.fsum(f * roots[n * k % size] for k, f in enumerate(folded))
                ref = c / (N * size) * mp.expj(root_m - two_pi * n * N / c) * dft
                assert abs(got[n - n_lo] - complex(ref)) <= 1e-15 * TRIVIAL_I, (c, n)


@pytest.mark.parametrize("t, m, c", [(0.0, 1, 7), (500.0, 2, 2), (500.0, 1, 10)])
def test_i_window_independent_of_lattice_above_the_rule(monkeypatch, t, m, c):
    # past the rule no alias reaches the band, so a lattice twice as fine
    # reads the same window to the samples' rounding
    p = _crit7_params(t)
    n_lo, n_hi = poisson_check_s5(m, c, p).n_window
    got = i_integral_window(m, n_lo, n_hi, c, p)
    size = pipeline._window_size
    monkeypatch.setattr(pipeline, "_window_size", lambda *args: 2 * size(*args))
    finer = i_integral_window(m, n_lo, n_hi, c, p)
    assert np.max(np.abs(finer - got)) <= 1e-15 * TRIVIAL_I


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
# peaks and which sets criterion 7's worst scaled difference, (500, 3,
# 5), where the double-phase direct side erred most, a partial last row
# (c = 7), the widest period (c = 10), t = 0 at c = 1, and (0, 1, 2)
S5_CELLS = [(500.0, 2, 2), (500.0, 3, 5), (500.0, 1, 7), (500.0, 1, 10), (0.0, 1, 1),
            (0.0, 1, 2)]


@pytest.mark.parametrize("t, m, c", S5_CELLS)
def test_poisson_dual_side_against_long_double_dense_sum(t, m, c):
    # the folded, FFT'd dual side against the same lattice summed node by
    # node in long double: h at every node v = 1 + j c / (N M) below 2,
    # and e(-n N v / c) e(-m nbar / c) from exact integer residues of n N,
    # n j and m nbar, by n
    p = _crit7_params(t)
    rep = poisson_check_s5(m, c, p)
    n_lo, n_hi = rep.n_window
    size = pipeline._window_size(float(m), n_lo, n_hi, c, p)
    assert p.N == int(p.N)
    N = int(p.N)
    ld = np.longdouble
    two_pi = 8 * np.arctan(ld(1))
    j = np.arange(1, math.ceil(N / c) * size)
    x = j.astype(ld) * c / (ld(N) * size)
    j, x = j[x < 1], x[x < 1]
    s = 2 * x - 1
    amp = np.exp(1 - 1 / (1 - s * s)) * c / (ld(N) * size)
    phase = p.t * np.log1p(x) + two_pi / c * np.sqrt(ld(m) * N * (1 + x))
    h = amp * (np.cos(phase) + 1j * np.sin(phase))
    total = np.clongdouble(0)
    for n in range(n_lo, n_hi + 1):
        if math.gcd(n, c) == 1:
            turns = ld(n * N % c + (m % c) * pow(n, -1, c) % c) / c + (n * j % size).astype(ld) / size
            total += np.sum(h * (np.cos(two_pi * turns) - 1j * np.sin(two_pi * turns)))
    log_n = p.t * np.log(ld(N)) % two_pi
    dense = N * (np.cos(log_n) + 1j * np.sin(log_n)) * total
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
