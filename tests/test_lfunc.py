import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from weylbound import acceptance, lfunc, special
from weylbound.arith import is_prime
from weylbound.lfunc import (
    CUT_RATIO,
    CoefficientSource,
    LFunctionSpec,
    _AfeContour,
    _log_gamma_factor,
    afe_lengths,
    afe_weight,
    central_value,
    conductor_sqrt,
    delta_spec,
    exponent_scan,
    holomorphic_spec,
    load_maass_file,
    scan_summary,
    sn_sum,
)
from weylbound.modforms import delta_qexp, dim_cusp
from weylbound.oscint import bump_weight


def reference_central_value(t: float) -> complex:
    """L(1/2 + it, Delta) through the completed-form incomplete-gamma
    series: an independent oracle (no AFE machinery involved)."""
    with mp.workdps(30):
        w = mp.mpf("6") + 1j * mp.mpf(t)
        k = 12
        a = delta_qexp(60)
        tot = mp.mpf(0)
        for n in range(1, 41):
            x = 2 * mp.pi * n
            tot += a[n] * (
                mp.gammainc(w, x) / x**w + mp.gammainc(k - w, x) / x ** (k - w)
            )
        return complex(tot * (2 * mp.pi) ** w / mp.gamma(w))


def test_afe_weight_limits(delta2000):
    v = afe_weight(1e-6, 50.0, delta2000, 1.0)
    assert abs(v - 1.0) <= 1e-6
    sc = conductor_sqrt(delta2000, 50.0)
    v = afe_weight(1e3 * sc, 50.0, delta2000, 1.0)
    assert abs(v) <= 1e-10


def test_afe_weight_real_at_t0(delta2000):
    v = afe_weight(0.7, 0.0, delta2000, 1.0)
    assert abs(v.imag) < 1e-12


def test_central_value_against_independent_oracle(delta12000):
    for t in (0.0, 10.0):
        got = central_value(delta12000, t).value
        ref = reference_central_value(t)
        assert abs(got - ref) <= 1e-9, t


def test_central_value_t0_real_and_balance_stable(delta2000):
    vals = [central_value(delta2000, 0.0, b).value for b in (0.5, 1.0, 2.0)]
    assert abs(vals[1].imag) < 1e-10
    for v in vals:
        assert abs(v - vals[1]) <= 1e-8


def test_conjugate_symmetry(delta2000):
    for t in (5.0, 40.0):
        vp = central_value(delta2000, t).value
        vm = central_value(delta2000, -t).value
        assert abs(vp - np.conj(vm)) <= 1e-9


def test_two_balance_agreement_t100(delta12000):
    v1 = central_value(delta12000, 100.0, 1.0).value
    v2 = central_value(delta12000, 100.0, 2.0).value
    assert abs(v1 - v2) <= 1e-6 * max(1.0, abs(v1))


def test_functional_equation_closure(delta2000):
    # real coefficients: L(1/2 - it) is the conjugate of L(1/2 + it)
    for t in (7.0, 30.0):
        vp = central_value(delta2000, t).value
        vm = central_value(delta2000, -t).value
        assert abs(vp - np.conj(vm)) <= 1e-9, t


def test_insufficient_coefficients_raise(delta2000):
    with pytest.raises(ValueError):
        central_value(delta2000, 2000.0)


def test_balance_domain(delta2000):
    with pytest.raises(ValueError):
        central_value(delta2000, 1.0, balance=10.0)
    with pytest.raises(ValueError):
        afe_weight(1.0, 1.0, delta2000, 0.01)


def test_weight16_central_value_balance_stable():
    spec = holomorphic_spec(16, 1000)
    vals = [central_value(spec, 20.0, b).value for b in (0.5, 1.0, 2.0)]
    for v in vals:
        assert abs(v - vals[1]) <= 1e-8 * max(1.0, abs(vals[1]))


def _piece_edge_t(spec, edge: float) -> float:
    """A t whose log-u range ends exactly on the piece edge `edge`, so the
    top piece and the exact range share their upper end."""

    def end(t):
        return math.log(CUT_RATIO * conductor_sqrt(spec, t) + 8.0)

    # Delta's conductor: 2 pi sqrt(C) = |6 + it|
    sqrt_c = (math.exp(edge) - 8.0) / CUT_RATIO
    t = math.sqrt((2 * math.pi * sqrt_c) ** 2 - 36.0)
    for _ in range(64):  # a few ulps either way if the rounding misses
        if end(t) == edge:
            return t
        t = float(np.nextafter(t, np.inf if end(t) < edge else -np.inf))
    raise AssertionError(f"no t ends on piece edge {edge}")


# the top of the first octave piece, log 480
_EDGE = lfunc._OCTAVE_FLOOR + lfunc._OCTAVE


def _interp_case(name, request, tmp_path):
    if name in ("maass", "maass-odd"):
        path = tmp_path / "maass.txt"
        path.write_text(_toy_maass_lines(n_max=2000, parity=name[6:] or "even"))
        return load_maass_file(str(path))[0], 30.0
    if name == "k16":
        return holomorphic_spec(16, 1000), 20.0
    t = name.split("@")[1]
    # past t = 1000 the AFE sums need more coefficients: balance 2's dual
    # length is about 9.6 t
    spec = request.getfixturevalue({"2500": "delta30000", "4990": "delta50000"}.get(t, "delta12000"))
    if name == "delta@edge":
        return spec, _piece_edge_t(spec, _EDGE)
    return spec, float(t)


def _dense_central_value(spec, t, balance) -> complex:
    """central_value's two Dirichlet pieces and root factor, with every V
    from the dense contour sum."""
    contour = _AfeContour(spec, t)
    n1, n2 = afe_lengths(spec, t, balance)
    lam = spec.coefficients.values
    s = complex(0.5, t)
    ns1 = np.arange(1, n1 + 1, dtype=float)
    ns2 = np.arange(1, n2 + 1, dtype=float)
    sum1 = np.sum(lam[1 : n1 + 1] * ns1 ** (-s) * contour.weight(ns1 * balance))
    sum2 = np.sum(lam[1 : n2 + 1] * ns2 ** (s - 1.0) * np.conj(contour.weight(ns2 / balance)))
    lg = _log_gamma_factor(spec, np.array([s, 1 - s]))
    return complex(sum1 + spec.root_number * np.exp(lg[1] - lg[0]) * sum2)


def _block_around(t):
    """t and two neighbours below it: for t > 0 its log-u range ends the
    block's."""
    return [t, t - 0.1, t - 0.25]


def _cutoff_read(table, t_index, balance):
    """V at the AFE arguments of `balance` at one t of a `_cutoff_table`:
    the t's column read at its balance's positions, cut to its lengths."""
    v, positions, lengths, _ = table
    n1, n2 = dict(zip(positions, lengths[t_index]))[balance]
    pos = positions[balance]
    return v[:, t_index].take(np.concatenate((pos[0][:n1], pos[1][:n2])))


@pytest.mark.parametrize(
    "case",
    [
        "delta@0", "delta@10", "delta@100", "delta@500", "delta@1000", "delta@2500",
        "delta@4990", "delta@-250", "delta@edge", "k16", "maass",
    ],
)
def test_interpolated_weight_against_dense_oracle(case, request, tmp_path):
    spec, t = _interp_case(case, request, tmp_path)
    ts = _block_around(t)
    assert len(ts) >= 3
    balances = (0.25, 0.5, 1.0, 2.0, 4.0)
    table = lfunc._cutoff_table(spec, ts, balances)
    lengths = table[2]
    if case == "delta@edge":
        assert max(lfunc._log_u_range(spec, s)[1] for s in ts) == _EDGE
    rows = lfunc._block_values(spec, ts, balances)
    for i, (s, row) in enumerate(zip(ts, rows)):
        assert lengths[i] == [afe_lengths(spec, s, b) for b in balances]
        args = {
            b: np.concatenate([np.arange(1, n1 + 1) * b, np.arange(1, n2 + 1) / b])
            for b, (n1, n2) in zip(balances, lengths[i])
        }
        u = np.unique(np.concatenate(list(args.values())))
        dense = _AfeContour(spec, s).weight(u)
        u_max = CUT_RATIO * conductor_sqrt(spec, s) + 8.0
        # the fitted range ends at the extreme arguments any balance in [1/4, 4] forms
        assert u.min() >= 0.25 and u.max() <= u_max
        for b in balances:
            # the positional read gives V at this t's own arguments of b, in
            # the block's table, from this t's column
            want = dense[np.searchsorted(u, args[b])]
            assert np.max(np.abs(_cutoff_read(table, i, b) - want)) <= 1e-10, (s, b)
        # a row holds its own t's values at the block's balances alone: a
        # balance the block was not built for (in the fitted range or below
        # it) and another t of the same block both raise
        other = ts[(i + 1) % len(ts)]
        for bad in ((s, 0.99 * 0.25), (s, 1.3), (other, 1.0)):
            with pytest.raises(ValueError, match="row holds"):
                central_value(spec, *bad, _row=row)
    for b in balances:
        if max(afe_lengths(spec, t, b)) > spec.coefficients.n_max:
            continue
        est = central_value(spec, t, b, _row=rows[0])
        assert abs(est.value - _dense_central_value(spec, t, b)) <= est.abs_error, b


def test_central_value_dense_weight_work(delta12000, monkeypatch):
    # the interpolant's coefficients are closed-form: neither a block build
    # nor central_value calls the dense contour sum, however many AFE terms
    # the balances need
    dense = _AfeContour.weight
    seen = []

    def counted(self, u):
        seen.append(np.size(u))
        return dense(self, u)

    monkeypatch.setattr(_AfeContour, "weight", counted)
    (row,) = lfunc._block_values(delta12000, [1000.0], (1.0, 2.0))
    central_value(delta12000, 1000.0, 1.0, _row=row)
    central_value(delta12000, 1000.0, 2.0, _row=row)
    central_value(delta12000, 999.0)
    assert seen == []


def test_scan_one_cutoff_work(delta12000, monkeypatch):
    # a block sends each distinct AFE argument of the two balances over all
    # of its t's to one basis evaluation per occupied piece, each piece its
    # run of the sorted union: at t = 1000 alone the 9553 half-integers and
    # integers up to the balance-2 dual length, not the 21492 arguments n,
    # n, 2n and n/2 of the four Dirichlet pieces, split at the grid's edges
    # just below 240, 480, ..., 3840 (F lies 4e-7 under log 240)
    block, stirling = lfunc.chebyshev_block, special._stirling
    evaluated, lifted = [], []

    def counted_block(coef, lo, hi, x, valid=None, out=None):
        evaluated.append(np.size(x))
        return block(coef, lo, hi, x, valid, out)

    def counted_stirling(*args):
        lifted.append(np.size(args[0]))
        return stirling(*args)

    monkeypatch.setattr(lfunc, "chebyshev_block", counted_block)
    monkeypatch.setattr(special, "_stirling", counted_stirling)
    (rec,) = lfunc._scan_block(delta12000, [1000.0], (1.0, 2.0))
    assert rec.accepted
    assert evaluated == [479, 480, 960, 1920, 3840, 1874] and sum(evaluated) == 9553
    # one gamma-factor call per block: s + w, s and 1 - s together
    assert len(lifted) == 1
    evaluated.clear()
    lifted.clear()
    ts = [1000.0, 1000.5, 1001.0, 1001.5]
    assert lfunc._scan_blocks(delta12000, ts) == [ts]
    recs = lfunc._scan_block(delta12000, ts, (1.0, 2.0))
    assert all(r.accepted for r in recs)
    union = set()
    for t in ts:
        for b in (1.0, 2.0):
            n1, n2 = afe_lengths(delta12000, t, b)
            union |= set((np.arange(1, n1 + 1) * b).tolist())
            union |= set((np.arange(1, n2 + 1) / b).tolist())
    assert len(evaluated) == 6 and sum(evaluated) == len(union)
    # s + w at every contour node, s and 1 - s, for each t
    assert lifted == [len(ts) * (lfunc._CONTOUR_PANELS * lfunc._CONTOUR_NODES + 2)]


def _pieces_used(spec, t, monkeypatch):
    """The (lo, hi) of every basis evaluation of a block of one at t."""
    block, used = lfunc.chebyshev_block, []

    def recorded(coef, lo, hi, x, valid=None, out=None):
        used.append((lo, hi))
        return block(coef, lo, hi, x, valid, out)

    with monkeypatch.context() as m:
        m.setattr(lfunc, "chebyshev_block", recorded)
        lfunc._cutoff_table(spec, [t], (1.0, 2.0))
    return used


def test_piece_edges_are_one_fixed_grid(delta12000, monkeypatch):
    # every t's pieces are a prefix of one grid, to the bit: the remainder
    # [log 1/4, F] with F = log 240 on the 2^-20 grid, then octaves of one
    # exact width from F up to the first that reaches the t's log-u end
    lo, floor, width = math.log(0.25), lfunc._OCTAVE_FLOOR, lfunc._OCTAVE
    assert floor * 2**20 == round(math.log(240.0) * 2**20)
    assert width * 2**20 == round(math.log(2.0) * 2**20)
    grid = [(lo, floor)] + [(floor + j * width, floor + (j + 1) * width) for j in range(8)]
    counts = {}
    for t in (1000.0, 1000.25, 2.0, 45.0, 500.0, 4990.0, -250.0):
        # the table needs no coefficients, so t = 4990 reads delta12000 too
        used = _pieces_used(delta12000, t, monkeypatch)
        assert used == grid[: len(used)]
        end = lfunc._log_u_range(delta12000, t)[1]
        assert used[-1][0] < end <= used[-1][1] or used == grid[:1]
        counts[t] = len(used)
    assert counts[1000.0] == counts[1000.25] == 6 and counts[500.0] == 5
    assert counts[4990.0] == 8 and counts[-250.0] == 4
    assert counts[2.0] == counts[45.0] == 1


def test_cutoff_table_below_the_octave_floor_is_one_piece(delta12000):
    # every log-u end of t in [10, 45] lies below F: the block's table is
    # one signed Jacobi-Anger product and one basis evaluation over the
    # remainder [log 1/4, F], its range check at the block's end, to the bit
    ts = [45.0, 44.9, 10.0]
    lo, end = lfunc._log_u_range(delta12000, ts[0])
    assert end < lfunc._OCTAVE_FLOOR
    v, positions, lengths, _ = lfunc._cutoff_table(delta12000, ts, (1.0, 2.0))
    amp, _ = lfunc._amplitudes(delta12000, ts)
    tau = lfunc._contour_nodes(lfunc._CONTOUR_PANELS)[0]
    phase = np.exp(-1j * (0.5 * (lo + lfunc._OCTAVE_FLOOR) * tau))
    table = lfunc._bessel_table(0.5 * (lfunc._OCTAVE_FLOOR - lo))
    coef = special.jacobi_anger_coefficients(table, (amp * phase).T)
    longest = np.max(lengths, axis=0)
    lu = np.log(np.unique(np.concatenate([
        lfunc._afe_arguments(n1, n2, b) for (n1, n2), b in zip(longest, (1.0, 2.0))
    ])))
    want = special.chebyshev_block(coef, lo, lfunc._OCTAVE_FLOOR, lu, (lo, end))
    want *= np.exp(-lu)[:, None]
    assert np.array_equal(v, want)
def test_scan_blocks_match_blocks_of_one(delta12000):
    # the shared gamma pass, coefficient product and basis evaluation change
    # nothing but rounding against each t built alone: a t's coefficients
    # are its own product with the Bessel table, and the basis sums each
    # value in panels that do not depend on the block's other arguments
    for lo, hi, step in ((20.0, 23.0, 0.1), (990.0, 1000.0, 0.5)):
        recs = exponent_scan(delta12000, lo, hi, step)
        blocks = lfunc._scan_blocks(delta12000, [r.t for r in recs])
        assert max(len(b) for b in blocks) > 1
        for rec in recs:
            (alone,) = lfunc._scan_block(delta12000, [rec.t], (1.0, 2.0))
            tol = 1e-12 * max(1.0, rec.modulus)
            assert alone.t == rec.t and alone.accepted == rec.accepted
            assert abs(alone.modulus - rec.modulus) <= tol
            assert abs(alone.consistency_gap - rec.consistency_gap) <= tol


def test_scan_blocks_follow_the_byte_budget(delta12000):
    # consecutive runs, at most _SCAN_BLOCK long at low t and within the
    # byte budget of cutoff values at high t: 13 t's at t = 1000 and 2 at
    # t = 4900, whatever the pool size
    for ts, longest in (
        ([10.0 + 0.002 * i for i in range(400)], lfunc._SCAN_BLOCK),
        ([1000.0 + 0.1 * i for i in range(40)], 13),
        ([4900.0 + 0.5 * i for i in range(9)], 2),
    ):
        blocks = lfunc._scan_blocks(delta12000, ts)
        assert blocks == [ts[i : i + longest] for i in range(0, len(ts), longest)]
        # the budget holds, and one more t's column would break it
        table = lfunc._cutoff_table(delta12000, blocks[0], (1.0, 2.0))[0]
        assert table.shape[1] == longest and table.nbytes <= lfunc._BLOCK_BYTES
        assert longest == lfunc._SCAN_BLOCK or table.nbytes / longest * (longest + 1) > (
            lfunc._BLOCK_BYTES
        )
    # no t-dependent basis range: t's far apart share a block
    v, _, lengths, _ = lfunc._cutoff_table(delta12000, [10.0, 14.0, 1000.0], (1.0,))
    assert v.shape == (np.max(lengths), 3)


def test_contour_block_memory(delta12000):
    # the T_k rows are built in chunks: ten t's at t = 1000 (9.6k distinct
    # arguments, 220 rows) allocate less than 8 MB, table build and
    # Dirichlet columns included
    ts = [1000.0 + 0.25 * i for i in range(10)]
    lfunc._bessel_table.cache_clear()
    tracemalloc.start()
    try:
        lfunc._block_values(delta12000, ts, (1.0, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_bessel_tables_built_once_per_process(monkeypatch):
    # criterion 9 (balances 0.5, 1 and 2 at four t's, conjugate pairs and
    # the scan over [100, 1000]) reads two Bessel tables, each built once:
    # the remainder's, 162 rows for F = log 240, and the octaves', 36 rows
    built = []
    table = lfunc.signed_bessel_table

    def counted(kmax, zs):
        built.append(kmax)
        return table(kmax, zs)

    monkeypatch.setattr(lfunc, "signed_bessel_table", counted)
    lfunc._bessel_table.cache_clear()
    assert acceptance.criterion_l_values().status == "PASS"
    assert sorted(built) == [35, 161]
    assert lfunc._bessel_table.cache_info().currsize == 2


def test_cutoff_table_is_order_independent(delta12000):
    t = 1000.0
    # two blocks built for the balances in opposite orders
    table12 = lfunc._cutoff_table(delta12000, [t], (1.0, 2.0))
    table21 = lfunc._cutoff_table(delta12000, [t], (2.0, 1.0))
    assert np.array_equal(table12[0], table21[0])
    for b in (1.0, 2.0):
        assert np.array_equal(_cutoff_read(table12, 0, b), _cutoff_read(table21, 0, b))
    (row12,) = lfunc._block_values(delta12000, [t], (1.0, 2.0))
    (row21,) = lfunc._block_values(delta12000, [t], (2.0, 1.0))
    g1 = central_value(delta12000, t, 1.0, _row=row12)
    g2 = central_value(delta12000, t, 2.0, _row=row12)
    h2 = central_value(delta12000, t, 2.0, _row=row21)
    h1 = central_value(delta12000, t, 1.0, _row=row21)
    assert g1 == h1 and g2 == h2
    # an argument shared by several pieces reads one table entry: balance
    # 1's two pieces both run over the integers, and balance 2's first
    # piece over the even ones
    positions = table12[1]
    p1, p2 = positions[1.0]
    assert np.array_equal(p1, p2)
    n1, n2 = afe_lengths(delta12000, t, 1.0)
    w = _cutoff_read(table12, 0, 1.0)
    assert n1 == n2 and np.array_equal(w[:n1], w[n1:])
    q1 = positions[2.0][0]
    k = min(len(q1), len(p1) // 2)
    assert k > 1000 and np.array_equal(q1[:k], p1[1 : 2 * k : 2])


def test_cutoff_out_of_range_raises(delta12000):
    # a row made for t = 10 at balance 1 serves neither another t, even one
    # whose lengths fit, nor another balance; a failed read leaves the row
    # as it was
    (row,) = lfunc._block_values(delta12000, [10.0], (1.0,))
    value = central_value(delta12000, 10.0, 1.0, _row=row)
    assert all(m <= n for m, n in zip(afe_lengths(delta12000, 9.9, 1.0), row.lengths[1.0]))
    for t, b in ((1000.0, 1.0), (9.9, 1.0), (10.0, 2.0)):
        with pytest.raises(ValueError, match="row holds"):
            central_value(delta12000, t, b, _row=row)
    assert central_value(delta12000, 10.0, 1.0, _row=row) is value
    assert row.lengths == {1.0: afe_lengths(delta12000, 10.0, 1.0)}


def test_bare_contour_has_no_cutoff(delta12000):
    # a contour is the dense oracle alone: it holds the kept amplitudes,
    # their nodes and the root factor, which is the block's to the bit
    contour = _AfeContour(delta12000, 10.0)
    assert set(vars(contour)) == {"amp", "w", "root_factor"}
    assert contour.root_factor == lfunc._cutoff_table(delta12000, [10.0], (1.0,))[3][0]
    assert abs(contour.weight(np.array([1.0]))[0]) > 0.0


@pytest.mark.parametrize(
    "ts, balances",
    [([10.1, 10.2, 10.3], (1.0, 2.0)), ([1000.0, 1000.5, 1001.0], (1.0, 2.0, 4.0))],
    ids=["t10", "t1000"],
)
def test_central_value_is_direct_arithmetic_bit_for_bit(delta12000, ts, balances):
    # a block's central values equal, bit for bit, columns formed by angle
    # addition and a searchsorted lookup in the same block's table: the
    # first t's column is lambda(n) n^(-1/2) e^(-i t log n) from its phase
    # in double-double (`_unit_phases` on log n split from long double),
    # each later one the column before times e^(-i d log n) for its step d
    # taken exactly as a pair, formed the same way.  The balances of one t
    # slice one column, formed at the block's longest length (capped at
    # n_max: balance 4 passes it at t = 1000)
    spec = delta12000
    lam, n_max = spec.coefficients.values, spec.coefficients.n_max
    assert lfunc._scan_blocks(spec, ts) == [ts]
    table, _, _, root = lfunc._cutoff_table(spec, ts, balances)
    longest = np.max([[afe_lengths(spec, t, b) for b in balances] for t in ts], axis=0)
    u = np.unique(np.concatenate([
        lfunc._afe_arguments(n1, n2, b) for (n1, n2), b in zip(longest, balances)
    ]))
    big = min(int(longest.max()), n_max)
    log_ld = np.log(np.arange(1, big + 1, dtype=np.longdouble))
    log_n = (log_ld.astype(float), (log_ld - log_ld.astype(float)).astype(float))
    ns = np.arange(1, big + 1.0)
    coef = lam[1 : big + 1] / np.sqrt(ns) * lfunc._unit_phases((ts[0], 0.0), log_n)
    rows = lfunc._block_values(spec, ts, balances)
    for i, (t, row) in enumerate(zip(ts, rows)):
        if i:
            step = special._two_sum(t, -ts[i - 1])
            coef = coef * lfunc._unit_phases(step, log_n)
        assert row.t == t
        for b in balances:
            n1, n2 = afe_lengths(spec, t, b)
            assert row.lengths[b] == (n1, n2)
            n = max(n1, n2)
            if n > n_max:
                with pytest.raises(ValueError, match=f"need coefficients to n = {n}"):
                    central_value(spec, t, b, _row=row)
                continue
            args = np.concatenate([np.arange(1, n1 + 1.0) * b, np.arange(1, n2 + 1.0) / b])
            pos = np.searchsorted(u, args)
            assert np.array_equal(u[pos], args)
            v = table[pos, i]
            sum1 = complex(np.sum(coef[:n1] * v[:n1]))
            sum2 = complex(np.sum(coef[:n2] * v[n1:])).conjugate()
            got = central_value(spec, t, b, _row=row)
            assert got.value == sum1 + root[i] * sum2, (t, b)
    if max(balances) == 4.0:
        assert max(afe_lengths(spec, ts[-1], 4.0)) > n_max


@pytest.mark.parametrize(
    "fixture, ts",
    [
        ("delta12000", [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]),
        ("delta12000", [10.0 + 0.1 * i for i in range(8)]),
        ("delta12000", [1000.0 + 0.5 * i for i in range(13)]),
        ("delta50000", [4990.0 + 0.5 * i for i in range(16)]),
        ("delta12000", list(1000.0 + np.cumsum([0.0, 0.5, 0.75, 0.25, 1.5, -1.0]))),
    ],
    ids=["0.0", "10.0", "1000.0", "4990.0", "nonuniform"],
)
def test_dirichlet_column_against_mpmath(fixture, ts, request, monkeypatch):
    # every column of a block, lambda(m) m^(-1/2) e^(-i t log m) by angle
    # addition from the block's first t, against lambda(m) m^(-s) in 40
    # digits at 150 m up to the column's length (the block's longest): a
    # block straddling t = 0, uniform steps (at t = 10 the grid's 0.1 rounds
    # to two distinct steps), and steps 0.5, 0.75, 0.25, 1.5 and -1
    spec = request.getfixturevalue(fixture)
    columns, lengths, formed = [], [], lfunc._dirichlet_columns

    def kept(spec, ts, n):
        lengths.append(n)
        for column in formed(spec, ts, n):
            columns.append(column)
            yield column

    monkeypatch.setattr(lfunc, "_dirichlet_columns", kept)
    lfunc._block_values(spec, ts, (1.0, 2.0))
    (n,) = lengths
    assert n == min(max(max(afe_lengths(spec, t, b)) for t in ts for b in (1.0, 2.0)),
                    spec.coefficients.n_max)
    assert len(columns) == len(ts) and all(len(c) == n for c in columns)
    lam = spec.coefficients.values
    ms = np.unique(np.linspace(1, n, 150).astype(int))
    worst = 0.0
    with mp.workdps(40):
        for t, column in zip(ts, columns):
            s = mp.mpc(0.5, t)
            for m in ms:
                want = mp.mpf(float(lam[m])) * mp.power(int(m), -s)
                worst = max(worst, float(abs(want - column[m - 1]) / abs(want)))
    assert worst <= 1e-13, worst


@pytest.mark.parametrize(
    "steps, distinct",
    [([], 0), ([0.5] * 12, 1), ([0.5, 0.75, 0.25, 1.5, -1.0, 0.5, 0.75], 5)],
    ids=["one", "uniform", "nonuniform"],
)
def test_block_makes_one_exponential_per_distinct_step(delta12000, steps, distinct, monkeypatch):
    # a block of B t's with k distinct steps makes 1 + k full-length complex
    # exponentials (the first t's phase, then one per step), not B
    ts = list(1000.0 + np.cumsum([0.0, *steps]))
    seen, unit = [], lfunc._unit_phases

    def counted(x, log_n):
        seen.append(len(log_n[0]))
        return unit(x, log_n)

    monkeypatch.setattr(lfunc, "_unit_phases", counted)
    lfunc._block_values(delta12000, ts, (1.0, 2.0))
    n = max(max(afe_lengths(delta12000, t, b)) for t in ts for b in (1.0, 2.0))
    assert seen == [n] * (1 + distinct)


def test_unit_phases_against_mpmath():
    # e^(-i x log n) in double-double against 40 digits over n up to
    # PREC_MAX: x up to T_MAX as one double, and steps taken exactly as a
    # two-sum pair.  The error is a few eps in the reduced phase plus x
    # times the long-double rounding of log n (the reduction's own split is
    # checked in test_special)
    from fractions import Fraction

    hi, lo = special._log_n(lfunc.PREC_MAX)
    eps_ld = float(np.finfo(np.longdouble).eps)
    ns = np.unique(np.geomspace(1, lfunc.PREC_MAX, 200).astype(int))
    steps = [(4999.75, 1000.0), (1000.1, 1000.0), (0.25, -0.5), (-4990.3, 1.0 / 3.0)]
    xs = [(lfunc.T_MAX, 0.0), (-4990.3, 0.0), (0.5, 0.0)]
    for a, b in steps:
        d = special._two_sum(a, -b)
        assert Fraction(d[0]) + Fraction(d[1]) == Fraction(a) - Fraction(b)
        xs.append(d)
    for x in xs:
        got = lfunc._unit_phases(x, (hi[ns - 1], lo[ns - 1]))
        with mp.workdps(40):
            xm = mp.mpf(x[0]) + mp.mpf(x[1])
            for n, g in zip(ns.tolist(), got):
                err = float(abs(mp.exp(-1j * xm * mp.log(n)) - mp.mpc(g)))
                assert err <= 8 * special.EPS + abs(x[0]) * math.log(n) * eps_ld, (x, n, err)


@pytest.mark.parametrize(
    "balances", [(1.0, 2.0), (0.5, 1.0, 2.0), (1.3,), (0.25, 1.3, 4.0)],
    ids=["scan", "criterion9", "1.3", "mixed"],
)
def test_sorted_union_is_np_unique(balances):
    # the union of the AFE argument runs, and each run's positions in it,
    # equal np.unique's with its inverse, at the lengths of t = 0, 10 and
    # 1000
    spec = delta_spec(20)
    for t in (0.0, 10.0, 1000.0):
        runs = []
        for b in balances:
            n1, n2 = afe_lengths(spec, t, b)
            args = lfunc._afe_arguments(n1, n2, b)
            runs += [args[:n1], args[n1:]]
        u, positions = lfunc._sorted_union(runs)
        want, inverse = np.unique(np.concatenate(runs), return_inverse=True)
        assert np.array_equal(u, want)
        assert np.array_equal(np.concatenate(positions), inverse)
        assert [len(p) for p in positions] == [len(r) for r in runs]


def test_scan_builds_no_contour_and_one_length_pair_per_balance(delta2000, monkeypatch):
    # a scan reads every L-value from its blocks' rows: no dense contour is
    # built, and afe_lengths runs once per (t, balance), in the block
    built, sized = [], []
    init, lengths = _AfeContour.__init__, lfunc.afe_lengths

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_lengths(*args):
        sized.append(args[1:])
        return lengths(*args)

    monkeypatch.setattr(_AfeContour, "__init__", counted_init)
    monkeypatch.setattr(lfunc, "afe_lengths", counted_lengths)
    recs = exponent_scan(delta2000, 20.0, 24.0, 0.25)
    assert len(recs) == 17
    assert built == []
    assert sorted(sized) == sorted((r.t, b) for r in recs for b in lfunc._SCAN_BALANCES)


def test_scan_block_releases_each_contour(delta2000, monkeypatch):
    # _scan_one pops its t's row, so each t's values are read once, by
    # that t's record
    left = []
    scan_one = lfunc._scan_one

    def wrapped(spec, t, balances):
        left.append(sorted(lfunc._scanning.rows))
        return scan_one(spec, t, balances)

    monkeypatch.setattr(lfunc, "_scan_one", wrapped)
    ts = [20.25, 20.5, 20.75]
    assert lfunc._scan_blocks(delta2000, ts) == [ts]
    recs = lfunc._scan_block(delta2000, ts, (1.0, 2.0))
    assert [r.t for r in recs] == ts
    assert left == [ts, ts[1:], ts[2:]]


def _mp_root_factor(spec, t) -> complex:
    """eps(f) gamma(1 - s) / gamma(s) of the completed L-function in
    mpmath, with the gamma factor built from the spec's shifts:
    Gamma_R(z) = pi^(-z/2) Gamma(z/2) and Gamma_C(z) = 2 (2 pi)^(-z) Gamma(z)."""
    with mp.workdps(40):
        s = mp.mpc(0.5, t)

        def gamma_factor(z):
            out = mp.mpf(1)
            for mu in spec.gamma_r:
                out *= mp.pi ** (-(z + mu) / 2) * mp.gamma((z + mu) / 2)
            for nu in spec.gamma_c:
                out *= 2 * (2 * mp.pi) ** (-(z + nu)) * mp.gamma(z + nu)
            return out

        return complex(spec.root_number * gamma_factor(1 - s) / gamma_factor(s))


@pytest.mark.parametrize("case", ["delta", "k16", "maass", "maass-odd"])
def test_contour_root_factor_against_mpmath(case, request, tmp_path):
    spec = _interp_case(case if case != "delta" else "delta@0", request, tmp_path)[0]
    for t in (0.0, 10.0, 1000.0, -250.0):
        omega = _AfeContour(spec, t).root_factor
        want = _mp_root_factor(spec, t)
        # the phase of omega is 2 Im log gamma(s), of size |t| log |t|, so a
        # double evaluation carries a few ulps of it (1.0e-12 for k = 16 and
        # 2.5e-12 for the Maass spec at t = 1000); 1e-12 at small t
        floor = 8 * special.EPS * abs(t) * math.log(2.0 + abs(t))
        assert abs(omega - want) <= (1e-12 + floor) * abs(want), t
        assert abs(abs(omega) - 1.0) <= 1e-12, t


def _weight_at(W, x):
    """A weight family of one at the point x."""
    return W.evaluator(np.array([x]), np.zeros(1, dtype=np.intp))[0]


def test_sn_sum_matches_naive(delta2000):
    W = bump_weight(1.0, 2.0)
    N = 500
    (got,) = sn_sum(delta2000.coefficients, N, 0.0, W)
    naive = sum(
        delta2000.coefficients.values[n] * float(_weight_at(W, n / N))
        for n in range(1, 3 * N)
        if n <= delta2000.coefficients.n_max
    )
    assert abs(got - naive) < 1e-12


def test_sn_sum_support_single_term(delta2000):
    W = bump_weight(1.0, 2.0)
    (got,) = sn_sum(delta2000.coefficients, 1, 0.0, W)
    # only n in [1, 2] contribute; W vanishes at both endpoints
    expect = delta2000.coefficients.values[1] * float(_weight_at(W, 1.0))
    expect += delta2000.coefficients.values[2] * float(_weight_at(W, 2.0))
    assert abs(got - expect) < 1e-15


def test_sn_sum_trivial_bound(delta2000):
    W = bump_weight(1.0, 2.0)
    for N, t in [(100, 0.0), (400, 250.0), (600, 1000.0)]:
        (s,) = sn_sum(delta2000.coefficients, N, t, W)
        triv = np.sum(np.abs(delta2000.coefficients.values[1 : 3 * N]))
        assert abs(s) <= triv


def test_sn_sum_needs_coefficients(delta2000):
    W = bump_weight(1.0, 2.0)
    with pytest.raises(ValueError):
        sn_sum(delta2000.coefficients, 1500, 0.0, W)


def test_sn_sum_one_sum_per_case(delta2000):
    # a family's sums are its cases' own
    W = bump_weight(np.array([1.0, 0.5]), np.array([2.0, 1.5]), np.array([1.0, 3.0]))
    got = sn_sum(delta2000.coefficients, 400, 250.0, W)
    for j, (a, b, amp) in enumerate([(1.0, 2.0, 1.0), (0.5, 1.5, 3.0)]):
        assert got[j] == sn_sum(delta2000.coefficients, 400, 250.0, bump_weight(a, b, amp))[0]


def test_sn_sum_empirical_size(delta12000):
    # harness threshold 10 sqrt(N) t^(1/3) log t at sampled (N, t) pairs
    W = bump_weight(1.0, 2.0)
    for N, t in [(100, 2.0), (400, 250.0), (1000, 1000.0), (3000, 500.0)]:
        (s,) = sn_sum(delta12000.coefficients, N, t, W)
        bound = 10 * math.sqrt(N) * t ** (1 / 3) * math.log(t)
        assert abs(s) <= bound, (N, t, abs(s), bound)


def test_scan_empty_range(delta2000):
    assert exponent_scan(delta2000, 10.0, 10.0, 0.25) == []


def test_scan_grid_and_gates(delta2000):
    recs = exponent_scan(delta2000, 10.0, 50.0, 0.25)
    assert len(recs) == 161
    assert all(r.accepted for r in recs)
    assert max(r.consistency_gap for r in recs) <= 1e-6
    assert all(recs[i].t < recs[i + 1].t for i in range(len(recs) - 1))
    summ = scan_summary(recs)
    assert summ.n_flagged == 0
    assert summ.peak_count >= 2
    assert summ.fit_slope is not None


def test_scan_over_negative_t_mirrors_positive_t(delta2000):
    # |L(1/2 - it)| = |L(1/2 + it)| for Delta, so the ratios and the peak
    # fit take |t|: the scan over [-20, -10] is the one over [10, 20]
    # reversed, up to the rounding of the two central values
    neg = exponent_scan(delta2000, -20.0, -10.0, 0.5)
    pos = exponent_scan(delta2000, 10.0, 20.0, 0.5)[::-1]
    assert [r.t for r in neg] == [-r.t for r in pos]
    for a, b in zip(neg, pos, strict=True):
        assert (a.afe_length, a.accepted) == (b.afe_length, b.accepted)
        for name in ("modulus", "convexity_ratio", "weyl_ratio"):
            assert math.isclose(getattr(a, name), getattr(b, name), rel_tol=1e-12), (a.t, name)
    sn, sp = scan_summary(neg), scan_summary(pos)
    for name in ("n_records", "n_flagged", "peak_count"):
        assert getattr(sn, name) == getattr(sp, name), name
    assert sp.peak_count >= 2
    for name in ("max_convexity_ratio", "max_weyl_ratio", "fit_slope", "fit_intercept"):
        assert math.isclose(getattr(sn, name), getattr(sp, name), rel_tol=1e-9), name


def test_scan_fit_leaves_out_a_peak_at_t_zero():
    def record(t, modulus):
        return lfunc.ScanRecord(t, modulus, 1, 0.0, 0.0, 0.0, True)

    ladder = [(-3.0, 1.0), (-2.0, 2.0), (-1.0, 1.0), (0.0, 3.0), (1.0, 1.0), (3.0, 2.5), (4.0, 1.0)]
    summary = scan_summary([record(t, m) for t, m in ladder])
    assert summary.peak_count == 3
    # the fit runs through (log 2, log 2) and (log 3, log 2.5) alone
    want = math.log(2.5 / 2.0) / math.log(3.0 / 2.0)
    assert math.isclose(summary.fit_slope, want, rel_tol=1e-12)


def test_scan_parallel_matches_serial(delta2000):
    # a scan run twice gives equal records, bit for bit, and the
    # `parallelism` argument existing callers pass changes no work
    a = exponent_scan(delta2000, 20.0, 24.0, 0.5)
    assert len(a) == 9
    assert exponent_scan(delta2000, 20.0, 24.0, 0.5) == a
    assert exponent_scan(delta2000, 20.0, 24.0, 0.5, parallelism=2) == a


def test_scan_blocks_share_bessel_tables(delta2000):
    # every block of a scan reads the same two tables: over [20, 24] each
    # log-u end lies below F, so the blocks build the remainder's table
    # once and no octave table; over [200, 205] they reach octaves, build
    # the octave table once and reuse the remainder's
    lfunc._bessel_table.cache_clear()
    exponent_scan(delta2000, 20.0, 24.0, 0.25)
    assert len(lfunc._scan_blocks(delta2000, [20.0 + 0.25 * i for i in range(17)])) >= 2
    assert lfunc._bessel_table.cache_info().misses == 1
    exponent_scan(delta2000, 200.0, 205.0, 0.25)
    assert lfunc._bessel_table.cache_info().misses == 2


def test_scan_reaches_each_t_through_scan_one(delta2000, monkeypatch):
    # blocks or not, every t goes through the module-level
    # _scan_one(spec, t, balances), which reads central_value twice, so a
    # caller can wrap or substitute either per t
    seen, values = [], []
    scan_one, value = lfunc._scan_one, lfunc.central_value

    def wrapped(spec, t, balances):
        seen.append(t)
        return scan_one(spec, t, balances)

    def counted(*args, **kwargs):
        values.append(args[1])
        return value(*args, **kwargs)

    monkeypatch.setattr(lfunc, "_scan_one", wrapped)
    monkeypatch.setattr(lfunc, "central_value", counted)
    recs = exponent_scan(delta2000, 20.0, 24.0, 0.25)
    assert sorted(seen) == [r.t for r in recs]
    assert sorted(values) == sorted(2 * seen)


def test_scan_rejects_bad_grid(delta2000):
    with pytest.raises(ValueError):
        exponent_scan(delta2000, 10.0, 20.0, 0.0)
    with pytest.raises(ValueError):
        exponent_scan(delta2000, 10.0, 6000.0, 1.0)
    for grid in ((10.0, 20.0, math.inf), (math.nan, 20.0, 1.0), (10.0, math.nan, 1.0),
                 (10.0, 20.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            exponent_scan(delta2000, *grid)
    with pytest.raises(ValueError, match="finite"):
        afe_lengths(delta2000, math.inf, 1.0)


def test_scan_rejects_oversized_grid_and_pool_before_allocating(delta2000):
    # a grid of 10^12 points, one of 10^6 + 1, a subnormal step, a height
    # below -T_MAX and a pool of no thread are refused before the grid is
    # formed
    tracemalloc.start()
    try:
        for grid in ((10.0, 11.0, 1e-12), (0.0, 1.0, 1e-6), (10.0, 11.0, 5e-324)):
            with pytest.raises(ValueError, match="exceeds the desk-scale limit"):
                exponent_scan(delta2000, *grid)
        with pytest.raises(ValueError, match="desk-scale scan"):
            exponent_scan(delta2000, -lfunc.T_MAX - 1.0, 10.0, 1.0)
        for threads in (0, -2):
            with pytest.raises(ValueError, match="parallelism"):
                exponent_scan(delta2000, 10.0, 11.0, 0.5, parallelism=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert lfunc.SCAN_POINTS_MAX == 10**6


def test_prec_max_covers_every_scan_at_t_max():
    # the CLI's ceiling on a scan's coefficients is the longest AFE piece a
    # scan at |t| <= T_MAX needs, for every form `holomorphic_spec` takes
    need = 0
    for k in range(12, 60, 2):
        if not 1 <= dim_cusp(k) <= 2:
            continue
        source = lfunc.CoefficientSource("computed", np.ones(2), 1)
        spec = lfunc.LFunctionSpec((), ((k - 1) / 2.0,), source, 1.0)
        for t in (-lfunc.T_MAX, lfunc.T_MAX):
            for balance in lfunc._SCAN_BALANCES:
                need = max(need, *afe_lengths(spec, t, balance))
    assert need == 47748
    assert need <= lfunc.PREC_MAX < 1.1 * need


def _toy_maass_lines(n_max=64, lam2=0.9, bad=None, parity="even"):
    # multiplicative toy coefficients inside the twice-7/64 envelope
    lam = {1: 1.0}
    angles = {}
    for p in range(2, n_max + 1):
        if is_prime(p):
            angles[p] = math.cos(p) * 1.2
    def lam_pk(p, k):
        theta = math.acos(max(-1.0, min(1.0, angles[p] / 2.0)))
        return math.sin((k + 1) * theta) / math.sin(theta) if math.sin(theta) > 1e-12 else k + 1
    vals = [0.0, 1.0]
    for n in range(2, n_max + 1):
        v = 1.0
        m = n
        for p in angles:
            if m % p == 0:
                k = 0
                while m % p == 0:
                    m //= p
                    k += 1
                v *= lam_pk(p, k)
        vals.append(v)
    if bad:
        vals[bad[0]] = bad[1]
    sign = "+1" if parity == "even" else "-1"
    lines = ["# nu = 9.5336952613536", f"# epsilon = {sign}", f"# parity = {parity}"]
    lines += [f"{n},{vals[n]!r}" for n in range(1, n_max + 1)]
    return "\n".join(lines) + "\n"


def test_maass_ingestion_roundtrip(tmp_path):
    path = tmp_path / "maass.txt"
    path.write_text(_toy_maass_lines())
    spec, report = load_maass_file(str(path))
    nu = 9.5336952613536
    assert spec.gamma_r == (complex(0, nu), complex(0, -nu)) and spec.gamma_c == ()
    assert spec.root_number == 1.0
    assert report.kim_sarnak_violations == ()
    assert 0.05 <= report.rankin_selberg_ratio <= 20
    # an odd form carries delta = 1 into its gamma factor and conductor:
    # Gamma_R(s + 1 +- i nu), and sqrt(|s + 1 + i nu| |s + 1 - i nu|) / 2 pi
    # in place of sqrt(|s + i nu| |s - i nu|) / 2 pi
    path.write_text(_toy_maass_lines(parity="odd").replace("# epsilon = -1\n", ""))
    odd, report = load_maass_file(str(path))
    assert odd.gamma_r == (complex(1, nu), complex(1, -nu)) and odd.gamma_c == ()
    assert odd.root_number == -1.0 and report.parity == "odd"
    s = complex(0.5, 30.0)
    assert conductor_sqrt(odd, 30.0) == math.sqrt(
        abs(s + complex(1, nu)) * abs(s + complex(1, -nu))
    ) / (2 * math.pi)
    assert conductor_sqrt(spec, 30.0) == math.sqrt(
        abs(s + complex(0, nu)) * abs(s + complex(0, -nu))
    ) / (2 * math.pi)


def test_maass_violations_reported(tmp_path):
    path = tmp_path / "maass.txt"
    path.write_text(_toy_maass_lines(bad=(7, 5.0)))
    spec, report = load_maass_file(str(path))
    assert 7 in report.kim_sarnak_violations


def test_maass_corrupted_rejected(tmp_path):
    path = tmp_path / "maass.txt"
    lines = ["# nu = 5.0", "# parity = even", "1,1.0"]
    lines += [f"{n},9.0" for n in range(2, 40)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="Rankin-Selberg"):
        load_maass_file(str(path))


def test_maass_header_and_row_validation(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("# parity = even\n1,1.0\n")
    with pytest.raises(ValueError, match="nu"):
        load_maass_file(str(p))
    p.write_text("# nu = 5.0\n1,1.0\n")
    with pytest.raises(ValueError, match="parity"):
        load_maass_file(str(p))
    p.write_text("# nu = 5.0\n# parity = even\n1,1.0\n3,0.5\n")
    with pytest.raises(ValueError, match="rows"):
        load_maass_file(str(p))
    p.write_text("# nu = 5.0\n# parity = even\n1,2.0\n2,0.5\n")
    with pytest.raises(ValueError, match="lambda"):
        load_maass_file(str(p))
    # headers alone: the diagnostic names the rows, not an empty max()
    p.write_text("# nu = 5.0\n# epsilon = 1\n# parity = even\n\n")
    with pytest.raises(ValueError, match="^no coefficient rows"):
        load_maass_file(str(p))


def test_maass_gamma_plumbing_and_gate_catches_fakes(tmp_path):
    # synthetic coefficients cannot satisfy the functional equation, so
    # the two-balance gate must flag them
    path = tmp_path / "maass.txt"
    path.write_text(_toy_maass_lines(n_max=2000))
    spec, _ = load_maass_file(str(path))
    v1 = central_value(spec, 30.0, 1.0).value
    v2 = central_value(spec, 30.0, 2.0).value
    assert abs(v1 - v2) > 1e-5
    # and scan records over fake data come back flagged
    recs = exponent_scan(spec, 30.0, 31.0, 0.5)
    assert any(not r.accepted for r in recs)
    summ = scan_summary(recs)
    assert summ.n_flagged >= 1


def test_coefficient_source_validation():
    with pytest.raises(ValueError):
        CoefficientSource("computed", np.array([0.0, 2.0]), 1)
    for values in (np.array([0.0]), np.array([])):
        with pytest.raises(ValueError, match="need coefficients"):
            CoefficientSource("computed", values, len(values) - 1)
    source = CoefficientSource("computed", np.array([0.0, 1.0]), 1)
    for root_number in (3.0, math.nan, complex(math.nan, 1.0), math.inf):
        with pytest.raises(ValueError, match="finite and unimodular"):
            LFunctionSpec((1j, -1j), (), source, root_number)


@pytest.mark.parametrize(
    "gamma_r, gamma_c",
    # degree 3 (sym^2 of a weight-k form), 1, 4 and 0
    [((1.0,), (5.5,)), ((0.0,), ()), ((), (5.5, 6.5)), ((), ())],
)
def test_spec_of_degree_other_than_two_refused(gamma_r, gamma_c):
    source = CoefficientSource("computed", np.array([0.0, 1.0]), 1)
    with pytest.raises(ValueError, match="of degree 2"):
        LFunctionSpec(gamma_r, gamma_c, source, 1.0)


@pytest.mark.parametrize(
    "gamma_r, gamma_c",
    [((), (math.inf,)), ((), (math.nan,)), ((complex(0, math.inf), 1j), ()),
     ((complex(math.nan, 0), 0.0), ())],
)
def test_spec_with_non_finite_shift_refused(gamma_r, gamma_c):
    source = CoefficientSource("computed", np.array([0.0, 1.0]), 1)
    with pytest.raises(ValueError, match="shifts must be finite"):
        LFunctionSpec(gamma_r, gamma_c, source, 1.0)


# the toy Maass form's spectral parameter
_TOY_NU = 9.5336952613536


def _per_form_cases(tmp_path):
    """Delta, k = 16 and the toy Maass form of each parity, each with its
    data as its kind of form reads it: (holomorphic, k) or (maass, nu,
    delta)."""
    forms = [(delta_spec(10), ("holomorphic", 12.0)),
             (holomorphic_spec(16, 10), ("holomorphic", 16.0))]
    for parity, delta in (("even", 0), ("odd", 1)):
        path = tmp_path / f"{parity}.txt"
        path.write_text(_toy_maass_lines(parity=parity))
        forms.append((load_maass_file(str(path))[0], ("maass", _TOY_NU, delta)))
    return forms


def _per_form_log_gamma_factor(data, s):
    """Each kind of form's log gamma factor written out, in the operation
    order the shifts must reproduce: a weight-k form's gamma(s + (k - 1)/2)
    (2 pi)^(-s), and a Maass form's pi^(-s) gamma((s + delta +- i nu)/2)."""
    if data[0] == "holomorphic":
        lg = special.log_gamma_vec(s + (data[1] - 1) / 2.0)
        lg -= s * math.log(2 * math.pi)
        return lg
    _, nu, delta = data
    up, down = delta + 1j * nu, delta - 1j * nu
    lg = special.log_gamma_vec(np.concatenate([(s + up) / 2.0, (s + down) / 2.0]))
    return -s * math.log(math.pi) + lg[: len(s)] + lg[len(s) :]


def _per_form_conductor_sqrt(data, t):
    """Each kind of form's sqrt conductor written out: |s + (k - 1)/2| / 2 pi,
    or sqrt(|(s + delta)^2 + nu^2|) / 2 pi."""
    s = complex(0.5, t)
    if data[0] == "holomorphic":
        return abs(s + (data[1] - 1) / 2.0) / (2 * math.pi)
    _, nu, delta = data
    z = s + delta
    return math.sqrt(abs(z * z + nu * nu)) / (2 * math.pi)


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


def test_gamma_shifts_reproduce_per_form_formulas_bitwise(tmp_path):
    # every argument a block's gamma call takes (s + w, s and 1 - s) over
    # 16-t blocks spanning [-T_MAX, T_MAX]
    w = lfunc._contour_nodes(lfunc._CONTOUR_PANELS)[1]
    ts = np.linspace(-lfunc.T_MAX, lfunc.T_MAX, 1357)
    grid = np.arange(-4 * lfunc.T_MAX, 4 * lfunc.T_MAX + 1) / 4
    for spec, data in _per_form_cases(tmp_path):
        for i in range(0, len(ts), 16):
            s = 0.5 + 1j * ts[i : i + 16, None]
            z = np.concatenate([s + w, s, 1 - s], axis=1).ravel()
            got, want = _log_gamma_factor(spec, z), _per_form_log_gamma_factor(data, z)
            assert np.array_equal(_bits(got), _bits(want)), (data, ts[i])
        if data[0] == "holomorphic":
            # |s + nu| times sqrt(1) is |s + nu| to the bit
            got = [conductor_sqrt(spec, t) for t in grid]
            assert got == [_per_form_conductor_sqrt(data, t) for t in grid], data


def test_gamma_shifts_keep_lengths_and_pieces(tmp_path, monkeypatch):
    # the Maass conductor moves in its last bits, as a product of two
    # moduli in place of the modulus of a product; no AFE length and no
    # interpolant piece count moves on the t grid of step 1/4 over
    # [-T_MAX, T_MAX].  Both read the conductor alone, and the holomorphic
    # conductors are equal to the bit on this grid (the test above), so
    # the Maass forms are the ones that could move
    grid = np.arange(-4 * lfunc.T_MAX, 4 * lfunc.T_MAX + 1) / 4

    def lengths_and_pieces(spec):
        return [
            (*(afe_lengths(spec, t, b) for b in (0.5, 1.0, 2.0)),
             len(lfunc._piece_edges(lfunc._log_u_range(spec, t)[1])))
            for t in grid
        ]

    for spec, data in _per_form_cases(tmp_path)[2:]:
        got = lengths_and_pieces(spec)
        with monkeypatch.context() as m:
            m.setattr(lfunc, "conductor_sqrt", lambda spec, t: _per_form_conductor_sqrt(data, t))
            assert got == lengths_and_pieces(spec), data
