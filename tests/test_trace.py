import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from weylbound import acceptance, trace
from weylbound.expsums import kloosterman
from weylbound.special import bessel_j_many
from weylbound.trace import (
    petersson_delta,
    petersson_matrix,
    trace_consistency,
)


def test_empty_space_cancellation():
    # dim S_10 = 0: delta term and Kloosterman side must cancel exactly
    for m, n in [(1, 1), (2, 3), (1, 4), (5, 5)]:
        (side,) = petersson_delta(10, m, n)
        assert abs(side.value) <= 1e-8, (m, n)


def test_delta_positive_at_weight12():
    (side,) = petersson_delta(12, 1, 1)
    assert side.value > 0
    assert side.tail_bound < 1e-12 * max(1.0, abs(side.value))


def test_dim1_factorization():
    d11 = petersson_delta(12, 1, 1)[0].value
    d23 = petersson_delta(12, 2, 3)[0].value
    d21 = petersson_delta(12, 2, 1)[0].value
    d13 = petersson_delta(12, 1, 3)[0].value
    assert abs(d23 * d11 - d21 * d13) <= 1e-8 * max(abs(d23 * d11), 1.0)


def test_symmetry():
    for k in (10, 12):
        for m, n in [(2, 3), (1, 5), (4, 7)]:
            a = petersson_delta(k, m, n)[0].value
            b = petersson_delta(k, n, m)[0].value
            assert abs(a - b) < 1e-10


def test_truncation_soundness(monkeypatch):
    (side,) = petersson_delta(12, 2, 3)
    monkeypatch.setattr(trace, "_TAIL_TOL", 1e-14)
    (refined,) = petersson_delta(12, 2, 3)
    assert abs(side.value - refined.value) <= side.tail_bound + 1e-13


def test_lambda2_recovery_weight12():
    rep = trace_consistency(12, 8, tol=1e-7)
    assert rep.status == "PASS"
    assert abs(rep.recovered_lambda2 - (-24 / 2**5.5)) <= 1e-7
    assert rep.lambda_max_err <= 1e-7


def test_rank_one_structure_all_dim1_weights():
    for k in (12, 16, 18, 20, 22, 26):
        rep = trace_consistency(k, 8, tol=1e-6)
        assert rep.status == "PASS", k
        assert rep.rank_ratio <= 1e-6, k


def test_empty_space_report():
    rep = trace_consistency(10, 5, tol=1e-8)
    assert rep.status == "PASS"
    assert rep.max_abs_delta <= 1e-8


def test_dim2_weights_and_prediction():
    rep = trace_consistency(24, 6, tol=1e-6)
    assert rep.status == "PASS"
    assert rep.weights_positive
    assert rep.max_residual <= 1e-6


def test_recovered_lambdas_satisfy_hecke():
    # lambda recovered from the trace formula obeys the p = 2 recursion
    # and the divisor bound
    from weylbound.arith import divisor_counts

    mat = petersson_matrix(12, 8)
    lam = [None] + [mat[m - 1, 0] / mat[0, 0] for m in range(1, 9)]
    lhs = lam[2] * lam[2]
    rhs = lam[4] + 1.0  # lam(2)^2 = lam(4) + lam(1)
    assert abs(lhs - rhs) <= 1e-6
    lhs = lam[2] * lam[3]
    rhs = lam[6]
    assert abs(lhs - rhs) <= 1e-6
    d = divisor_counts(8)
    for n in range(1, 9):
        assert abs(lam[n]) <= d[n] + 1e-6


def test_petersson_rejects_bad_input():
    with pytest.raises(ValueError):
        petersson_delta(11, 1, 1)
    with pytest.raises(ValueError):
        petersson_delta(12, 0, 1)
    with pytest.raises(ValueError):
        petersson_delta(12, 2000, 2000)


# the weights and grid sizes of criterion 4's eight matrix builds
CRITERION_4_MATRICES = [(10, 5), *((k, 8) for k in (12, 16, 18, 20, 22, 26)), (24, 6)]


def _per_triple_matrix(k, size):
    """petersson_matrix with S(m, n; c) from one `kloosterman` call per
    (m, n, c), on the same Bessel values."""
    pairs = [(m, n) for m in range(1, size + 1) for n in range(m, size + 1)]
    cuts = [trace._truncation(k, m, n, 1e-12) for m, n in pairs]
    bessel = bessel_j_many(
        k - 1, np.concatenate([A / np.arange(1, c_max + 1, dtype=float) for A, c_max in cuts])
    )
    out = np.zeros((size, size))
    end = 0
    for (m, n), (A, c_max) in zip(pairs, cuts):
        re_terms = np.array([kloosterman(m, n, c).real / c for c in range(1, c_max + 1)])
        total = float(np.dot(re_terms, bessel[end : end + c_max]))
        end += c_max
        sign = -1.0 if (k // 2) % 2 else 1.0
        out[m - 1, n - 1] = out[n - 1, m - 1] = (m == n) + 2.0 * math.pi * sign * total
    return out


def test_petersson_matrix_equals_per_triple_kloosterman_loop():
    trace._kloosterman_real.cache_clear()
    for k, size in CRITERION_4_MATRICES:
        # a first build fills the cache and a second reads it
        for _ in range(2):
            assert np.array_equal(petersson_matrix(k, size), _per_triple_matrix(k, size)), k


def test_criterion_4_computes_each_residue_triple_once(monkeypatch):
    computed = Counter()
    kernel = trace.kloosterman_reals

    def counted(a, b, c):
        # one kernel row per (a, b) pair
        computed.update((int(x), int(y), c) for x, y in zip(a, b))
        return kernel(a, b, c)

    monkeypatch.setattr(trace, "kloosterman_reals", counted)
    trace._kloosterman_real.cache_clear()
    acceptance.criterion_petersson()
    lookups = 0
    triples = set()
    for k, size in CRITERION_4_MATRICES:
        for m in range(1, size + 1):
            for n in range(m, size + 1):
                c_max = trace._truncation(k, m, n, 1e-12)[1]
                lookups += c_max
                triples.update(
                    (min(m % c, n % c), max(m % c, n % c), c) for c in range(1, c_max + 1)
                )
    assert set(computed) == triples and max(computed.values()) == 1
    assert len(triples) < lookups / 2, (len(triples), lookups)


def test_petersson_pair_list_matches_one_pair_calls():
    # every side of criterion 4's matrices, from one call per matrix; the
    # shared Miller pass starts above the largest A / c of the batch, so
    # a sum moves from its one-pair call in the last bits (3.1e-16 at
    # most), and reads the per-matrix oracle's Bessel values exactly
    for k, size in CRITERION_4_MATRICES:
        m, n = np.triu_indices(size)
        sides = petersson_delta(k, m + 1, n + 1)
        oracle = _per_triple_matrix(k, size)
        assert len(sides) == len(m)
        for side in sides:
            (one,) = petersson_delta(k, side.m, side.n)
            assert dataclasses.replace(side, kloosterman_sum_value=0.0) == dataclasses.replace(
                one, kloosterman_sum_value=0.0
            ), (k, side.m, side.n)
            assert abs(side.kloosterman_sum_value - one.kloosterman_sum_value) <= 1e-15
            assert side.value == oracle[side.m - 1, side.n - 1], (k, side.m, side.n)


def test_petersson_broadcasts_and_scalars_give_a_list_of_one():
    sides = petersson_delta(12, [[1], [2]], [1, 2, 3])
    assert [(s.m, s.n) for s in sides] == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
    (side,) = petersson_delta(12, 2, 3)
    assert isinstance(side, trace.PeterssonSide)


def test_petersson_matrix_is_one_petersson_delta_call(monkeypatch):
    calls = []
    delta = trace.petersson_delta

    def counted(k, m, n):
        calls.append((k, len(m)))
        return delta(k, m, n)

    monkeypatch.setattr(trace, "petersson_delta", counted)
    petersson_matrix(12, 8)
    # each c-sum is truncated at the one tail bound
    assert calls == [(12, 36)] and trace._TAIL_TOL == 1e-12
