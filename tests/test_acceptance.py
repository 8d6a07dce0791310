"""Gated acceptance criteria, one test per headline claim.

Each test runs its criterion at the pinned tolerance and prints one
pass/fail line (visible with `pytest -s` or in the CLI `all` command).
Criterion 5b is asserted exactly as stated and fails honestly: the
measured sub-threshold suppression of the alternating Bessel sum is
orders of magnitude away from the demanded 1e6 (see README and the
docstring of criterion_bessel_sum_suppression for the analysis).
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from weylbound import acceptance, pipeline


def _report(res):
    print(res.line())
    return res


def _benchmark_parsers():
    """The `exact` workload's detail parser per criterion, from
    benchmark/workloads.py, loaded read-only under a private name."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_exact_workload_parsers", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return {name: parser for name, _, parser in module.EXACT_CRITERIA}


_PARSERS = _benchmark_parsers()


def _gates_pass(name, res):
    """The detail parses as the benchmark's `exact` workload parses it, and
    every parsed gate passes."""
    gates, _ = _PARSERS[name](res.detail)
    assert gates and all(gate.ok for gate in gates), (res.detail, gates)


def test_criterion_1_charsums():
    res = _report(acceptance.criterion_charsums())
    assert res.status == "PASS", res.detail
    _gates_pass("criterion_charsums", res)
    assert res.elapsed < 60


def test_criterion_2_twisted_factorization():
    res = _report(acceptance.criterion_twisted_factorization())
    assert res.status == "PASS", res.detail
    _gates_pass("criterion_twisted_factorization", res)
    assert res.elapsed < 120


def test_criterion_3_psi_average():
    res = _report(acceptance.criterion_psi_average())
    assert res.status == "PASS", res.detail
    _gates_pass("criterion_psi_average", res)
    assert res.elapsed < 60


def test_criterion_4_petersson():
    res = _report(acceptance.criterion_petersson())
    assert res.status == "PASS", res.detail
    _gates_pass("criterion_petersson", res)
    assert res.elapsed < 120


def test_criterion_5a_bessel_sum_identity():
    res = _report(acceptance.criterion_bessel_sum_identity())
    assert res.status == "PASS", res.detail
    _gates_pass("criterion_bessel_sum_identity", res)
    assert res.elapsed < 60


def test_criterion_5b_bessel_sum_suppression():
    # The headline ratio is asserted as stated.  The measured |S1(K^2/16)| is ~4x
    # |S1(4K^2)|, nowhere near 1e-6 of it: at x = K^2/16 the Bessel
    # argument 2 pi x already exceeds every order in the window, and
    # the i^{-k} alternation leaves exp(-c sqrt(K))-sized mass at the
    # quarter-shifted dual points of the weight transform.  Honest red;
    # analysis in the README.
    res = _report(acceptance.criterion_bessel_sum_suppression())
    assert res.status == "PASS", res.detail


def test_criterion_6_stationary_phase():
    res = _report(acceptance.criterion_stationary_phase())
    assert res.status == "PASS", res.detail
    _gates_pass("criterion_stationary_phase", res)
    assert res.elapsed < 120


def test_criterion_7_poisson_s5():
    res = _report(acceptance.criterion_poisson_s5())
    assert res.status == "PASS", res.detail
    assert res.elapsed < 180


def test_criterion_8_j_decay():
    res = _report(acceptance.criterion_j_decay())
    assert res.status == "PASS", res.detail
    assert res.elapsed < 300


def test_criterion_9_l_values():
    res = _report(acceptance.criterion_l_values())
    assert res.status == "PASS", res.detail
    assert res.elapsed < 600


def test_criterion_9_without_fitted_slope(monkeypatch):
    # three scan records hold one interior peak, too few to fit an exponent
    monkeypatch.setattr(acceptance, "_SCAN_STEP", 450.0)
    res = _report(acceptance.criterion_l_values())
    assert res.status == "PASS", res.detail
    assert "3 records, 0 flagged; fitted peak exponent n/a (reported;" in res.detail


def test_criterion_10_coefficient_bounds():
    res = _report(acceptance.criterion_coefficient_bounds())
    assert res.status == "PASS", res.detail
    _gates_pass("criterion_coefficient_bounds", res)
    assert res.elapsed < 30


@pytest.mark.parametrize(
    "check, kwargs",
    [
        (acceptance.criterion_charsums, {"c_max": 0}),
        (acceptance.criterion_charsums, {"cc_max": 0}),
        (acceptance.criterion_twisted_factorization, {"primes": ()}),
        (acceptance.criterion_twisted_factorization, {"c_max": 0}),
        (acceptance.criterion_psi_average, {"primes": ()}),
    ],
    ids=["no-grid", "no-congruence", "twisted-no-primes", "twisted-no-c", "psi-no-primes"],
)
def test_empty_case_sets_raise(check, kwargs):
    with pytest.raises(ValueError, match="no .* cases"):
        check(**kwargs)


# the `pipeline` command's S5 and J-decay checks read the verdicts
# criteria 7 and 8 read, at the CLI's default scale
_PIPELINE_PARAMS = pipeline.PipelineParams(N=2500.0, t=400.0, K=10.0, Q=25.0)
# test_poisson_identity_stationary_regime's scale, with Q = 26 so that the
# pipeline's S5 check reads c = 13: |dual| passes 1e-3 of the trivial bound
_STATIONARY = pipeline.PipelineParams(N=600.0, t=300.0, K=17.0, Q=26.0)


def test_criterion_8_detail_pinned():
    assert acceptance.criterion_j_decay().detail == (
        "|J(0)| t = 1.92; worst |J(m)| t K = 3.11; decay ratio at m = 1600: "
        "7.43e-15; octave trend ok True"
    )


def test_criterion_8_decay_ratio_at_the_rounding_floor():
    # the collapse ratio |J(16 N / K^2)| / |J(0)| is the quadrature's
    # rounding floor, so it moves with any change in the J kernel's
    # arithmetic (the detail above is pinned to the figure it reads now);
    # at criterion 8's point and at the pipeline defaults it stays eight
    # decades under the 1e-6 gate
    for p in (acceptance._CHAIN_POINT, _PIPELINE_PARAMS):
        rep = pipeline.j_decay_report(p, *acceptance._j_decay_point(p))
        assert 0.0 < rep.decay_ratio <= 1e-13, (p, rep.decay_ratio)


def test_pipeline_j_decay_check_is_criterion_8():
    res = acceptance.pipeline_checks(_PIPELINE_PARAMS)[1]()
    ref = acceptance.criterion_j_decay(_PIPELINE_PARAMS)
    assert (res.name, res.status, res.detail) == (ref.name, ref.status, ref.detail)


def test_pipeline_j_decay_check_gates_octave_trend(monkeypatch):
    # |J| at the second octave of m raised to |J(0)|, far past 2x the
    # first; the constants and the collapse are untouched
    batch = pipeline.j_integral_batch

    def grown(rows, p):
        vals = batch(rows, p)
        vals[6] = vals[0]  # rows' m: 0; 1, 2, 4, 8; then the octaves
        return vals

    monkeypatch.setattr(pipeline, "j_integral_batch", grown)
    res = acceptance.pipeline_checks(_PIPELINE_PARAMS)[1]()
    assert res.status == "FAIL"
    assert res.detail.endswith("; octave trend ok False")
    assert acceptance.criterion_j_decay().status == "FAIL"


def test_zero_j_reaches_criterion_8_and_the_assembly(monkeypatch):
    # criterion 8, the pipeline's J line and the assembly read one J
    # kernel, so a zeroed kernel reaches all three (their gates do not yet
    # tell a null measurement from a pass, so the constants are asserted)
    monkeypatch.setattr(pipeline, "j_integral_batch",
                        lambda rows, p: np.zeros(len(rows), dtype=complex))
    assert acceptance.criterion_j_decay().detail.startswith(
        "|J(0)| t = 0.00; worst |J(m)| t K = 0.00;")
    checks = acceptance.pipeline_checks(_PIPELINE_PARAMS)
    assert checks[1]().detail.startswith("|J(0)| t = 0.00; worst |J(m)| t K = 0.00;")
    assert checks[2]().detail.startswith(
        "diag const 0.000, offdiag const 0.000 (alt 0.000e+00)")


def test_pipeline_s5_check_gates_fat_tail(monkeypatch):
    # the I values past the nominal cutoff, 3e4 times larger, put about
    # 4e-8 of |dual| there: a fat tail, while both sides still agree to
    # 1e-8 of the scale
    window = pipeline.i_integral_window

    def fat(m, n_lo, n_hi, c, p):
        vals = window(m, n_lo, n_hi, c, p)
        vals[np.arange(n_lo, n_hi + 1) > math.ceil(pipeline.s5_cutoff(c, p))] *= 3e4
        return vals

    monkeypatch.setattr(pipeline, "i_integral_window", fat)
    rep = pipeline.poisson_check_s5(1, 13, _STATIONARY)
    assert rep.fat_tail and rep.scaled_diff <= 1e-8 and rep.status == "FAIL"
    res = acceptance.pipeline_checks(_STATIONARY)[0]()
    assert res.status == "FAIL"
    assert res.detail.endswith("; fat tail")
    res = acceptance.criterion_poisson_s5(t_list=(0.0,))
    assert res.status == "FAIL" and "fat tails [(0.0, 1, 1)]" in res.detail
