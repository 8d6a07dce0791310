"""The four benchmark workloads and the checks on their outputs.

A workload has an input build (the set-up a user pays on every run) and
a pass: one closed-loop run of its operations, driven from one process
through the library's public functions.  `verify` turns a pass's
outputs into gate verdicts, a fingerprint comparison against the
reference recorded in reference.json, and the gate margin.

Sizes are fixed by the workload name; `small=True` gives the reduced
variants the self-test runs.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from weylbound import acceptance, lfunc, pipeline

GOLDEN = 0.6180339887498949
STATIONARY_PHASE_SEED = 20240801  # criterion 6's default corpus seed
BALANCE_TOL = 1e-6  # the scan's two-balance gate, relative to max(1, |L|)
S5_TOL = 1e-6  # the Poisson S5 gate, relative to the criterion's scale
J_REL_TOL = 1e-6  # J(0) t and worst J(m) t K against the reference
MARGIN_CAP = 16.0  # decades; an exactly zero error reads as this margin


@dataclass
class Gate:
    """One gated quantity: `value` must be <= `limit` (or >= for "ge").

    Only gates on a measured error (`error=True`) enter the gate margin;
    counts, bands and size bounds are verdicts only.
    """

    name: str
    value: float
    limit: float
    kind: str = "le"
    error: bool = True

    @property
    def ok(self) -> bool:
        if not math.isfinite(self.value):
            return False
        return self.value <= self.limit if self.kind == "le" else self.value >= self.limit

    @property
    def margin(self) -> float:
        """log10 of tolerance over measured error (decades of headroom)."""
        num, den = (self.limit, self.value) if self.kind == "le" else (self.value, self.limit)
        if not math.isfinite(self.value) or num <= 0:
            return -MARGIN_CAP
        if den <= 0:
            return MARGIN_CAP
        return min(MARGIN_CAP, math.log10(num / den))


@dataclass
class Op:
    """One operation's latency, its gates and its fingerprint values.

    `fingerprint` maps a reference key to (value, tolerance); values are
    floats, or [re, im] pairs compared by complex distance.
    """

    seconds: float
    gates: list[Gate] = field(default_factory=list)
    fingerprint: dict[str, tuple[Any, float]] = field(default_factory=dict)
    verdict_ok: bool = True  # the program's own PASS/FAIL for this op


@dataclass
class PassResult:
    ops: list[Op]
    seconds: float
    layer_values: dict[str, float]


@dataclass
class Verdict:
    attempted: int
    failed: int
    gates_checked: int
    gates_failed: int
    fingerprints_checked: int
    mismatches: list[str]
    margin: float


@dataclass
class Workload:
    name: str
    build: Callable[[int], Any]
    run_pass: Callable[[Any], PassResult]
    fingerprint_seeds: tuple[int, ...] | None  # None: every seed

    def checks_fingerprint(self, seed: int) -> bool:
        return self.fingerprint_seeds is None or seed in self.fingerprint_seeds


def _wrap_timed(module, attr: str, sink: list):
    """Rebind module.attr to a timer that appends (seconds, result)."""
    inner = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = inner(*args, **kwargs)
        sink.append((time.perf_counter() - t0, out))
        return out

    setattr(module, attr, timed)
    return inner


# ---------------------------------------------------------------------------
# scans


def scan_workload(name, t_min, t_max, step, parallelism, prec) -> Workload:
    def build(seed):
        spec = lfunc.delta_spec(prec)
        offset = step * ((seed * GOLDEN) % 1.0)
        return spec, t_min + offset, t_max + offset

    def run_pass(inputs) -> PassResult:
        spec, lo, hi = inputs
        calls: list = []
        t0 = time.perf_counter()
        # central_value is the op; _scan_one looks it up in lfunc's namespace
        inner = _wrap_timed(lfunc, "central_value", calls)
        try:
            records = lfunc.exponent_scan(spec, lo, hi, step, parallelism=parallelism)
        finally:
            lfunc.central_value = inner
        elapsed = time.perf_counter() - t0
        if len(calls) != 2 * len(records):
            raise RuntimeError(f"{len(calls)} central values for {len(records)} records")
        # the two L-values of a t-point share its gate; latencies are only
        # used as a distribution, so they are attached in completion order
        latencies = iter(s for s, _ in calls)
        ops = []
        for i, rec in enumerate(records):
            tol = BALANCE_TOL * max(1.0, rec.modulus)
            gate = Gate("balance gap", rec.consistency_gap, tol)
            fp = {f"{name}.modulus.{i}": (rec.modulus, tol)}
            ops.append(Op(next(latencies), [gate], fp, rec.accepted))
            ops.append(Op(next(latencies), [gate], {}, rec.accepted))
        gaps = [r.consistency_gap for r in records]
        layer = {
            "lfunc.balance_gap.max": max(gaps, default=0.0),
            "lfunc.scan.accepted_ratio": sum(r.accepted for r in records) / max(1, len(records)),
        }
        return PassResult(ops, elapsed, layer)

    return Workload(name, build, run_pass, fingerprint_seeds=(0,))


# ---------------------------------------------------------------------------
# dual chain


def dualchain_workload(name, s5_kwargs, with_j_decay=True) -> Workload:
    def build(seed):
        return None  # both criteria fix their own parameters

    def run_pass(_inputs) -> PassResult:
        s5_calls: list = []
        jd_calls: list = []
        t0 = time.perf_counter()
        s5_inner = _wrap_timed(pipeline, "poisson_check_s5", s5_calls)
        jd_inner = _wrap_timed(pipeline, "j_decay_report", jd_calls)
        try:
            res7 = acceptance.criterion_poisson_s5(**s5_kwargs)
            res8 = acceptance.criterion_j_decay() if with_j_decay else None
        finally:
            pipeline.poisson_check_s5 = s5_inner
            pipeline.j_decay_report = jd_inner
        elapsed = time.perf_counter() - t0
        ops = []
        worst_scaled = 0.0
        for i, (s, rep) in enumerate(s5_calls):
            scale = max(abs(rep.direct), 1e-3 * rep.trivial_bound)
            worst_scaled = max(worst_scaled, rep.abs_diff / scale)
            ops.append(Op(
                s,
                [Gate("S5 scaled diff", rep.abs_diff / scale, S5_TOL)],
                {f"{name}.s5.direct.{i}": ([rep.direct.real, rep.direct.imag], S5_TOL * scale)},
                rep.status == "PASS" and res7.status == "PASS",
            ))
        decay_ratio = 0.0
        for i, (s, rep) in enumerate(jd_calls):
            decay_ratio = rep.decay_ratio
            ops.append(Op(
                s,
                [
                    Gate("J(0) t", rep.a0, 100.0, error=False),
                    Gate("worst J(m) t K", rep.worst_a1, 100.0, error=False),
                    Gate("collapse ratio", rep.decay_ratio, 1e-6, error=False),
                ],
                {
                    f"{name}.j.a0.{i}": (rep.a0, J_REL_TOL * rep.a0),
                    f"{name}.j.worst_a1.{i}": (rep.worst_a1, J_REL_TOL * rep.worst_a1),
                },
                rep.status == "PASS" and res8 is not None and res8.status == "PASS",
            ))
        layer = {
            "pipeline.s5.scaled_diff.max": worst_scaled,
            "pipeline.j_decay.ratio": decay_ratio,
        }
        return PassResult(ops, elapsed, layer)

    return Workload(name, build, run_pass, fingerprint_seeds=None)


# ---------------------------------------------------------------------------
# exact criteria

_NUM = r"([-+0-9.eE]+|nan|inf)"


def _parse(pattern: str, detail: str) -> list[float]:
    m = re.search(pattern, detail)
    if m is None:
        raise ValueError(f"detail {detail!r} does not match {pattern!r}")
    return [float(g) for g in m.groups()]


def _gates_charsums(d):
    grid, cong = _parse(rf"grid worst {_NUM}, congruence worst {_NUM}", d)
    return [Gate("grid worst", grid, 1e-9), Gate("congruence worst", cong, 1e-9)], {}


def _gates_twisted(d):
    cases, middle, corr = _parse(
        rf"(\d+) cases; lhs=middle worst {_NUM}; corrected-final worst {_NUM}", d
    )
    return (
        [Gate("lhs=middle worst", middle, 1e-9), Gate("corrected worst", corr, 1e-9)],
        {"cases": (cases, 0.0)},
    )


def _gates_psi(d):
    (worst,) = _parse(rf"worst {_NUM};", d)
    return [Gate("psi-average worst", worst, 1e-9)], {}


def _gates_petersson(d):
    (empty,) = _parse(rf"k=10 worst \|Delta\| {_NUM};", d)
    (lam2,) = _parse(rf"lambda\(2\) err {_NUM};", d)
    (res24,) = _parse(rf"k=24 residual {_NUM} ", d)
    return [
        Gate("k=10 worst Delta", empty, 1e-8),
        Gate("lambda(2) err", lam2, 1e-7),
        Gate("k=24 residual", res24, 1e-6),
    ], {}


def _gates_bessel_identity(d):
    worst, pairs = _parse(rf"worst \|direct - kernel\| {_NUM} over (\d+) pairs", d)
    return [Gate("|direct - kernel|", worst, 1e-8)], {"pairs": (pairs, 0.0)}


def _gates_stationary(d):
    cases, rel, viol = _parse(
        rf"(\d+) phase cases, worst order-0 rel {_NUM}; vdC bound violations (\d+)/200", d
    )
    return (
        [Gate("order-0 rel", rel, 0.02), Gate("vdC violations", viol, 0.0, error=False),
         Gate("phase cases", cases, 6.0, "ge", error=False)],
        # the phase corpus behind cases and worst rel is fixed, not seeded
        {"cases": (cases, 0.0)},
    )


def _gates_coefficients(d):
    ratio, _argmax, lo, hi = _parse(
        rf"max \|lambda\(n\)\|/d\(n\) = {_NUM} at n = (\d+); "
        rf"mean-square ratios in \[{_NUM}, {_NUM}\]", d
    )
    return (
        [Gate("Deligne ratio - 1", ratio - 1.0, 1e-10, error=False),
         Gate("mean-square low", lo, 0.1, "ge", error=False),
         Gate("mean-square high", hi, 10.0, error=False)],
        # printed to three decimals
        {"ms_low": (lo, 1e-3), "ms_high": (hi, 1e-3)},
    )


def exact_workload(name, criteria) -> Workload:
    """criteria: (function name, kwargs, detail parser) triples; a kwargs
    value of "seed" is replaced by the stationary-phase corpus seed."""

    def build(seed):
        return STATIONARY_PHASE_SEED + seed

    def run_pass(corpus_seed) -> PassResult:
        ops = []
        t0 = time.perf_counter()
        identity_diff = 0.0
        for fn_name, kwargs, parser in criteria:
            kw = {k: (corpus_seed if v == "seed" else v) for k, v in kwargs.items()}
            s0 = time.perf_counter()
            res = getattr(acceptance, fn_name)(**kw)
            s = time.perf_counter() - s0
            try:
                gates, fp = parser(res.detail)
            except ValueError:
                gates, fp = [Gate("detail parse", math.nan, 0.0, error=False)], {}
            if fn_name == "criterion_bessel_sum_identity" and math.isfinite(gates[0].value):
                identity_diff = gates[0].value
            fingerprint = {f"{name}.{fn_name}.{g.name}": (g.value, g.limit)
                           for g in gates if g.error}
            fingerprint.update({f"{name}.{fn_name}.{k}": v for k, v in fp.items()})
            ops.append(Op(s, gates, fingerprint, res.status == "PASS"))
        layer = {"oscint.k_sum.identity_diff.max": identity_diff}
        return PassResult(ops, time.perf_counter() - t0, layer)

    return Workload(name, build, run_pass, fingerprint_seeds=None)


# ---------------------------------------------------------------------------


def verify(result: PassResult, reference: dict | None) -> Verdict:
    """Gate verdicts plus, when `reference` is given, the fingerprint.

    An op fails if the program called it FAIL, if one of its gates
    fails, or if a fingerprint value strays from the reference by more
    than its tolerance (a missing reference key is a mismatch).
    """
    failed = 0
    gates_checked = gates_failed = fingerprints_checked = 0
    mismatches = []
    margin = MARGIN_CAP
    for op in result.ops:
        bad = not op.verdict_ok
        for g in op.gates:
            gates_checked += 1
            if g.error:
                margin = min(margin, g.margin)
            if not g.ok:
                gates_failed += 1
                bad = True
        if reference is not None:
            for key, (value, tol) in op.fingerprint.items():
                fingerprints_checked += 1
                if key not in reference or _distance(value, reference[key]) > tol:
                    mismatches.append(key)
                    bad = True
        failed += bad
    return Verdict(len(result.ops), failed, gates_checked, gates_failed,
                   fingerprints_checked, mismatches, margin)


def _distance(a, b) -> float:
    if isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list)):
            return math.inf
        return abs(complex(*a) - complex(*b))
    return abs(a - b)


def fingerprint_of(result: PassResult) -> dict:
    return {k: v for op in result.ops for k, (v, _) in op.fingerprint.items()}


EXACT_CRITERIA = [
    ("criterion_charsums", {}, _gates_charsums),
    ("criterion_twisted_factorization", {}, _gates_twisted),
    ("criterion_psi_average", {}, _gates_psi),
    ("criterion_petersson", {}, _gates_petersson),
    ("criterion_bessel_sum_identity", {}, _gates_bessel_identity),
    ("criterion_stationary_phase", {"seed": "seed"}, _gates_stationary),
    ("criterion_coefficient_bounds", {}, _gates_coefficients),
]

_SMALL_EXACT = [
    ("criterion_charsums", {"c_max": 8, "cc_max": 4}, _gates_charsums),
    ("criterion_twisted_factorization", {"primes": (3, 5), "c_max": 5}, _gates_twisted),
    ("criterion_psi_average", {"primes": (3, 5)}, _gates_psi),
    ("criterion_bessel_sum_identity", {"k_list": (8,), "x_list": (10.0,)},
     _gates_bessel_identity),
]


def get(name: str, small: bool = False) -> Workload:
    """The named workload; `small` gives its reduced self-test variant."""
    if name == "scan-high":
        if small:
            return scan_workload(name, 100.0, 102.5, 2.5, 2, 2000)
        return scan_workload(name, 900.0, 1000.0, 2.5, 2, 12000)
    if name == "scan-low":
        if small:
            return scan_workload(name, 10.0, 10.5, 0.05, 1, 2000)
        return scan_workload(name, 10.0, 50.0, 0.05, 1, 12000)
    if name == "dualchain":
        if small:
            return dualchain_workload(name, {"t_list": (0.0,)}, with_j_decay=False)
        return dualchain_workload(name, {})
    if name == "exact":
        return exact_workload(name, _SMALL_EXACT if small else EXACT_CRITERIA)
    raise KeyError(name)
