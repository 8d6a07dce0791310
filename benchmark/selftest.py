"""Self-test of the benchmark at reduced sizes.

    python3 benchmark/selftest.py

Checks that every metric named in BENCHMARK.json, and every report-only
metric, is printed with its unit (trace off and on, every workload,
small sizes), the self-time
arithmetic on synthetic span trees nested within one thread and across
two threads, and that a forced gate FAIL or a fingerprint mismatch
raises the failure share.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from weylbound import lfunc  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class MetricsPrinted(unittest.TestCase):
    def test_declared_metrics_match_the_runner(self):
        spec = _spec()
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)

    def test_every_metric_printed_with_unit(self):
        spec = _spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name in run.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                         "--seed", "3", "--seconds", "0.01", "--trace", str(trace), "--small"],
                        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
                    )
                    lines = proc.stdout.strip().splitlines()
                    out = json.loads(lines[-1])
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in out["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    if trace == 0:
                        report = "\n".join(lines[:-1])
                        for metric, unit in list(want.items()) + run.REPORT_ONLY:
                            self.assertRegex(report, rf"{metric}\s+\S+ {unit}")


def _span(name, start, end, parent, thread):
    return tracing.Span(name, start, end, parent, thread)


class SelfTime(unittest.TestCase):
    def test_nested_and_two_threads(self):
        a = [
            _span("acceptance.x", 0.0, 10.0, None, 1),
            _span("lfunc.a", 1.0, 4.0, 0, 1),
            _span("special.b", 2.0, 3.0, 1, 1),
            _span("lfunc.a", 5.0, 6.0, 0, 1),
        ]
        b = [_span("lfunc.scan_one", 2.0, 8.0, None, 2), _span("lfunc.a", 3.0, 7.0, 0, 2)]
        self.assertEqual(tracing.self_times([a, b]), [[6.0, 2.0, 1.0, 1.0], [2.0, 4.0]])
        table = tracing.summarize([a, b], main_thread=1, phase=(-1.0, 12.0))
        self.assertEqual(table.self_s["lfunc.a"], 7.0)
        self.assertEqual(table.calls["lfunc.a"], 3)
        self.assertEqual(table.wall_s["lfunc.a"], 8.0)
        self.assertEqual(dict(table.layer_self_s), {"acceptance": 6.0, "lfunc": 9.0, "special": 1.0})
        self.assertEqual(table.unspanned_main_s, 3.0)

    def test_overlapping_children_counted_once(self):
        spans = [_span("p", 0.0, 10.0, None, 1), _span("c", 1.0, 5.0, 0, 1),
                 _span("c", 3.0, 7.0, 0, 1), _span("c", 9.0, 12.0, 0, 1)]
        self.assertEqual(tracing.self_times([spans])[0][0], 10.0 - 6.0 - 1.0)

    def test_tracer_keeps_a_stack_per_thread(self):
        local = threading.local()

        def tick():  # each thread counts its own clock reads
            local.t = getattr(local, "t", 0) + 1
            return float(local.t)

        tracer = tracing.Tracer(clock=tick)
        barrier = threading.Barrier(2, timeout=10)

        def inner():
            barrier.wait()  # both threads are inside a span here

        inner_w = tracer.span("inner", inner)
        outer_w = tracer.span("outer", lambda: (inner_w(), inner_w()))
        threads = [threading.Thread(target=outer_w) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            self.assertFalse(t.is_alive())
        per_thread = tracer.spans()
        self.assertEqual(len(per_thread), 2)
        for spans, selfs in zip(per_thread, tracing.self_times(per_thread)):
            self.assertEqual([(s.name, s.parent) for s in spans],
                             [("outer", None), ("inner", 0), ("inner", 0)])
            self.assertEqual(selfs, [3.0, 1.0, 1.0])


class FailShare(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.get("scan-low", small=True)
        self.inputs = self.wl.build(0)

    def _share(self, result, reference=None):
        record = run.pass_record(result, workloads.verify(result, reference))
        record.update(rss_mb=1.0, verdict_s=2.0)
        metrics, attempted, failed, _ = run.end_to_end([record], [1.0])
        self.assertEqual(attempted, len(result.ops))
        return failed / attempted, metrics["pass_share"]

    def test_clean_pass(self):
        result = self.wl.run_pass(self.inputs)
        ref = workloads.fingerprint_of(result)
        self.assertEqual(self._share(result, ref), (0.0, 1.0))

    def test_forced_gate_fail(self):
        original = lfunc._scan_one

        def failing(spec, t, balances):
            rec = original(spec, t, balances)
            return dataclasses.replace(rec, consistency_gap=1.0, accepted=False) if t == 10.0 else rec

        lfunc._scan_one = failing
        try:
            result = self.wl.run_pass(self.inputs)
        finally:
            lfunc._scan_one = original
        fail_share, pass_share = self._share(result)
        self.assertEqual(fail_share, 2 / len(result.ops))
        self.assertLess(pass_share, 1.0)

    def test_fingerprint_mismatch(self):
        result = self.wl.run_pass(self.inputs)
        ref = workloads.fingerprint_of(result)
        key = sorted(ref)[0]
        ref[key] += 1e-3
        fail_share, _ = self._share(result, ref)
        self.assertEqual(fail_share, 1 / len(result.ops))
        del ref[key]
        self.assertEqual(self._share(result, ref)[0], 1 / len(result.ops))

    def test_unparsable_detail_fails(self):
        op = workloads.Op(0.1, [workloads.Gate("detail parse", float("nan"), 0.0, error=False)])
        verdict = workloads.verify(workloads.PassResult([op], 0.1, {}), None)
        self.assertEqual(verdict.failed, 1)


class Percentiles(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(82), 75.0)
        self.assertEqual(run.tail_percentile(55), 75.0)
        self.assertEqual(run.tail_percentile(1602), 99.0)
        self.assertIsNone(run.tail_percentile(14))
        self.assertEqual(run.nearest_rank([1, 2, 3, 4], 50.0), 2)
        self.assertEqual(run.nearest_rank([1, 2, 3, 4], 75.0), 3)


if __name__ == "__main__":
    unittest.main()
