"""Run one weylbound benchmark workload and print its metrics.

    python3 benchmark/run.py --workload scan-high --seed 0 --seconds 10 --trace 0

Each pass runs in a fresh worker process, as a user's run would: the
worker imports the library, builds the workload's inputs, runs all of
its operations closed loop, and checks every output.  Workers run one
after another until --seconds have elapsed (always at least one).  The
report ends, as the last line, with one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 one more worker runs
with spans around the library's public functions and the metrics are
the per-layer ones.  See benchmark/README.md.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("scan-high", "scan-low", "dualchain", "exact")
SETUP_SAMPLES = 3  # set-ups timed per run, topped up by set-up-only workers
RUN_DEADLINE_S = 170  # every worker is killed by then, so a run ends within 180 s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# Workers run with one BLAS thread, so each workload uses only the threads
# it declares (two in scan-high's pool, one elsewhere).  With OpenBLAS's
# default on a 2-vCPU machine the idle BLAS thread spins on the second
# vCPU (about 17 s of CPU for 9 s of scan-low), and run-to-run spread
# rises to 0.2-0.3 as the host places the two vCPUs.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("gate_margin_decades", "decades"),
    ("pass_share", "ratio"),
]
# Printed by every run and kept in its result file, but not in the JSON
# line: on dualchain's mixed-size ops the run-to-run spread of a latency
# percentile exceeds the largest bound a metric may carry, and fail_share
# is 0 when all is well, so it cannot carry a relative one.
REPORT_ONLY = [
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("fail_share", "ratio"),
]

_SELF = [
    "lfunc.weight", "lfunc.contour", "lfunc.central_value",
    "special.log_gamma_vec", "special.bessel_j", "special.bessel_j_many",
    "oscint.oscillatory_quadrature", "oscint.k_sum.direct", "oscint.k_sum.kernel",
    "oscint.stationary_phase", "pipeline.i_batch", "pipeline.j_batch", "pipeline.s5",
    "expsums.kloosterman", "expsums.charsum_grid", "expsums.charsum_congruence",
    "expsums.twisted_factorization", "characters.enumerate", "characters.odd_average",
    "modforms.poly_mul", "modforms.delta_eigenform", "modforms.hecke_eigenforms",
    "trace.petersson_delta", "trace.trace_consistency",
]
_CALLS = [
    "lfunc.weight", "lfunc.contour", "special.log_gamma_vec", "special.bessel_j",
    "special.bessel_j_many", "oscint.oscillatory_quadrature", "pipeline.i_batch",
    "expsums.kloosterman", "expsums.charsum_grid", "expsums.charsum_congruence",
    "expsums.twisted_factorization", "characters.enumerate", "characters.odd_average",
    "modforms.poly_mul", "modforms.hecke_eigenforms", "trace.petersson_delta",
]
_COUNTS = [
    ("lfunc.weight.entries", "count"),
    ("special.log_gamma_vec.elements", "count"),
    ("special.bessel_j.route.series", "count"),
    ("special.bessel_j.route.recurrence", "count"),
    ("special.bessel_j.route.asymptotic", "count"),
    ("special.bessel_j.miller_steps", "count"),
    ("pipeline.i_batch.small_calls", "count"),
    ("pipeline.i_batch.entries", "count"),
    ("characters.gauss_sum.calls", "count"),
    ("modforms.poly_mul.bits", "bits"),
    ("arith.inv_mod.calls", "count"),
    ("arith.unit_roots.calls", "count"),
]
_OUTPUTS = [  # taken from the traced pass's outputs
    ("lfunc.balance_gap.max", "abs"),
    ("lfunc.scan.accepted_ratio", "ratio"),
    ("oscint.k_sum.identity_diff.max", "abs"),
    ("pipeline.s5.scaled_diff.max", "ratio"),
    ("pipeline.j_decay.ratio", "ratio"),
]
_CRITERIA = [
    "criterion_poisson_s5", "criterion_j_decay", "criterion_charsums",
    "criterion_twisted_factorization", "criterion_psi_average", "criterion_petersson",
    "criterion_bessel_sum_identity", "criterion_stationary_phase",
    "criterion_coefficient_bounds",
]
LAYERS = ("lfunc", "pipeline", "special", "oscint", "expsums",
          "characters", "modforms", "trace", "arith", "acceptance")

PER_LAYER = (
    [(f"{n}.self_s", "s") for n in _SELF]
    + [(f"{n}.calls", "count") for n in _CALLS]
    + _COUNTS
    + [("lfunc.contour.nodes_kept_ratio", "ratio"), ("lfunc.scan.pool_busy_ratio", "ratio")]
    + _OUTPUTS
    + [(f"acceptance.{c}.s", "s") for c in _CRITERIA]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [("bench.trace_overhead", "ratio"), ("bench.layer_coverage", "ratio")]
)


# ---------------------------------------------------------------------------
# worker side: one process, one input build, at most one pass


def load_library():
    """Import weylbound from this checkout's src/, and nothing else."""
    sys.path[:0] = [SRC, BENCH_DIR]
    import weylbound

    here = os.path.realpath(weylbound.__file__)
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: weylbound imported from {here}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def load_reference(wl, seed: int, small: bool):
    """The recorded fingerprint, or None where only gates apply."""
    if small or not wl.checks_fingerprint(seed):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def pass_record(result, verdict) -> dict:
    """What a worker reports about its pass."""
    return {
        "ops_ms": [op.seconds * 1e3 for op in result.ops],
        "pass_s": result.seconds,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "gates": verdict.gates_checked,
        "gates_failed": verdict.gates_failed,
        "mismatches": verdict.mismatches,
        "fingerprint_values": verdict.fingerprints_checked,
        "margin": verdict.margin,
    }


def layer_metrics(tracing, tracer, phase, result) -> tuple[dict, object]:
    table = tracing.summarize(tracer.spans(), threading.get_ident(), phase)
    counts = tracer.counts()
    m = {}
    for n in _SELF:
        m[f"{n}.self_s"] = table.self_s.get(n, 0.0)
    for n in _CALLS:
        m[f"{n}.calls"] = table.calls.get(n, 0)
    for n, _ in _COUNTS:
        m[n] = counts.get(n, 0)
    built = counts.get("lfunc.contour.nodes_built", 0)
    m["lfunc.contour.nodes_kept_ratio"] = (
        counts.get("lfunc.contour.nodes_kept", 0) / built if built else 0.0)
    slots = counts.get("lfunc.scan.slot_s", 0.0)
    m["lfunc.scan.pool_busy_ratio"] = (
        table.wall_s.get("lfunc.scan_one", 0.0) / slots if slots else 0.0)
    for n, _ in _OUTPUTS:
        m[n] = result.layer_values.get(n, 0.0)
    for c in _CRITERIA:
        m[f"acceptance.{c}.s"] = table.wall_s.get(f"acceptance.{c}", 0.0)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = table.layer_self_s.get(layer, 0.0)
    total = sum(table.self_s.values()) + table.unspanned_main_s
    named = total - table.layer_self_s.get("acceptance", 0.0) - table.unspanned_main_s
    m["bench.layer_coverage"] = named / total if total > 0 else 0.0
    return m, table


def write_spans(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        for spans in tracer.spans():
            for sp in spans:
                fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.thread]) + "\n")


def worker(args) -> int:
    """Build the inputs, say "ready", run one pass, print its record."""
    workloads, tracing = load_library()
    wl = workloads.get(args.workload, small=args.small)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.trace_plan(tracer))
    t0 = time.perf_counter()
    try:
        inputs = wl.build(args.seed)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        p0 = time.perf_counter()
        result = wl.run_pass(inputs)
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = pass_record(result, workloads.verify(result, load_reference(wl, args.seed, args.small)))
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layer, table = layer_metrics(tracing, tracer, (t0, t1), result)
        record["layer"] = layer
        record["traced_pass_s"] = t1 - p0
        record["traced_phase_s"] = (t1 - t0, p0 - t0)
        record["layer_table"] = sorted(table.layer_self_s.items(), key=lambda kv: -kv[1])
        record["top_self"] = [(n, v, table.calls[n]) for n, v in table.self_s.most_common(12)]
        os.makedirs(OUT_DIR, exist_ok=True)
        write_spans(tracer, os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(record), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent side: spawn workers, aggregate, report


def spawn(args, deadline: float, trace: int = 0, setup_only: bool = False) -> dict:
    """Run one worker; time its set-up (to "ready") and its verdict.
    The worker is killed at `deadline` (a perf_counter value)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    cmd += ["--small"] if args.small else []
    cmd += ["--setup-only"] if setup_only else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **WORKER_ENV})
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        last = proc.stdout.readline()  # the record, printed once outputs are checked
        verdict = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise SystemExit(f"error: worker {cmd[3:]} exited {code}")
    record = {} if setup_only else json.loads(last)
    record.update(setup_s=ready, verdict_s=verdict)
    return record


def nearest_rank(sorted_values, pct: float) -> float:
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


def tail_percentile(n: int):
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def end_to_end(records: list[dict], setup_samples: list[float]):
    """End-to-end metrics from worker records (at least one pass)."""
    latencies = sorted(ms for r in records for ms in r["ops_ms"])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    pct = tail_percentile(len(latencies))
    metrics = {
        "wall_s": statistics.median(r["verdict_s"] for r in records),
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": attempted / sum(r["pass_s"] for r in records),
        "op_ms.p50": nearest_rank(latencies, 50.0),
        "op_ms.tail": nearest_rank(latencies, pct) if pct else latencies[-1],
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "gate_margin_decades": min(r["margin"] for r in records),
        "pass_share": 1.0 - failed / attempted,
        "fail_share": failed / attempted,
    }
    tail_label = f"p{pct:g} of {len(latencies)} ops" if pct else f"max of {len(latencies)} ops"
    return metrics, attempted, failed, tail_label


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "worker_env": WORKER_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_reference(names):
    """Record the fingerprint of each workload's default-seed pass."""
    workloads, _ = load_library()
    ref = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    for name in names:
        wl = workloads.get(name)
        result = wl.run_pass(wl.build(0))
        ref = {k: v for k, v in ref.items() if not k.startswith(name + ".")}
        ref.update(workloads.fingerprint_of(result))
        print(f"{name}: {sum(1 for k in ref if k.startswith(name + '.'))} values")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes (self-test)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default-seed fingerprint into reference.json")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and not args.write_reference:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weylbound", "__init__.py")):
        raise SystemExit(f"error: no weylbound sources under {SRC}")
    if args.worker:
        return worker(args)
    if args.write_reference:
        write_reference([args.workload] if args.workload else WORKLOADS)
        return 0

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    records = []
    t0 = time.perf_counter()
    deadline = t0 + RUN_DEADLINE_S
    while not records or time.perf_counter() - t0 < args.seconds:
        records.append(spawn(args, deadline))
    setup_samples = [r["setup_s"] for r in records]
    if not args.trace:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(spawn(args, deadline, setup_only=True)["setup_s"])
    e2e, attempted, failed, tail_label = end_to_end(records, setup_samples)

    mismatches = sorted({k for r in records for k in r["mismatches"]})
    print(f"passes {len(records)}; ops {attempted}; failed {failed}")
    print(f"gate verdicts {sum(r['gates'] for r in records)}, "
          f"failed {sum(r['gates_failed'] for r in records)}")
    n_fp = sum(r["fingerprint_values"] for r in records)
    if not n_fp:
        print("fingerprint: not checked at this seed or size (gates only)")
    else:
        print(f"fingerprint: {n_fp} values checked, {len(mismatches)} keys mismatched"
              + (f" (first: {mismatches[:3]})" if mismatches else ""))
    print("set-up samples (s): " + ", ".join(f"{s:.4f}" for s in setup_samples))
    for name, unit in END_TO_END + REPORT_ONLY:
        note = f"  ({tail_label})" if name == "op_ms.tail" else ""
        note += "  [report only]" if (name, unit) in REPORT_ONLY else ""
        print(f"  {name:<22} {e2e[name]:.6g} {unit}{note}")
    declared = END_TO_END
    values = e2e

    if args.trace:
        traced = spawn(args, deadline, trace=1)
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = traced["layer"]
        untraced_s = statistics.median(r["pass_s"] for r in records)
        values["bench.trace_overhead"] = traced["traced_pass_s"] / untraced_s - 1.0
        phase, build = traced["traced_phase_s"]
        print(f"self time by layer (s), traced phase {phase:.3f} s "
              f"incl. input build {build:.3f} s:")
        for name, v in traced["layer_table"]:
            print(f"  {name:<12} {v:10.4f}")
        print("largest self times (s):")
        for name, v, calls in traced["top_self"]:
            print(f"  {name:<40} {v:10.4f}  calls {calls}")
        print(f"bench.trace_overhead {values['bench.trace_overhead']:.4f}; "
              f"bench.layer_coverage {values['bench.layer_coverage']:.4f}")
        declared = PER_LAYER

    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in declared},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        report = {n: {"value": e2e[n], "unit": u, "note": tail_label if n == "op_ms.tail" else ""}
                  for n, u in REPORT_ONLY}
        json.dump({"env": env, **out, "report_only": report}, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
