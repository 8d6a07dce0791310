#!/usr/bin/env python3
"""Collect benchmark results into one committed BENCH_<n>.json snapshot.

Each run directory is the `.bench_out` of one round of
`benchmark/run.py --workload W --seed 0 --trace 0` over the four
workloads; it holds `result-<W>-seed0-trace0.json` for each.  Every
end-to-end metric is reduced to its median (and quartiles, with two or
more runs) over the directories given.  The Tier-1 wall time is passed
in, because the benchmark does not measure it.

Usage:
    python scripts/bench_snapshot.py --tier1-wall-s 56.1 --out BENCH_8.json \\
        [--runs DIR ...] [--parent-runs DIR ...] [--commit LABEL]
        [--parent-commit LABEL]

--runs defaults to `.bench_out`.  With --parent-runs the same summary of
the parent commit's runs is stored under "parent".  run.py stamps each
run with the HEAD of its checkout: for runs of an uncommitted tree that
is its parent, and for runs of an exported tree, which has no git
metadata, `unknown`.  --commit and --parent-commit replace that stamp on
the runs' and the parent runs' summaries.  Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

WORKLOADS = ("scan-high", "scan-low", "dualchain", "exact")


def load_runs(dirs: list[str], workload: str) -> list[dict]:
    runs = []
    for d in dirs:
        path = os.path.join(d, f"result-{workload}-seed0-trace0.json")
        try:
            with open(path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot read {path}: {exc}")
    return runs


def summarize(dirs: list[str]) -> dict:
    """Environment stamp and per-workload metric medians over the runs."""
    workloads = {}
    env = None
    for name in WORKLOADS:
        runs = load_runs(dirs, name)
        if env is None:
            env = {k: v for k, v in runs[0]["env"].items() if k != "workload"}
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            entry = {"value": statistics.median(values), "unit": first["unit"]}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                entry.update(q1=q1, q3=q3)
            metrics[metric] = entry
        workloads[name] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    return {"env": env, "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tier1-wall-s", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", nargs="+", default=[".bench_out"])
    ap.add_argument("--parent-runs", nargs="+", default=[])
    ap.add_argument("--commit", help="commit label of the --runs side")
    ap.add_argument("--parent-commit", help="commit label of the --parent-runs side")
    args = ap.parse_args(argv)
    if args.tier1_wall_s <= 0:
        ap.error("--tier1-wall-s must be positive")
    snapshot = summarize(args.runs)
    snapshot["tier1_wall_s"] = args.tier1_wall_s
    if args.commit:
        snapshot["env"]["commit"] = args.commit
    if args.parent_commit and not args.parent_runs:
        ap.error("--parent-commit needs --parent-runs")
    if args.parent_runs:
        snapshot["parent"] = summarize(args.parent_runs)
        if args.parent_commit:
            snapshot["parent"]["env"]["commit"] = args.parent_commit
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}: {len(WORKLOADS)} workloads, "
          f"{len(args.runs)} run(s)"
          + (f", parent {len(args.parent_runs)} run(s)" if args.parent_runs else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
