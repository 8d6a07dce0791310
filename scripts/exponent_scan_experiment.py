#!/usr/bin/env python3
"""Scan |L(1/2 + it)| for the weight-12 form and fit the growth exponent.

Writes the record CSV plus a plot-ready file with fitted t^(1/3) and
t^(1/2) reference curves.

Usage:
  python scripts/exponent_scan_experiment.py --t-min 100 --t-max 400 --step 0.5
"""

import argparse
import sys
import time

from weylbound.cli import RunConfig, emit_plotdata, format_scan_csv
from weylbound.lfunc import delta_spec, exponent_scan, scan_summary


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-min", type=float, default=100.0)
    ap.add_argument("--t-max", type=float, default=400.0)
    ap.add_argument("--step", type=float, default=0.5)
    ap.add_argument("--parallelism", type=int, default=2)
    ap.add_argument("--out", default="scan_delta.csv")
    args = ap.parse_args()

    need = int(35 * (args.t_max / 6.28) * 2) + 100
    spec = delta_spec(max(2000, need))
    t0 = time.perf_counter()
    records = exponent_scan(
        spec, args.t_min, args.t_max, args.step, parallelism=args.parallelism
    )
    summary = scan_summary(records)
    cfg = RunConfig(
        command="scan",
        params={
            "form": "delta", "t_min": args.t_min, "t_max": args.t_max,
            "step": args.step, "prec": spec.coefficients.n_max,
        },
        output_path=args.out,
        parallelism=args.parallelism,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_scan_csv(records, cfg))
    emit_plotdata(records, args.out + ".plot", cfg)
    print(f"{summary.n_records} records in {time.perf_counter()-t0:.0f}s "
          f"({summary.n_flagged} flagged)")
    print(f"max |L|/t^(1/3) = {summary.max_weyl_ratio:.3f}; "
          f"max |L|/t^(1/2) = {summary.max_convexity_ratio:.3f}")
    if summary.fit_slope is not None:
        print(f"fitted peak exponent: {summary.fit_slope:.3f} "
              f"(convexity 0.5; Weyl-strength growth would be 1/3)")
    print(f"wrote {args.out} and {args.out}.plot")
    return 0 if summary.n_flagged == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
