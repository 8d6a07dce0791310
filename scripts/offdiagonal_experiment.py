#!/usr/bin/env python3
"""Measure the dual off-diagonal chain at chosen scales.

Runs the Poisson identity for S5, the J-decay fits, and the assembled
second-moment split, printing fitted constants against their predicted
scales.

Usage: python scripts/offdiagonal_experiment.py --N 2500 --t 400 --K 10 --Q 25
"""

import argparse
import sys
import time

from weylbound.pipeline import (
    PipelineParams,
    j_decay_report,
    offdiagonal_assembly,
    poisson_check_s5,
    stationary_dual_index,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=float, default=2500.0)
    ap.add_argument("--t", type=float, default=400.0)
    ap.add_argument("--K", type=float, default=10.0)
    ap.add_argument("--Q", type=float, default=25.0)
    args = ap.parse_args()
    p = PipelineParams(N=args.N, t=args.t, K=args.K, Q=args.Q)
    print(f"N = {p.N:g}, t = {p.t:g}, K = {p.K:g}, Q = {p.Q:g}, "
          f"dual length = {p.N_dual:g}")

    ok = True
    t0 = time.perf_counter()
    c = max(2, int(p.Q // 2))
    rep = poisson_check_s5(1, c, p, tol=1e-6)
    ok &= rep.status == "PASS"
    print(f"[{rep.status}] S5 Poisson (m=1, c={c}): |direct| = "
          f"{abs(rep.direct):.4e}, diff = {rep.abs_diff:.2e} "
          f"({time.perf_counter()-t0:.1f}s)")

    t0 = time.perf_counter()
    c_mid = int(p.Q)
    n_star = stationary_dual_index(p, c_mid)
    dec = j_decay_report(p, n_star, c_mid)
    ok &= dec.status == "PASS"
    print(f"[{dec.status}] J-decay (n={n_star}, c={c_mid}): |J(0)| t = "
          f"{dec.a0:.2f}, worst |J(m)| t K = {dec.worst_a1:.2f}, collapse "
          f"ratio {dec.decay_ratio:.1e} at m = {dec.decay_threshold} "
          f"({time.perf_counter()-t0:.1f}s)")

    t0 = time.perf_counter()
    cs = tuple(int(p.Q) + d for d in (-2, -1, 0, 1))
    asm = offdiagonal_assembly(p, cs, n_half_width=2, m_window=60)
    ok &= asm.status == "PASS"
    print(f"[{asm.status}] assembly over c in {cs}: diagonal const "
          f"{asm.diag_constant:.3f} (vs dual/N), off-diagonal const "
          f"{asm.offdiag_constant:.3f} (vs dual*t/(N K^3); alternative "
          f"single-density reading {asm.offdiag_constant_alt:.3e}), "
          f"indicator density ratio {asm.sparsity_ratio:.2f} "
          f"({time.perf_counter()-t0:.1f}s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
