#!/usr/bin/env python3
"""Profile the Bessel-weighted k-sum magnitude across the x ladder.

The headline suppression claim wants |S1| at x = K^2/16 to be 1e-6 of
|S1| at x = 4K^2.  This experiment maps where genuine suppression
actually lives: once 2 pi x drops below the smallest order K, the
small-argument domination of J kicks in and |S1| collapses; between
K/(2 pi) and K^2 the alternating sum retains exp(-c sqrt(K))-sized
mass.

Usage: python scripts/ksum_suppression_profile.py --K 16
"""

import argparse
import sys

from weylbound.oscint import bessel_weighted_k_sum


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--K", type=int, default=16)
    args = ap.parse_args()
    K = args.K
    ladder = [
        K / 100.0, K / 25.0, K / (2 * 3.14159), K / 2.0, K * 1.0,
        K * K / 16.0, K * K / 4.0, float(K * K), 4.0 * K * K,
    ]
    # one call over the ladder, whose last rung x = 4K^2 is the reference
    sums = [abs(s.value) for s in bessel_weighted_k_sum(K, ladder, "direct")]
    ref = sums[-1]
    print(f"K = {K}; reference |S1(4K^2)| = {ref:.6e}")
    print(f"{'x':>12} {'|S1(x)|':>14} {'vs reference':>14}")
    for x, v in zip(ladder, sums):
        print(f"{x:12.4f} {v:14.6e} {v / ref:14.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
