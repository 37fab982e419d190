#!/usr/bin/env python3
"""Sweep the lifted-angle window and tabulate worst-case margins.

Splits (pi, 2*pi) into bins, runs the level-set Monte Carlo suite in each
bin and prints the smallest observed margin for every checked inequality.
Useful for seeing how the Chern margins close up towards the boundary
angles pi and 2*pi.

    python scripts/theorem_sweep.py --count 2000 --bins 8 --seed 1
"""

import argparse
import math
import sys

from dhym import theorem_suite

TWO_PI = 2 * math.pi


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=2000, help="samples per bin")
    ap.add_argument("--bins", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--lo", type=float, default=math.pi + 0.01)
    ap.add_argument("--hi", type=float, default=TWO_PI - 0.01)
    args = ap.parse_args(argv)

    edges = [args.lo + (args.hi - args.lo) * i / args.bins for i in range(args.bins + 1)]
    all_ok = True
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        report = theorem_suite(args.count, seed=args.seed + i, theta_lo=lo, theta_hi=hi)
        all_ok &= report["pass"]
        worst = sorted(report["min_margins"].items(), key=lambda kv: kv[1])[:3]
        status = "ok " if report["pass"] else "FAIL"
        cells = ", ".join(f"{k.split('.')[-1]}={v:.3e}" for k, v in worst)
        print(
            f"theta in [{lo:6.4f}, {hi:6.4f}]  {status}  "
            f"{report['count']} samples  tightest: {cells}"
        )
    print("sweep:", "all bins pass" if all_ok else "violations found")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
