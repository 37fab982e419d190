#!/usr/bin/env python3
"""Scan blow-up classes for central-charge paths that approach the origin.

Walks the integer grid of metric classes a*H - b*E (a > b > 0) and form
classes c*H - e*E on the blow-up of P^3 and ranks the resulting paths by
the least |Z(t)| on [1, t_max] (the winding report's `min_abs_z`),
scale-normalised.  Exact origin hits (degenerate winding angles) are
listed first; those are the classes for which no lifted angle exists.

    python scripts/blowup_origin_scan.py --amax 6 --cmax 6 --top 12
"""

import argparse
import math
import sys
from pathlib import Path

from dhym import blowup_p3, winding_report
from dhym.errors import DegeneratePathError

# the grid is the benchmark's origin_scan grid, walked in the same order
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from grid import blowup_grid  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--amax", type=int, default=6, help="scan a in 2..amax")
    ap.add_argument("--cmax", type=int, default=6, help="scan c in -cmax..cmax")
    ap.add_argument("--top", type=int, default=12, help="rows to print")
    args = ap.parse_args(argv)

    hits = []
    near = []
    for pair in blowup_grid(args.amax, args.cmax):
        profile = blowup_p3(*pair)
        scale = max(abs(x) for x in profile.d) / math.factorial(3)
        try:
            report = winding_report(profile)
        except DegeneratePathError as exc:
            hits.append((pair, exc.t_origin))
            continue
        near.append((report.min_abs_z / scale, pair, report.theta_alg))

    def cls(h, ex):
        sign = "-" if ex >= 0 else "+"
        return f"{h}H {sign} {abs(ex)}E"

    print(f"scanned {len(hits) + len(near)} class pairs")
    if hits:
        print(f"\nexact origin hits ({len(hits)}): winding angle undefined")
        for (a, b, c, e), t in hits[: args.top]:
            print(f"  omega = {cls(a, b)}, alpha = {cls(c, e)}: Z({t:.6f}) = 0")
    near.sort()
    print("\nclosest approaches (|Z|/scale, classes, theta_alg):")
    for ratio, (a, b, c, e), theta in near[: args.top]:
        print(
            f"  {ratio:9.3e}  omega = {cls(a, b)}, alpha = {cls(c, e)}"
            f"  theta_alg = {theta:+.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
