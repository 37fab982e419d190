#!/usr/bin/env python3
"""Regenerate origin_hits_ref.json: blow-up grid pairs whose path hits Z = 0.

The reference is computed with mpmath at 50 significant digits, from the
integer intersection numbers, and never calls the float code in `dhym`.
For each pair (a, b, c, e) of the grid used by the origin_scan workload
it takes the minimum of |Z(t)| over t >= 1 (at t = 1 and at the real
critical points of |Z|^2) and divides it by max|d_k| / 3!, the scale the
program's origin threshold is relative to.  A pair is a hit when that
ratio is below 1e-10, the program's documented DEGENERACY_REL.  The
script refuses to write a reference if any ratio lies in the band
(1e-30, 1e-6), where the verdict would hinge on the threshold.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

import mpmath

from grid import blowup_grid

mpmath.mp.dps = 50

HIT_REL = mpmath.mpf("1e-10")
GRAY_LO = mpmath.mpf("1e-30")
GRAY_HI = mpmath.mpf("1e-6")

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "origin_hits_ref.json")


def profile(a, b, c, e):
    """d_k = c^k a^(3-k) - e^k b^(3-k), exact integers."""
    return [c**k * a ** (3 - k) - e**k * b ** (3 - k) for k in range(4)]


def min_ratio(d):
    """min_{t >= 1} |Z(t)| / (max|d_k| / 6) at 50 digits.

    For n = 3, -6 Z(t) = (d3 - 3 d1 t^2) + i (d0 t^3 - 3 d2 t).
    """
    re = [mpmath.mpf(d[3]), 0, -3 * mpmath.mpf(d[1])]  # ascending in t
    im = [0, -3 * mpmath.mpf(d[2]), 0, mpmath.mpf(d[0])]

    def mod2(t):
        x = mpmath.polyval(re[::-1], t)
        y = mpmath.polyval(im[::-1], t)
        return x * x + y * y

    # |Z|^2 * 36 = re^2 + im^2; its derivative, ascending coefficients
    sq = [mpmath.mpf(0)] * 7
    for poly in (re, im):
        for i, u in enumerate(poly):
            for j, v in enumerate(poly):
                sq[i + j] += u * v
    der = [k * sq[k] for k in range(1, 7)]
    while der and der[-1] == 0:
        der.pop()
    candidates = [mpmath.mpf(1)]
    if len(der) > 1:
        roots = mpmath.polyroots(der[::-1], maxsteps=500, extraprec=200)
        for r in roots:
            r = mpmath.mpc(r)
            if abs(r.imag) <= mpmath.mpf("1e-30") * (1 + abs(r)) and r.real >= 1:
                candidates.append(r.real)
    best = min(mpmath.sqrt(mod2(t)) for t in candidates) / 6
    scale = mpmath.mpf(max(abs(x) for x in d)) / 6
    return best / scale


def main() -> int:
    hits = []
    nearest_miss = None
    count = 0
    for pair in blowup_grid():
        count += 1
        ratio = min_ratio(profile(*pair))
        if GRAY_LO < ratio < GRAY_HI:
            print(f"{pair}: ratio {mpmath.nstr(ratio, 5)} is too close to the threshold")
            return 1
        if ratio < HIT_REL:
            hits.append(list(pair))
        elif nearest_miss is None or ratio < nearest_miss[0]:
            nearest_miss = (ratio, list(pair))
    ref = {
        "grid": {"a": [2, 8], "b": "1..a-1", "c": [-8, 8], "e": [-8, 8], "excluded": [0, 0]},
        "pairs": count,
        "method": "mpmath 50 digits, min |Z| over t >= 1 relative to max|d_k|/3!",
        "hit_rel": "1e-10",
        "nearest_miss": {"pair": nearest_miss[1], "ratio": mpmath.nstr(nearest_miss[0], 6)},
        "hits": hits,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"{count} pairs, {len(hits)} hits, nearest miss {ref['nearest_miss']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
