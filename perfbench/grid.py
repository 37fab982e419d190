"""The blow-up class grid scanned by scripts/blowup_origin_scan.py."""


def blowup_grid(amax=8, cmax=8):
    """Pairs (a, b, c, e): metric a*H - b*E with a in 2..amax, b < a, and
    form c*H - e*E with c, e in -cmax..cmax, not both 0."""
    for a in range(2, amax + 1):
        for b in range(1, a):
            for c in range(-cmax, cmax + 1):
                for e in range(-cmax, cmax + 1):
                    if c or e:
                        yield a, b, c, e
