import importlib.util
import json
import math
import os
import struct
from dataclasses import astuple, fields
from itertools import product
from re import findall

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from dhym import (
    IntersectionProfile,
    analytic_angle_from_integrals,
    blowup_p3,
    check_chern_n4,
    constant_model,
    lagrangian_phase,
    path_polynomials,
    sample_level_set_batch,
    weighted_model,
    winding_report,
    winding_trace,
    z_of_t,
)
from dhym.charge import (
    _NOISE,
    DEGENERACY_REL,
    _critical_points,
    _im_root,
    _lift_anchor,
    _origin,
    _positive_axis_roots,
    _real_roots,
    _t_max,
)
from dhym.errors import DegeneratePathError, DomainError, UndefinedAngleError

TWO_PI = 2 * math.pi
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def brute_force_theta(profile, n_pts=400_001):
    """Independent winding oracle: dense log-spaced sampling + np.unwrap,
    re-anchored onto the same branch as the report."""
    report = winding_report(profile)
    re_c, im_c = path_polynomials(profile)
    ts = np.geomspace(1.0, report.t_max, n_pts)
    args = np.arctan2(npoly.polyval(ts, im_c) + 0.0, npoly.polyval(ts, re_c))
    lift = np.unwrap(args[::-1])[::-1]
    shift = TWO_PI * round((report.anchor - lift[-1]) / TWO_PI)
    return (lift[0] + shift) - report.anchor, report.theta_alg


def reference_lift(raw, anchor):
    """The per-point unwrap loop that winding_report ran before its lift
    became a cumulative sum: from t_max down to 1, each raw argument moves
    by whole turns to the one nearest the lifted argument after it."""
    lift = [0.0] * len(raw)
    prev = anchor
    for i in range(len(raw) - 1, -1, -1):
        lift[i] = raw[i] + TWO_PI * round((prev - raw[i]) / TWO_PI)
        prev = lift[i]
    return lift


def assert_lift_matches_reference(report, trace):
    # raw arguments as winding_trace computes them: math.atan2 of each
    # trace row's (im, re)
    raw = [math.atan2(im, re) for _, re, im, _ in trace]
    assert [row[3] for row in trace] == reference_lift(raw, report.anchor)
    assert report.theta_alg == trace[0][3] - report.anchor


def test_lift_matches_reference_loop_on_blowup_grid():
    checked = 0
    for a, b, c, e in product(range(2, 6), range(1, 5), range(-5, 6), range(-5, 6)):
        if b >= a or c == e == 0:
            continue
        p = blowup_p3(a, b, c, e)
        try:
            report = winding_report(p)
        except DegeneratePathError:
            continue
        assert_lift_matches_reference(report, winding_trace(p)[1])
        checked += 1
    assert checked > 1150


_coeff = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([3, 4]),
    d0=st.floats(0.01, 50.0),
    tail=st.lists(_coeff, min_size=4, max_size=4),
    samples=st.sampled_from([2, 17, 64, 129]),
)
def test_lift_matches_reference_loop_on_random_profiles(n, d0, tail, samples):
    p = IntersectionProfile(n, (d0, *tail[:n]))
    try:
        report = winding_report(p)
    except (DegeneratePathError, DomainError):  # origin hit, or overflow on a subnormal d_k
        assume(False)
    assert_lift_matches_reference(report, winding_trace(p, samples)[1])


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([3, 4]),
    d0=st.floats(0.01, 50.0),
    tail=st.lists(_coeff, min_size=4, max_size=4),
    samples=st.lists(st.integers(2, 1000), min_size=1, max_size=3),
)
def test_angle_does_not_depend_on_samples(n, d0, tail, samples):
    # the trace that `dhym path --samples` prints ends its lift at the
    # report's angle, and raises as the report does
    p = IntersectionProfile(n, (d0, *tail[:n]))
    try:
        r = winding_report(p)
    except (DegeneratePathError, DomainError) as exc:
        want = type(exc), str(exc)
    else:
        want = r.theta_alg.hex()

    def outcome(s):
        try:
            trace = winding_trace(p, s)[1]
        except (DegeneratePathError, DomainError) as exc:
            return type(exc), str(exc)
        return (trace[0][3] - _lift_anchor(n)).hex()

    assert [outcome(s) for s in [129, *samples]] == [want] * (len(samples) + 1)


# The grid-based winding_report as it was before the lift moved to the axis
# roots: numpy.polynomial throughout, the lift read off a 129-point trace.
# It returns, besides, the least |Z| its origin check computed and dropped.


def ref_newton_polish(coeffs, x):
    fx = npoly.polyval(x, coeffs)
    dfx = npoly.polyval(x, npoly.polyder(coeffs))
    if dfx == 0.0 or not math.isfinite(dfx):
        return x
    x1 = x - fx / dfx
    if not math.isfinite(x1) or abs(x1 - x) > 1e-3 * (1.0 + abs(x)):
        return x
    return x1 if abs(npoly.polyval(x1, coeffs)) <= abs(fx) else x


def ref_axis_roots(p, t_im, re_c, im_c):
    if p.n == 4:
        a, b, c = p.d[0], -6.0 * p.d[2], p.d[4]
        disc = b * b - 4.0 * a * c
        squares = []
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
            squares = [q / a, c / q if q != 0.0 else 0.0]
    else:
        squares = [p.d[3] / (3.0 * p.d[1])] if p.d[1] != 0.0 else []
    roots = {ref_newton_polish(re_c, math.sqrt(s)) for s in squares if s > 0.0}
    if not math.isnan(t_im):
        roots.add(ref_newton_polish(im_c, t_im))
    return sorted(roots)


def ref_polyroots(c):
    """npoly.polyroots(c) after dropping each leading coefficient so small
    next to the others that the companion matrix would hold inf or NaN: its
    root lies beyond the double range (as charge._real_roots drops it)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while len(c) > 1 and not np.isfinite(c[:-1] / c[-1]).all():
            c = c[:-1]
    return npoly.polyroots(c)


def ref_origin(p, re_c, im_c, roots, t_hi):
    threshold = DEGENERACY_REL * max(abs(x) for x in p.d) / math.factorial(p.n)
    axis = [r for r in roots if 1.0 <= r <= t_hi]
    e = -math.frexp(max(np.abs(re_c).max(), np.abs(im_c).max()))[1]
    re_s, im_s = np.ldexp(re_c, e), np.ldexp(im_c, e)
    dmod2 = npoly.polyder(npoly.polyadd(npoly.polymul(re_s, re_s), npoly.polymul(im_s, im_s)))
    critical = []
    if np.any(dmod2 != 0.0):
        for r in ref_polyroots(dmod2):
            if abs(r.imag) < 1e-9 * (1.0 + abs(r)) and 1.0 <= r.real <= t_hi:
                x = float(r.real)
                for _ in range(2):
                    x = ref_newton_polish(dmod2, x)
                critical.append(min(max(x, 1.0), t_hi))
    ts = np.unique(np.array(axis + [1.0, t_hi] + critical))
    re_v, im_v = np.abs(npoly.polyval(ts, re_c)), np.abs(npoly.polyval(ts, im_c))
    noise = 32.0 * np.finfo(float).eps
    re_tol = np.maximum(threshold, noise * npoly.polyval(ts, np.abs(re_c)))
    im_tol = np.maximum(threshold, noise * npoly.polyval(ts, np.abs(im_c)))
    on_axis = np.isin(ts, axis) & (re_v <= re_tol) & (im_v <= im_tol)
    if on_axis.any():
        i = int(np.argmax(on_axis))
        raise DegeneratePathError(
            float(ts[i]), float(max(re_v[i], im_v[i])), float(max(re_tol[i], im_tol[i]))
        )
    # np.hypot as numpy computes it without AVX-512 (libm), so the least |Z|
    # does not depend on the CPU; numpy's AVX-512 kernel can differ in the
    # last bit
    mod = np.array([abs(complex(a, b)) for a, b in zip(re_v.tolist(), im_v.tolist())])
    i = int(np.argmin(mod))
    if mod[i] < threshold:
        raise DegeneratePathError(float(ts[i]), float(mod[i]), threshold)
    return float(mod[i]), float(ts[i])


def ref_winding(p, samples=129):
    """(theta_alg, t_star, t_max) of the grid-based winding report, and the
    least |Z| and its t that its origin check computed and dropped."""
    if p.n not in (3, 4):
        raise DomainError(f"winding analysis supports n in (3, 4), got {p.n}")
    re_c, im_c = path_polynomials(p)
    t_im = float(_im_root(p.n, p.d))
    roots = ref_axis_roots(p, t_im, re_c, im_c)
    t_hi = float(_t_max(p, roots))
    with np.errstate(over="ignore", invalid="ignore"):
        size = npoly.polyval(t_hi, np.abs(re_c)) + npoly.polyval(t_hi, np.abs(im_c))
    if not math.isfinite(size):
        raise DomainError(f"Z(t) overflows a double on [1, t_max = {t_hi:.6g}]")
    closest = ref_origin(p, re_c, im_c, roots, t_hi)
    breakpoints = [1.0] + [r for r in roots if 1.0 < r < t_hi] + [t_hi]
    mids = [0.5 * (a + b) for a, b in zip(breakpoints, breakpoints[1:])]
    grid = np.linspace(1.0, t_hi, max(int(samples), 2))
    ts = np.unique(np.concatenate([breakpoints, mids, grid]))
    re_v = npoly.polyval(ts, re_c)
    im_v = npoly.polyval(ts, im_c) + 0.0
    raw = np.fromiter(map(math.atan2, im_v.tolist(), re_v.tolist()), float, len(ts))
    anchor = _lift_anchor(p.n)
    turns = np.rint((np.append(raw[1:], anchor) - raw) / TWO_PI)
    lift = raw + TWO_PI * np.cumsum(turns[::-1])[::-1]
    return float(lift[0] - anchor), (t_im if t_im > 1.0 else None), t_hi, *closest


def _bits(x):
    return x.hex() if isinstance(x, float) else x


def outcome(f, p):
    """f(p) as bits, or the type, message and attributes of what it raised."""
    try:
        out = f(p)
    except Exception as exc:  # the same error must come out of both
        return type(exc).__name__, exc.args, {k: _bits(v) for k, v in vars(exc).items()}
    return tuple(map(_bits, out))


def new_winding(p):
    r = winding_report(p)
    return r.theta_alg, r.t_star, r.t_max, r.min_abs_z, r.t_at_min


with open(os.path.join(ROOT, "perfbench", "origin_hits_ref.json"), encoding="utf-8") as fh:
    REF_HITS = [tuple(h) for h in json.load(fh)["hits"]]


def blowup_grid():
    """The blow-up pairs of the grid the tests walk: 2 <= a <= 5, 1 <= b < a,
    -5 <= c, e <= 5, (c, e) != (0, 0)."""
    return [
        blowup_p3(a, b, c, e)
        for a, b, c, e in product(range(2, 6), range(1, 5), range(-5, 6), range(-5, 6))
        if b < a and (c, e) != (0, 0)
    ]


_extreme = st.sampled_from(
    [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308]
)
_entry = _extreme | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-9, 9)
_volume = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from([1.0, 2.5])


# the mpmath reference origin hits; a tangent double root of Re Z (Z
# touches the imaginary axis at sqrt(3)) and the same tangent through the
# origin; a 3-fold whose M'(s) has a leading coefficient that underflows
# next to the others; a 4-fold whose cubic M'(s) = s (s^2 + 1e-122) / 144
# underflows in a naive closed form; three whose least |Z| sits where terms
# 1e200 and more apart balance (a square underflows at one power-of-two
# scale; the last comes within the threshold there, which the reference
# missed); a least-|Z| hit at a critical point; a subnormal path
PINNED = [
    tuple(map(float, d))
    for d in [blowup_p3(*h).d for h in REF_HITS]
    + [
        (1, 0.5, 1, 3, 9),
        (1, 1, 1, 3, 9),
        (1.5344713853406947e-160, 1, 0, 0),
        (1, 0, 0, 0, 1.0009925029485596e-122),
        (1.0, -1.7654319508633852e67, 1e-300, -1.1648001329354708e217),
        (2.5, 2.666257698046796e70, -0.0, 2.666257698046796e70, -1e300),
        (3.307216979229681e16, -3, 9.673833633045764e158, 0, 1e300),
        (2.3409832286613924e179, -7, 2.3409832286613924e179, 0.0, 2.3409832286613924e179),
        (1e-323, 1e-323, 1e-323, 1e-323),
    ]
]


def _pinned(test):
    for d in PINNED:
        test = example(d=d)(test)
    return test


# The exact least |Z| on [1, t_max].  Re Z = A(s) and Im Z = t B(s) with
# s = t^2, so |Z|^2 = M(s) = A(s)^2 + s B(s)^2 and the least |Z| lies at an
# endpoint or at a real root of M'(s) in [1, t_max^2].  The coefficients are
# path_polynomials', taken exactly; roots come from mpmath.polyroots.


def mp_roots(c):
    """The complex roots of the polynomial with ascending coefficients c,
    taken exactly, by mpmath.polyroots: the variable is scaled by the roots'
    order of magnitude and the precision raised by its digits, so that a
    root of modulus 1 or more keeps 50 digits."""
    with mpmath.workdps(60):
        c = [mpmath.mpf(x) for x in c]
        while c and c[-1] == 0:
            c.pop()
        deg = len(c) - 1
        if deg < 1:
            return []
        monic = [x / c[-1] for x in c[:-1]]
        scale = max(abs(x) ** (mpmath.mpf(1) / (deg - j)) for j, x in enumerate(monic))
        if scale == 0:
            return [mpmath.mpf(0)] * deg
        digits = max(0, int(mpmath.log10(scale)))
    with mpmath.workdps(60 + digits):
        scaled = [x / scale ** (deg - j) for j, x in enumerate(monic)]
        roots = mpmath.polyroots([1, *scaled[::-1]], maxsteps=2000, extraprec=2 * mpmath.mp.prec)
        return [r * scale for r in roots]


def mp_mul(x, y):
    out = [mpmath.mpf(0)] * (len(x) + len(y) - 1)
    for (i, a), (j, b) in product(enumerate(x), enumerate(y)):
        out[i + j] += a * b
    return out


def exact_slope(p):
    """Ascending coefficients of M'(s), exact: Re Z = A(s), Im Z = t B(s)
    and M = A^2 + s B^2."""
    re_c, im_c = path_polynomials(p)
    with mpmath.workdps(50):
        a = [mpmath.mpf(float(x)) for x in re_c[::2]]
        b = [mpmath.mpf(float(x)) for x in im_c[1::2]]
        m = mp_mul(a, a) + [mpmath.mpf(0)] * (2 * len(b) - 2 * len(a) + 1)
        for j, x in enumerate(mp_mul(b, b)):
            m[j + 1] += x
        return [j * x for j, x in enumerate(m)][1:]


def exact_abs_z(p, t):
    """|Z(t)| of the double coefficients of path_polynomials(p), at 50 digits."""
    re_c, im_c = path_polynomials(p)
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        re, im = (mpmath.polyval([mpmath.mpf(float(x)) for x in c[::-1]], t) for c in (re_c, im_c))
        return mpmath.hypot(re, im)


def exact_least_modulus(p, t_hi):
    """(least |Z| on [1, t_hi], a t where it is reached) at 50 digits: |Z| at
    the endpoints, the real roots of M'(s) in [1, t_hi^2] and the positive
    roots of Re Z = A(s) and Im Z = t B(s).  Every root's real part counts,
    so a double root that polyroots leaves slightly complex is not lost."""
    re_c, im_c = path_polynomials(p)
    with mpmath.workdps(50):
        a = [mpmath.mpf(float(x)) for x in re_c[::2]]
        b = [mpmath.mpf(float(x)) for x in im_c[1::2]]
        s_hi = mpmath.mpf(t_hi) ** 2
        squares = [mpmath.mpf(1), s_hi] + [
            mpmath.re(r)
            for c in (exact_slope(p), a, b)
            for r in mp_roots(c)
            if 1 <= mpmath.re(r) <= s_hi
        ]
        return min((exact_abs_z(p, mpmath.sqrt(s)), mpmath.sqrt(s)) for s in squares)


def origin_noise(p, t):
    """_origin's evaluation noise bound at t, _NOISE * sum |c_k| t^k over the
    coefficients of Re Z and Im Z, plus 16 of the smallest subnormal: the
    absolute rounding of steps whose values underflow."""
    re_c, im_c = path_polynomials(p)
    with mpmath.workdps(50):
        terms = [abs(mpmath.mpf(float(x))) * mpmath.mpf(t) ** k for k, x in enumerate(re_c)]
        terms += [abs(mpmath.mpf(float(x))) * mpmath.mpf(t) ** k for k, x in enumerate(im_c)]
        return _NOISE * mpmath.fsum(terms) + 16 * mpmath.mpf(5e-324)


def assert_least_modulus(p, report):
    """min_abs_z is within _origin's noise bound of the exact least |Z|, and
    so is the exact |Z| at t_at_min."""
    least, t_least = exact_least_modulus(p, report.t_max)
    bound = origin_noise(p, max(report.t_at_min, t_least))
    assert 1.0 <= report.t_at_min <= report.t_max
    assert abs(report.min_abs_z - least) <= bound, (p.d, report.min_abs_z, least, bound)
    assert exact_abs_z(p, report.t_at_min) - least <= bound, (p.d, report.t_at_min, t_least)


def ulps(x, y):
    """Distance in ulp between two doubles of the same sign."""
    i, j = (int.from_bytes(struct.pack("<d", v), "little") for v in (x, y))
    return abs(i - j)


def assert_matches_grid_reference(p, near=None):
    """theta_alg, t_star, t_max and every raised error bit for bit as the grid
    reference; min_abs_z and t_at_min against the exact least |Z| and, with
    near, within that many ulp of the reference's.  The one verdict that may
    differ is the least-|Z| test's, whose t and |Z| move as t_at_min and
    min_abs_z do (and, where the reference lost a critical point to
    underflow, whose outcome can change): the oracle decides it."""
    got, want = outcome(new_winding, p), outcome(ref_winding, p)
    if got != want and (len(got) == 3 or len(want) == 3):  # (type, args, attributes)
        threshold = DEGENERACY_REL * max(abs(x) for x in p.d) / math.factorial(p.n)
        assert want[0] == "DegeneratePathError" or len(want) == 5
        try:
            report = winding_report(p)
        except DegeneratePathError as hit:
            assert hit.threshold == threshold and hit.abs_z < threshold
            assert exact_abs_z(p, hit.t_origin) <= threshold + origin_noise(p, hit.t_origin)
        else:
            assert want[2]["threshold"] == threshold.hex()
            assert_least_modulus(p, report)
        return
    if len(got) == 3:
        return
    assert got[:3] == want[:3]
    report = winding_report(p)
    assert_least_modulus(p, report)
    if near is not None:
        _, _, _, min_abs_z, t_at_min = ref_winding(p)
        assert ulps(report.min_abs_z, min_abs_z) <= near, (p.d, report.min_abs_z, min_abs_z)
        assert ulps(report.t_at_min, t_at_min) <= near, (p.d, report.t_at_min, t_at_min)


@settings(max_examples=400, deadline=None)
@_pinned
@given(d=st.sampled_from([3, 4]).flatmap(lambda n: st.tuples(_volume, *[_entry] * n)))
def test_lift_at_axis_roots_matches_grid_reference(d):
    p = IntersectionProfile(len(d) - 1, d)
    with np.errstate(all="ignore"):
        assert_matches_grid_reference(p)


def test_lift_at_axis_roots_matches_grid_reference_on_blowup_grid():
    for p in blowup_grid():
        assert_matches_grid_reference(p, near=2)


def test_least_modulus_matches_the_exact_oracle():
    # a seeded few hundred 3- and 4-fold profiles, O(1) and spread over
    # 16 orders of magnitude, and the blow-up grid pairs nearest the origin;
    # the reference origin hits are exact zeros of |Z| on [1, t_max]
    rng = np.random.default_rng(36)
    profiles = []
    for i in range(300):
        n = 3 + i % 2
        if i % 3:
            d = [rng.uniform(0.01, 50.0), *rng.uniform(-50.0, 50.0, n)]
        else:
            d = 10.0 ** rng.uniform(-8.0, 8.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
            d[0] = abs(d[0])
        profiles.append(IntersectionProfile(n, d))
    grid = [
        blowup_p3(*h)
        for h in product(range(2, 6), range(1, 5), range(-5, 6), range(-5, 6))
        if h[1] < h[0] and h[2:] != (0, 0) and h not in REF_HITS
    ]
    distance = {}
    for p in grid:
        r = winding_report(p)
        distance[p] = r.min_abs_z / max(abs(x) for x in p.d)
    profiles += sorted(distance, key=distance.get)[:20]
    raised = 0
    for p in profiles:
        try:
            report = winding_report(p)
        except DegeneratePathError as exc:
            # |Re Z| and |Im Z| were within a tolerance at t_origin, so |Z|
            # was within twice it and the noise
            raised += 1
            least, _ = exact_least_modulus(p, _t_max(p, [exc.t_origin]))
            assert least <= 2 * exc.threshold + origin_noise(p, exc.t_origin)
        else:
            assert_least_modulus(p, report)
    assert raised < 10
    for h in REF_HITS:
        p = blowup_p3(*h)
        with pytest.raises(DegeneratePathError) as err:
            winding_report(p)
        least, _ = exact_least_modulus(p, _t_max(p, [err.value.t_origin]))
        assert least < DEGENERACY_REL * max(abs(x) for x in p.d) / 6


#: (ascending coefficients, relative tolerance): three real roots, graded
#: ones, one real root with a pair beside it or far above it, a double
#: (tangent) root, a triple root, quadratics with two, one and no real roots,
#: a leading coefficient that is zero or whose quotients overflow, and x^3
ROOT_CASES = [
    ([-30.0, 31.0, -10.0, 1.0], 1e-14),  # (s - 2)(s - 3)(s - 5)
    ([-1e43, 1.001e43, -1e40, 1.0], 1e-14),  # about (s - 1)(s - 1e3)(s - 1e40)
    ([-2.0, 1.0, -2.0, 1.0], 1e-14),  # (s - 2)(s^2 + 1)
    ([-1e20, 1e20, -1.0, 1.0], 1e-14),  # (s - 1)(s^2 + 1e20)
    ([1e40, 1e40, 1.0, 1.0], 1e-14),  # (s + 1)(s^2 + 1e40)
    ([-28.0, 32.0, -11.0, 1.0], 1e-7),  # (s - 2)^2 (s - 7)
    ([-8.0, 12.0, -6.0, 1.0], 1e-5),  # (s - 2)^3
    ([0.5, -4.5, 0.0, 2.0], 1e-14),  # roots below 1 and of either sign
    ([2.0, -3.0, 1.0], 1e-14),
    ([4.0, -4.0, 1.0], 1e-7),
    ([1.0, 0.0, 1.0], 1e-14),
    ([3.0, 2.0], 1e-14),
    ([1.0, -2.0, 0.0, 0.0], 1e-14),
    ([1.0, -2.0, 1e-310], 1e-14),
    ([0.0, 0.0, 0.0, 2.0], 1e-14),
    ([5.0], 1e-14),
]


@pytest.mark.parametrize("coeffs, tol", ROOT_CASES)
def test_real_roots_match_polyroots(coeffs, tol):
    # every real root of the exact polynomial is found, and every root found
    # lies at a root, real or the real part of a near-real pair, to tol
    # relative (a double root splits by about sqrt(eps), a triple by cbrt)
    got = _real_roots(coeffs)
    want = [r for r in mp_roots(coeffs) if abs(mpmath.im(r)) <= tol * max(1, abs(r))]
    with np.errstate(over="ignore", divide="ignore"):
        if coeffs[-1] != 0.0 and not np.isfinite(np.divide(coeffs[:-1], coeffs[-1])).all():
            # the dropped leading coefficient's root lies beyond the double range
            want = [r for r in want if abs(r) < 1e300]
    for r in want:
        assert min(abs(x - r) for x in got) <= tol * max(1, abs(r)), (coeffs, got, r)
    for x in got:
        assert min(abs(x - mpmath.re(r)) for r in want) <= tol * max(1, abs(x)), (coeffs, got)


def test_real_roots_at_the_edges_of_the_double_range():
    # entries of +-1e300, subnormals and zeros in every position: no error,
    # no NaN
    edges = [0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160]
    for coeffs in [*product(edges, repeat=3), *product(edges, repeat=4)]:
        assert not any(math.isnan(x) for x in _real_roots(coeffs)), coeffs


def test_winding_at_the_edges_of_the_double_range():
    # a 4-fold whose M'(s) = s (s^2 + 1e-122) / 144 (the cubic's terms
    # underflow), the 3-fold whose M' has a leading coefficient that
    # underflows, and profiles of zeros, +-1, +-1e300 and subnormals: a
    # report that meets the exact least |Z|, or DomainError or
    # DegeneratePathError
    edges = [0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, -5e-324]
    profiles = [(1.0, 0.0, 0.0, 0.0, 1.0009925029485596e-122), (1.5344713853406947e-160, 1, 0, 0)]
    profiles += [(d0, *tail) for d0 in (5e-324, 1.0, 1e300) for tail in product(edges, repeat=3)]
    profiles += [(1.0, *tail) for tail in product(edges[:-1], repeat=4)]
    reports = 0
    for d in profiles:
        p = IntersectionProfile(len(d) - 1, d)
        try:
            with np.errstate(all="ignore"):
                report = winding_report(p)
        except (DomainError, DegeneratePathError):
            continue
        assert_least_modulus(p, report)
        reports += 1
    assert reports > 500


def test_origin_on_critical_points_outside_the_interval():
    # M'(s) has real roots at 0.32 (below 1), 12.1 and 23.6: on [1, 4] (up
    # to s = 16) only one lies inside, on [1, t_max] two
    p = IntersectionProfile(4, (1.0, 0.0, 4.0, 2.0, 9.0))
    slope = exact_slope(p)
    squares = sorted(float(mpmath.re(r)) for r in mp_roots(slope))
    assert squares[0] < 1.0 < squares[1] < 16.0 < squares[2]
    found = sorted(_real_roots([float(x) for x in slope]))
    assert found == pytest.approx(squares, rel=1e-14)
    re_c, im_c = path_polynomials(p)
    t_im = float(_im_root(4, p.d))
    roots = _positive_axis_roots(p, t_im, re_c, im_c)
    for t_hi in (4.0, winding_report(p).t_max):
        least, t_at = _origin(p, re_c, im_c, roots, t_hi)
        exact, _ = exact_least_modulus(p, t_hi)
        bound = origin_noise(p, t_hi)
        assert abs(least - exact) <= bound and exact_abs_z(p, t_at) - exact <= bound


# _origin's candidate test as it ran on numpy arrays before it moved to
# Python floats: np.unique over the candidates, polyval over that array,
# np.isin for the axis roots and np.maximum for the tolerances.  The Python
# floats must give the same bits.


def origin_inputs(p):
    """The arguments winding_report passes to _origin after p, or None where
    Z(t) overflows a double on [1, t_max] (no origin test runs there)."""
    re_c, im_c = path_polynomials(p)
    t_im = float(_im_root(p.n, p.d))
    with np.errstate(over="ignore", invalid="ignore"):
        roots = _positive_axis_roots(p, t_im, re_c, im_c)
        t_hi = _t_max(p, roots)
        size = npoly.polyval(t_hi, np.abs(re_c)) + npoly.polyval(t_hi, np.abs(im_c))
    return (re_c, im_c, roots, t_hi) if math.isfinite(size) else None


def numpy_origin(p, re_c, im_c, roots, t_hi):
    threshold = DEGENERACY_REL * max(abs(x) for x in p.d) / math.factorial(p.n)
    axis = [r for r in roots if r >= 1.0]
    critical = _critical_points(re_c.tolist(), im_c.tolist(), t_hi)
    ts = np.unique(np.array(axis + [1.0, t_hi] + critical))
    re_v, im_v = np.abs(npoly.polyval(ts, re_c)), np.abs(npoly.polyval(ts, im_c))
    re_tol = np.maximum(threshold, _NOISE * npoly.polyval(ts, np.abs(re_c)))
    im_tol = np.maximum(threshold, _NOISE * npoly.polyval(ts, np.abs(im_c)))
    on_axis = np.isin(ts, axis) & (re_v <= re_tol) & (im_v <= im_tol)
    if on_axis.any():
        i = int(np.argmax(on_axis))
        raise DegeneratePathError(
            float(ts[i]), float(max(re_v[i], im_v[i])), float(max(re_tol[i], im_tol[i]))
        )
    mod = [abs(complex(re, im)) for re, im in zip(re_v.tolist(), im_v.tolist())]
    i = mod.index(min(mod))
    if mod[i] < threshold:
        raise DegeneratePathError(float(ts[i]), mod[i], threshold)
    return mod[i], float(ts[i])


def assert_origin_matches_numpy(p):
    """_origin returns the bits of numpy_origin, or raises the same error
    with the same arguments and message."""
    args = origin_inputs(p)
    if args is not None:
        got = outcome(lambda q: _origin(q, *args), p)
        assert got == outcome(lambda q: numpy_origin(q, *args), p), p.d


@settings(max_examples=500, deadline=None)
@_pinned
@given(d=st.sampled_from([3, 4]).flatmap(lambda n: st.tuples(_volume, *[_entry] * n)))
def test_origin_matches_the_numpy_candidate_test(d):
    with np.errstate(all="ignore"):
        assert_origin_matches_numpy(IntersectionProfile(len(d) - 1, d))


def test_origin_matches_the_numpy_candidate_test_on_grid_and_level_sets():
    profiles = blowup_grid() + [blowup_p3(5, 4, -5, -8), blowup_p3(8, 2, 5, 4)]
    for i, theta in enumerate((-2.0, 0.5, 3.2, 3.9, 4.7, 5.5, 6.1)):
        rows = sample_level_set_batch(np.full(150, theta), seed=370 + i)
        profiles += [constant_model(row) for row in rows]
    for p in profiles:
        assert_origin_matches_numpy(p)


def test_report_and_error_values_are_python_floats():
    # a root polished on the coefficient arrays is a numpy scalar: t_max was
    # np.float64 at (5, 4, -5, -8), and t_at_min would be at the axis root
    # t = 1 of (8, 2, 5, 4)
    profiles = blowup_grid() + [IntersectionProfile(len(d) - 1, d) for d in PINNED]
    profiles += [blowup_p3(5, 4, -5, -8), blowup_p3(8, 2, 5, 4)]
    for p in profiles:
        try:
            with np.errstate(all="ignore"):
                report = winding_report(p)
        except DegeneratePathError as hit:
            values = [hit.t_origin, hit.abs_z, hit.threshold]
        else:
            values = [getattr(report, f.name) for f in fields(report) if f.name != "n"]
            values = [x for x in values if x is not None]  # t_star without a crossing
        assert all(type(x) is float for x in values), (p.d, values)


def test_trace_report_is_the_winding_report_on_blowup_grid():
    # one analysis: the report beside the trace rows is winding_report's,
    # bit for bit, and so is every raised error
    for a, b, c, e in product(range(2, 6), range(1, 5), range(-5, 6), range(-5, 6)):
        if b < a and (c, e) != (0, 0):
            p = blowup_p3(a, b, c, e)
            want = outcome(lambda q: astuple(winding_report(q)), p)
            for s in (2, 129):
                got = outcome(lambda q: astuple(winding_trace(q, s)[0]), p)
                assert got == want, (a, b, c, e, s)


def test_reference_origin_hits_raise():
    for h in REF_HITS:
        with pytest.raises(DegeneratePathError):
            winding_report(blowup_p3(*h))


def test_min_abs_z_is_the_least_modulus():
    # the least |Z| over the report's candidates is below every dense sample,
    # and is |Z| at t_at_min, bit for bit
    for lam in ((0.5, 1, 2, 3), (2, 3, 4, 5), (-0.3, 1.4, 2.0), (1, 2, 3, 4), (1, 2, 3)):
        p = constant_model(lam)
        r = winding_report(p)
        ts = np.linspace(1.0, r.t_max, 20001)
        dense = min(abs(z_of_t(p, t)) for t in ts.tolist())
        assert r.min_abs_z <= dense * (1 + 1e-12)
        assert r.min_abs_z == abs(z_of_t(p, r.t_at_min))
        assert 1.0 <= r.t_at_min <= r.t_max


def test_origin_scan_script_lists_the_reference_hits(capsys):
    path = os.path.join(ROOT, "scripts", "blowup_origin_scan.py")
    spec = importlib.util.spec_from_file_location("blowup_origin_scan", path)
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    assert scan.main(["--amax", "6", "--cmax", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scanned 2520 class pairs\n")
    pattern = r"omega = (\d+)H - (\d+)E, alpha = (-?\d+)H ([-+]) (\d+)E: Z\("
    hits = [
        (int(a), int(b), int(c), int(e) if sign == "-" else -int(e))
        for a, b, c, sign, e in findall(pattern, out)
    ]
    want = [h for h in REF_HITS if h[0] <= 6 and max(abs(h[2]), abs(h[3])) <= 6]
    assert want and hits == want


def test_winding_constant_2345():
    report = winding_report(constant_model((2, 3, 4, 5)))
    assert report.theta_alg == pytest.approx(5.05541292, abs=1e-9)
    assert report.t_star == pytest.approx(math.sqrt(11.0), abs=1e-12)
    assert report.anchor == pytest.approx(math.pi)


def test_winding_pure_volume_form():
    p = IntersectionProfile(4, (1, 0, 0, 0, 0))
    report = winding_report(p)
    assert report.theta_alg == pytest.approx(0.0, abs=1e-12)
    assert report.t_star is None
    # the whole path sits on the negative real axis
    for _, re, im, arg in winding_trace(p)[1]:
        assert re < 0.0
        assert im == 0.0
        assert arg == pytest.approx(math.pi)


def test_degenerate_path_raises_with_origin():
    with pytest.raises(DegeneratePathError) as err:
        winding_report(IntersectionProfile(4, (1, 1, 1, 4, 8)))
    assert err.value.t_origin == pytest.approx(2.0, abs=1e-9)
    assert err.value.abs_z <= err.value.threshold


def test_degenerate_pass_along_real_axis():
    # Im is identically zero and Re changes sign: the path slides through
    # the origin even though |Z| at representable points reads as O(1)
    with pytest.raises(DegeneratePathError) as err:
        winding_report(IntersectionProfile(4, (1, 0, 1e8, 0, 1)))
    s = 3e8 + math.sqrt(9e16 - 1.0)
    assert err.value.t_origin == pytest.approx(math.sqrt(s), rel=1e-12)

    with pytest.raises(DegeneratePathError):
        winding_report(IntersectionProfile(3, (1, 0, 1e7, 0)))


#: Re Z and Im Z vanish just below t = 1 (at 0.999999999999875 and
#: 0.9999999999995), outside [1, t_max], so the on-axis test never sees them
#: and only the least-|Z| test catches |Z(1)| = 1.718e-13 < 1e-10 * 5 / 24
NEAR_ORIGIN_AT_1 = (1.0, 1.000000000001, 1.0, 1.0, 4.999999999999)


def test_degenerate_least_modulus_below_threshold():
    p = IntersectionProfile(4, NEAR_ORIGIN_AT_1)
    with pytest.raises(DegeneratePathError) as err:
        winding_report(p)
    threshold = DEGENERACY_REL * max(NEAR_ORIGIN_AT_1) / 24
    assert err.value.t_origin == 1.0 and err.value.threshold == threshold
    assert err.value.abs_z == pytest.approx(1.7181e-13, rel=1e-3)
    # the profile is near the origin at t = 1, not an artefact of rounding
    with mpmath.workdps(50):
        d = [mpmath.mpf(x) for x in NEAR_ORIGIN_AT_1]
        z = -mpmath.fsum(math.comb(4, k) * d[k] * (-1j) ** (4 - k) for k in range(5)) / 24
        assert float(abs(z)) == pytest.approx(1.7181e-13, rel=1e-4)
        assert abs(z) < threshold


def test_lift_is_continuous_and_consistent():
    p = constant_model((0.5, 1, 2, 3))
    report = winding_report(p)
    trace = winding_trace(p)[1]
    args = [row[3] for row in trace]
    # adjacent samples inside one quadrant piece: steps below pi/2
    for a, b in zip(args, args[1:]):
        assert abs(b - a) < math.pi / 2
    # the lift is a genuine argument of the path modulo 2*pi
    for t, re, im, arg in trace:
        raw = math.atan2(im, re)
        delta = math.fmod(arg - raw, TWO_PI)
        wrapped = min(abs(delta), abs(abs(delta) - TWO_PI))
        assert wrapped < 1e-9
    # the report ends anchored at t_max
    assert trace[-1][3] == pytest.approx(report.anchor, abs=math.pi / 2)


def test_lift_refinement_stability():
    p = constant_model((0.5, 1, 2, 3))
    coarse, fine, finer = (winding_trace(p, s)[1][0][3] for s in (64, 128, 257))
    assert abs(coarse - fine) < 1e-12
    assert abs(fine - finer) < 1e-12


def test_angle_agreement_on_level_set_models():
    for i, theta in enumerate((3.2, 3.9, 4.7, 5.5, 6.1)):
        for t in sample_level_set_batch(np.full(40, theta), seed=50 + i):
            report = winding_report(constant_model(t))
            assert abs(report.theta_alg - lagrangian_phase(t)) < 1e-9


def test_winding_scaling_invariance():
    p = constant_model((2, 3, 4, 5))
    base = winding_report(p)
    for c in (1e-300, 1e-3, 7.0, 2e5, 1e290):
        scaled = winding_report(IntersectionProfile(4, [c * x for x in p.d]))
        assert scaled.theta_alg == pytest.approx(base.theta_alg, abs=1e-12)
        assert scaled.t_star == pytest.approx(base.t_star, abs=1e-12)


def test_tstar_sign_matches_second_inequality():
    for theta, seed in ((3.3, 60), (4.9, 61)):
        for t in sample_level_set_batch(np.full(50, theta), seed=seed):
            p = constant_model(t)
            report = winding_report(p)
            assert report.t_star is not None
            re_at_star = z_of_t(p, report.t_star).real
            margin = check_chern_n4(p).margin("second")
            assert math.copysign(1.0, re_at_star) == math.copysign(1.0, margin)


def test_tstar_absent_without_crossing():
    # negative d3: no positive Im-zero, hence no candidate crossing
    report = winding_report(IntersectionProfile(4, (1.0, 0.5, 0.1, -0.4, 0.2)))
    assert report.t_star is None


def test_tstar_with_negative_d1_and_d3():
    # Im Z = t (d3 - d1 t^2) / 6 vanishes at t = sqrt(d3 / d1) = 2 for any
    # common sign of d1 and d3; here Z(2) = -0.6875 sits on the real axis
    p = IntersectionProfile(4, (1, -1, 0, -4, 0.5))
    assert z_of_t(p, 2.0) == -0.6875
    assert winding_report(p).t_star == 2.0


def test_winding_n3_constant_models():
    report = winding_report(constant_model((1, 2, 3)))
    assert report.theta_alg == pytest.approx(math.pi, abs=1e-12)
    assert report.anchor == pytest.approx(1.5 * math.pi)
    for lam in ((0.5, 0.8, 5.0), (-0.3, 1.4, 2.0)):
        rep = winding_report(constant_model(lam))
        assert rep.theta_alg == pytest.approx(lagrangian_phase(lam), abs=1e-9)


def test_winding_matches_dense_unwrap_oracle():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 12:
        n = 4 if checked % 2 == 0 else 3
        d = rng.uniform(-5.0, 5.0, size=n + 1)
        d[0] = abs(d[0]) + 0.1
        try:
            brute, mine = brute_force_theta(IntersectionProfile(n, tuple(d)))
        except DegeneratePathError:
            continue
        assert abs(brute - mine) < 1e-7  # oracle limited by its grid density
        checked += 1


def test_winding_covers_far_crossings():
    # Im root at sqrt(d3/d1) = 31623 dwarfs the coefficient-based bound;
    # t_max must still clear it or the anchor quadrant is wrong
    p = IntersectionProfile(4, (1.0, 1e-9, 0.0, 1.0, 0.0))
    report = winding_report(p)
    assert report.t_max > math.sqrt(1e9)
    brute, mine = brute_force_theta(p, n_pts=4_000_001)
    assert abs(brute - mine) < 1e-7


def test_winding_rejects_other_dimensions():
    with pytest.raises(DomainError):
        winding_report(IntersectionProfile(2, (1.0, 0.0, 0.0)))


def test_profile_and_angle_reject_other_dimensions():
    # without these, only a randomly drawn fuzz document reaches either check
    with pytest.raises(DomainError, match="dimension must be >= 1, got 0"):
        IntersectionProfile(0, (1.0,))
    with pytest.raises(DomainError, match=r"analytic angle supports n in \(3, 4\), got 2"):
        analytic_angle_from_integrals(IntersectionProfile(2, (1.0, 0.0, 0.0)))


def test_winding_rejects_overflowing_paths():
    # a subnormal d_1 puts the Im root, and so t_max, beyond 1e153, where
    # t^n overflows; d_1 = 1e200 overflows Z at t_max ~ 1e67
    tiny = 2.2250738585072014e-308
    for d in ((1.0, tiny, 0.0, 4.0, 0.0), (1.0, tiny, 0.0, 1.0), (1.0, 1e200, 1.0, 1.0, 1.0)):
        with pytest.raises(DomainError, match="overflows"):
            winding_report(IntersectionProfile(len(d) - 1, d))


def test_winding_report_dict():
    p = constant_model((2, 3, 4, 5))
    d = winding_report(p).to_dict()
    assert list(d) == ["n", "theta_alg", "t_star", "t_max", "anchor", "min_abs_z", "t_at_min"]
    assert len(winding_trace(p)[1]) >= 129


def test_analytic_angle_examples():
    assert analytic_angle_from_integrals(constant_model((1, 1, 1, 1))) == pytest.approx(
        math.pi, abs=1e-12
    )
    assert analytic_angle_from_integrals(constant_model((0.5, 1, 2, 3))) == pytest.approx(
        3.60525, abs=1e-5
    )
    assert analytic_angle_from_integrals(constant_model((2, 3, 4, 5))) == pytest.approx(
        5.05541292, abs=1e-8
    )


def test_analytic_angle_matches_minus_z1():
    rng = np.random.default_rng(70)
    for _ in range(50):
        p = constant_model(rng.uniform(-3.0, 3.0, size=4))
        try:
            angle = analytic_angle_from_integrals(p)
        except UndefinedAngleError:
            continue
        want = math.atan2(-z_of_t(p, 1.0).imag, -z_of_t(p, 1.0).real) % TWO_PI
        assert angle % TWO_PI == pytest.approx(want, abs=1e-9)


def test_analytic_angle_lift_window():
    # positive real axis maps to 2*pi, not 0: the window is (0, 2*pi]
    assert analytic_angle_from_integrals(constant_model((0, 0, 0, 0))) == pytest.approx(
        TWO_PI
    )


def test_analytic_angle_undefined_at_vanishing_charge():
    with pytest.raises(UndefinedAngleError):
        analytic_angle_from_integrals(IntersectionProfile(4, (1, 1, 1, 1, 5)))


def test_analytic_angle_with_subnormal_volume():
    # S = (5e-324, 4, 6, 4, 1): the sum is -5 + 0i, |Z(1)| = 5/24, although
    # dividing it by d_0 overflows
    p = IntersectionProfile(4, (5e-324, 1, 1, 1, 1))
    assert analytic_angle_from_integrals(p) == math.pi


def test_integer_grid_window_hypothesis():
    # the paper's hypothesis on the integer grid (1, d_1..d_4), d_k in -4..4:
    # every profile whose lifted angle lies in (pi, 2*pi) passes `first` and
    # `second`, but the window alone does not give `kahler2`
    raised, window = 0, []
    for d in product(range(-4, 5), repeat=4):
        p = IntersectionProfile(4, (1, *d))
        try:
            theta = winding_report(p).theta_alg
        except DegeneratePathError:
            raised += 1
            continue
        if math.pi < theta < TWO_PI:
            window.append(check_chern_n4(p))
    assert raised == 52
    assert len(window) == 221
    assert all(r.entry("first")["pass"] and r.entry("second")["pass"] for r in window)
    assert sum(not r.entry("kahler2")["pass"] for r in window) == 39

    # the simplest kahler2 failure: 2 d_1 d_2 d_3 = 4 < d_0 d_3^2 + d_1^2 d_4 = 5
    p = IntersectionProfile(4, (1, 1, 1, 2, 1))
    assert winding_report(p).theta_alg == pytest.approx(5 * math.pi / 4, abs=1e-12)
    kahler2 = check_chern_n4(p).entry("kahler2")
    assert (kahler2["lhs"], kahler2["rhs"], kahler2["pass"]) == (4.0, 5.0, False)


def test_one_level_set_mixture_lifts_below_the_window():
    # two tuples on the level set theta = 4.5 (each fourth entry solved for
    # it) mix into a profile whose analytic angle is 4.5 but whose path
    # winds to 4.5 - 2*pi: a pointwise phase does not fix the lifted angle,
    # and this mixture fails `second` though both tuples sit in the window
    theta = 4.5

    def on_level_set(first3):
        return (*first3, math.tan(theta - sum(math.atan(v) for v in first3)))

    lam_a = on_level_set((-0.171, 54.451, 60.394))
    lam_b = on_level_set((0.567, 3.759, 4.013))
    assert lagrangian_phase(lam_a) == lagrangian_phase(lam_b) == theta
    p = weighted_model([(0.012, lam_a), (0.988, lam_b)])
    assert analytic_angle_from_integrals(p) == theta
    assert winding_report(p).theta_alg == theta - TWO_PI == -1.7831853071795862
    report = check_chern_n4(p)
    assert report.entry("first")["pass"]
    second = report.entry("second")
    assert not second["pass"] and second["margin"] == pytest.approx(-2.480e5, rel=1e-3)
    assert not report.entry("kahler2")["pass"]
