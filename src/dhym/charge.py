"""Central-charge paths, winding angles and intersection-number inequalities.

A cohomology pair on an n-fold (n = 3 or 4) enters only through its
intersection profile d_k = integral of alpha^k wedge omega^(n-k).  The
central charge

    Z(t) = -(1/n!) * sum_k C(n,k) d_k (-i t)^(n-k)

is a polynomial path in the complex plane; as t runs from +infinity down
to 1 its continuous argument defines the algebraic lifted angle, provided
the path misses the origin.  Re Z holds only even powers of t and Im Z
only odd ones, so with s = t^2, Re Z = A(s), Im Z = t B(s) and
|Z|^2 = A(s)^2 + s B(s)^2: the real roots of Re Z and Im Z and the
critical points of |Z| are roots in s of polynomials of degree at most 3
(a quadratic for n = 3), taken in closed form and Newton-polished.  The
lift is tracked exactly by splitting [1, t_max] at the axis roots (the
quadrant is constant in between): `winding_report` evaluates Z only at
the roots and their midpoints, and a sampled trace of the lift is built
only on request (`winding_trace`).  One Horner loop evaluates every
polynomial, at a point or over an array, in numpy.polynomial's order of
operations: the bits match numpy's polyval without its per-call overhead.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .eigen import TWO_PI, phase_component_rows
from .errors import DegeneratePathError, DomainError, UndefinedAngleError
from .reports import InequalityReport, evaluate

#: |Z| below DEGENERACY_REL * max|d_k| / n! counts as an origin hit
DEGENERACY_REL = 1e-10

#: a computed value below _NOISE * sum|c_k| t^k is indistinguishable from zero
_NOISE = 32.0 * sys.float_info.epsilon

_MINUS_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)  # (-i)^m for m mod 4


@dataclass(frozen=True)
class IntersectionProfile:
    """Intersection numbers d_k = alpha^k . omega^(n-k), with d_0 > 0.

    `synthetic` marks profiles assembled from weighted pointwise data with
    no underlying manifold claimed; inequality suites must not assume the
    Khovanskii-Teissier chain for those.
    """

    n: int
    d: tuple[float, ...]
    synthetic: bool = False

    def __post_init__(self):
        d = tuple(float(x) for x in self.d)
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got {self.n}")
        if len(d) != self.n + 1:
            try:
                need = str(self.n + 1)
            except ValueError:  # more digits than int's str() conversion limit
                need = "n + 1"
            raise DomainError(f"need {need} intersection numbers, got {len(d)}")
        if not all(math.isfinite(x) for x in d):
            raise DomainError("intersection numbers must be finite")
        if d[0] <= 0.0:
            raise DomainError(f"volume d_0 must be positive, got {d[0]}")
        object.__setattr__(self, "d", d)

    def to_dict(self):
        out = {"n": self.n, "d": list(self.d)}
        if self.synthetic:
            out["synthetic"] = True
        return out


def z_of_t(p: IntersectionProfile, t: float) -> complex:
    """Central charge Z(t) = -(1/n!) sum_k C(n,k) d_k (-i t)^(n-k), t > 0,
    from `path_polynomials` by the Horner loop that `dhym path` runs: the
    same bits as its trace rows and `min_abs_z`."""
    if t <= 0.0:
        raise DomainError(f"path parameter t must be positive, got {t}")
    re_c, im_c = path_polynomials(p)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as Python floats
        return complex(_horner(re_c, t), _horner(im_c, t))


def path_polynomials(p: IntersectionProfile):
    """Ascending coefficient arrays (re, im) of Z(t) as real polynomials in t."""
    n = p.n
    re = np.zeros(n + 1)
    im = np.zeros(n + 1)
    scale = -1.0 / math.factorial(n)
    for k in range(n + 1):
        m = n - k
        c = scale * math.comb(n, k) * p.d[k] * _MINUS_I_POW[m % 4]
        re[m] = c.real
        im[m] = c.imag
    return re, im


def _horner(c, x):
    """The polynomial with ascending coefficients c at x, a float or an
    array, in numpy.polynomial.polyval's order of operations (same bits)."""
    acc = c[-1] + x * 0
    for a in c[-2::-1]:
        acc = a + acc * x
    return acc


def _derivative(c) -> list:
    return [j * c[j] for j in range(1, len(c))]


def _quadratic(a: float, b: float, c: float) -> tuple[list, list]:
    """Real roots of a x^2 + b x + c (a != 0) by the stable formula, and the
    complex pair (real part, |imaginary part|) where there are none."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return [], [(-0.5 * b / a, 0.5 * math.sqrt(-disc) / abs(a))]
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
    return [q / a, c / q if q != 0.0 else 0.0], []


def _real_roots(c) -> list:
    """Real roots of the polynomial with ascending coefficients c, of degree
    at most 3, in closed form, and the real part of each complex pair whose
    imaginary part is below 1e-9 (1 + |real part|): a double root split by
    rounding.  A leading coefficient that is 0 or whose quotients overflow
    is dropped (its root lies beyond the double range), the rest made monic
    and its variable scaled by a power of two that bounds every coefficient.
    A cubic's root of largest modulus comes from the trigonometric or
    Cardano form, the other two from the quadratic left when it is divided
    out, which keeps smaller roots accurate; where it is a complex pair, the
    real root is -c_0 over the pair's squared modulus.
    """
    c = list(c)
    while len(c) > 1 and (c[-1] == 0.0 or not all(math.isfinite(x / c[-1]) for x in c[:-1])):
        c.pop()
    deg = len(c) - 1
    if deg < 2:
        return [-c[0] / c[1]] if deg == 1 else []
    monic = [x / c[-1] for x in c[:-1]]
    k = max(math.frexp(abs(x) ** (1.0 / (deg - j)))[1] for j, x in enumerate(monic)) - 1
    u = [math.ldexp(x, -k * (deg - j)) for j, x in enumerate(monic)]  # each below 2^(deg - j)
    if deg == 2:
        roots, pairs = _quadratic(1.0, u[1], u[0])
    else:
        c0, c1, c2 = u
        q = (c2 * c2 - 3.0 * c1) / 9.0
        r = (c2 * (2.0 * c2 * c2 - 9.0 * c1) + 27.0 * c0) / 54.0
        pair, size = (0.0, 0.0), 0.0
        if r * r < q * q * q:  # three real roots; q > 0
            angle = math.acos(max(-1.0, min(1.0, r / (q * math.sqrt(q)))))
            cosines = [math.cos((angle + j * TWO_PI) / 3.0) for j in range(3)]
            big = max((-2.0 * math.sqrt(q) * x - c2 / 3.0 for x in cosines), key=abs)
        else:  # one real root and a pair (Cardano, without the cancelling sum)
            a = -math.copysign(math.cbrt(abs(r) + math.sqrt(r * r - q * q * q)), r)
            b = q / a if a != 0.0 else 0.0
            big = a + b - c2 / 3.0
            pair = (-0.5 * (a + b) - c2 / 3.0, 0.5 * math.sqrt(3.0) * abs(a - b))
            size = pair[0] * pair[0] + pair[1] * pair[1]
        if size > big * big:
            roots, pairs = [-c0 / size], [pair]
        elif big == 0.0:  # u^3
            roots, pairs = [0.0], []
        else:
            roots, pairs = _quadratic(1.0, (-c0 / big - c1) / big, -c0 / big)
            roots.append(big)
    scale = math.ldexp(1.0, k)
    roots += [re for re, im in pairs if im * scale < 1e-9 * (1.0 + abs(re * scale))]
    return [x * scale for x in roots]


def _newton_polish(c, x: float) -> float:
    """One guarded Newton step on the polynomial.

    The step is kept only when it stays local and does not increase |f|;
    at a double root (tangent touch) the derivative underflows and the
    raw step would fling the point away, so the closed-form value wins.
    """
    fx = _horner(c, x)
    dfx = _horner(_derivative(c), x)
    if dfx == 0.0 or not math.isfinite(dfx):
        return x
    x1 = x - fx / dfx
    if not math.isfinite(x1) or abs(x1 - x) > 1e-3 * (1.0 + abs(x)):
        return x
    return x1 if abs(_horner(c, x1)) <= abs(fx) else x


def _im_root(n: int, d) -> np.ndarray:
    """Positive root of Im Z in closed form, for one profile d or for each
    row of d (m, n+1); NaN where there is none.  The root above 1, if any,
    is T*, the candidate real-axis crossing.

    Im Z is t (d_3 - d_1 t^2) / 6 for n = 4 and t (3 d_2 - d_0 t^2) / 6
    for n = 3, so the root is sqrt(d_3 / d_1) or sqrt(3 d_2 / d_0).
    """
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num, den = (d[..., 3], d[..., 1]) if n == 4 else (3.0 * d[..., 2], d[..., 0])
        ratio = num / den
    return np.sqrt(np.where((den != 0.0) & (ratio > 0.0), ratio, np.nan))


def _re_z_at_tstar_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of 4-fold profiles d (m, 5) whose T* = `_im_root` exceeds 1,
    and 24 Re Z(T*) = -(d_0 T*^4 - 6 d_2 T*^2 + d_4) at each.  Its sign is
    the sign of Re Z(T*)."""
    t = _im_root(4, d)
    rows = np.flatnonzero(t > 1.0)
    t = t[rows]
    d0, d2, d4 = d[:, ::2].T.take(rows, axis=1)  # d[rows] would copy all five columns
    t2 = t * t
    return rows, -(d0 * (t2 * t2) - 6 * d2 * t2 + d4)


def _positive_axis_roots(p: IntersectionProfile, t_im: float, re_c, im_c) -> list:
    """Sorted positive real roots of Re Z and Im Z (t = 0 excluded), each
    polished on its coefficient array; t_im is `_im_root`.

    Re Z is -(d_0 s^2 - 6 d_2 s + d_4) / 24 in s = t^2 for n = 4, solved
    by the stable quadratic formula, and (3 d_1 t^2 - d_3) / 6 for n = 3.
    """
    if p.n == 4:
        squares = _quadratic(p.d[0], -6.0 * p.d[2], p.d[4])[0]
    else:
        squares = [p.d[3] / (3.0 * p.d[1])] if p.d[1] != 0.0 else []
    # on the coefficient arrays a polished root is a numpy scalar
    roots = {float(_newton_polish(re_c, math.sqrt(s))) for s in squares if s > 0.0}
    if not math.isnan(t_im):
        roots.add(float(_newton_polish(im_c, t_im)))
    return sorted(roots)


def _t_max(p: IntersectionProfile, roots) -> float:
    """Anchor time beyond every real root of Re Z and Im Z.

    Starts from 2 * (1 + max_k |n! d_k / (C(n,k) d_0)|^(1/(n-k))) and is
    pushed past the explicitly known roots, so the asymptotic quadrant is
    guaranteed at t_max.
    """
    n, d = p.n, p.d
    term = max(
        abs(math.factorial(n) * d[k] / (math.comb(n, k) * d[0])) ** (1.0 / (n - k))
        for k in range(n)
    )
    return max([2.0 * (1.0 + term)] + [2.0 * r + 1.0 for r in roots])


def _critical_points(re_l: list, im_l: list, t_hi: float) -> list:
    """The critical points of |Z| on [1, t_hi], from the coefficient lists
    of Re Z and Im Z.

    Re Z holds only even powers of t and Im Z only odd ones (n = 3, 4), so
    Re Z = A(s) and Im Z = t B(s) with s = t^2, and |Z|^2 = M(s) =
    A(s)^2 + s B(s)^2.  Its critical points on [1, t_hi] are t = sqrt(s)
    at the real roots s in [1, t_hi^2] of M'(s) = 2 A A' + B^2 + 2 s B B',
    a cubic for n = 4 and a quadratic for n = 3, solved in closed form
    (`_real_roots`) and polished by two guarded Newton steps on M', both
    in a variable scaled by a power of two (see below).
    """
    # Powers of two scale t by 2^h, which brings the lowest and the highest
    # nonzero term to one size, and the coefficients by 2^e, which keeps M
    # finite (d_k = 1e300).  Both are exact, so only the Newton guard's
    # 1 + |u| can tell them apart, and no square that places a critical
    # point underflows (d_k = 1e217 beside 1).  M is a polynomial in
    # u = s / 4^h.
    coeffs = [x + y for x, y in zip(re_l, im_l)]  # one of each is 0
    sizes = [(m, math.frexp(x)[1]) for m, x in enumerate(coeffs) if x != 0.0] or [(0, 0)]
    (lo, size_lo), (hi, size_hi) = sizes[0], sizes[-1]
    h = min(max(round((size_lo - size_hi) / (hi - lo)), 0), 500) if hi > lo else 0
    e = -max(size + h * m for m, size in sizes)
    a = [math.ldexp(x, e + h * m) for m, x in enumerate(coeffs) if m % 2 == 0]
    b = [math.ldexp(x, e + h * m) for m, x in enumerate(coeffs) if m % 2 == 1]
    mod2 = [0.0] * max(2 * len(a) - 1, 2 * len(b))  # M = A^2 + u B^2
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            mod2[i + j] += x * y
    for i, x in enumerate(b):
        for j, y in enumerate(b):
            mod2[i + j + 1] += x * y
    slope = _derivative(mod2)
    s_per_u = math.ldexp(1.0, 2 * h)
    critical = []
    for u in _real_roots(slope):
        if 1.0 <= u * s_per_u <= t_hi * t_hi:
            for _ in range(2):
                u = _newton_polish(slope, u)
            critical.append(min(max(math.sqrt(u * s_per_u), 1.0), t_hi))
    return critical


def _origin(p: IntersectionProfile, re_c, im_c, roots, t_hi: float) -> tuple[float, float]:
    """Least |Z| on [1, t_hi] and the t where it is reached; raises
    DegeneratePathError when Z comes near the origin there.

    Re Z and Im Z are evaluated once at every candidate, in ascending t and
    on Python floats: the axis `roots`, the endpoints and the critical
    points of |Z| (`_critical_points`).  A pass through the origin sits at
    an axis root, so there both components are tested, each against the
    threshold or its own evaluation noise, whichever is larger (large t
    amplifies the polynomial so |Z| can read as O(1) at a point within one
    ulp of a true zero), and the first such hit raises.  Otherwise the
    first candidate of least |Z| is tested against the threshold.
    """
    threshold = DEGENERACY_REL * max(abs(x) for x in p.d) / math.factorial(p.n)
    axis = [r for r in roots if r >= 1.0]
    re_l, im_l = re_c.tolist(), im_c.tolist()
    least = (math.inf, 1.0)
    for t in sorted({*axis, 1.0, t_hi, *_critical_points(re_l, im_l, t_hi)}):
        re, im = abs(_horner(re_l, t)), abs(_horner(im_l, t))
        if t in axis:
            re_tol = max(threshold, _NOISE * _horner([abs(x) for x in re_l], t))
            im_tol = max(threshold, _NOISE * _horner([abs(x) for x in im_l], t))
            if re <= re_tol and im <= im_tol:
                raise DegeneratePathError(t, max(re, im), max(re_tol, im_tol))
        # |Z| by libm hypot (the abs of a Python complex): numpy's AVX-512
        # hypot kernel can differ from it in the last bit, which would make
        # min_abs_z depend on the CPU
        mod = abs(complex(re, im))
        if mod < least[0]:
            least = (mod, t)
    if least[0] < threshold:
        raise DegeneratePathError(least[1], least[0], threshold)
    return least


@dataclass(frozen=True)
class WindingReport:
    """Lifted argument of the central charge over [1, t_max].

    The lift is anchored at `anchor` at t = t_max, where Z sits in its
    asymptotic quadrant: anchor = pi for n = 4 (negative real axis) and
    3*pi/2 for n = 3.  theta_alg = lift(1) - anchor, which for n = 4 is
    the lift at t = 1 minus pi.  `min_abs_z` is the least |Z| on
    [1, t_max], reached first at `t_at_min`: the path's distance to the
    origin, where the angle would be undefined.
    """

    n: int
    theta_alg: float
    t_star: float | None
    t_max: float
    anchor: float
    min_abs_z: float
    t_at_min: float

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _lift_anchor(n: int) -> float:
    # continuous argument of -(-i t)^n near t = +infinity, folded to (0, 2*pi]
    return (math.pi - 0.5 * n * math.pi) % TWO_PI or TWO_PI


def _lift(re_c, im_c, ts: np.ndarray, anchor: float):
    """Re Z, Im Z and the lifted argument at the ascending points ts, which
    include every lift point: from the anchor at t_max down to t, the lift
    sums the whole turns between neighbours."""
    re_v = _horner(re_c, ts)
    im_v = _horner(im_c, ts) + 0.0  # normalise -0.0
    # math.atan2, not np.arctan2: numpy's SIMD kernels differ from libm in
    # the last bit on some CPUs, which would make the bytes CPU-dependent
    raw = np.fromiter(map(math.atan2, im_v.tolist(), re_v.tolist()), float, len(ts))
    # neighbours share a quadrant piece, so each step is below pi/2 and its
    # whole turns are the rounded raw difference
    turns = np.rint((np.append(raw[1:], anchor) - raw) / TWO_PI)
    return re_v, im_v, raw + TWO_PI * np.cumsum(turns[::-1])[::-1]


def _winding(p: IntersectionProfile, samples):
    """`winding_report` of p and, unless samples is None, the `winding_trace`
    rows: the stages read off one coefficient set, and one lift.

    The lift points are 1, t_max, every real root of Re Z and Im Z in
    between, and the midpoints of those breakpoints.  Each piece between
    breakpoints stays inside one quadrant, so unwrapping atan2 between
    neighbouring lift points is exact; grid points split pieces, which
    leaves lift(1) as it is.
    """
    if p.n not in (3, 4):
        raise DomainError(f"winding analysis supports n in (3, 4), got {p.n}")
    re_c, im_c = path_polynomials(p)
    t_im = float(_im_root(p.n, p.d))
    # a root or t_max beyond the double range overflows to inf, caught below
    with np.errstate(over="ignore", invalid="ignore"):
        roots = _positive_axis_roots(p, t_im, re_c, im_c)
        t_hi = _t_max(p, roots)
        # sum |c_k| t^k bounds Re Z, Im Z and every Horner step on [1, t_hi]
        size = _horner(np.abs(re_c), t_hi) + _horner(np.abs(im_c), t_hi)
    if not math.isfinite(size):
        raise DomainError(f"Z(t) overflows a double on [1, t_max = {t_hi:.6g}]")
    closest = _origin(p, re_c, im_c, roots, t_hi)
    breakpoints = [1.0] + [r for r in roots if r > 1.0] + [t_hi]
    mids = [0.5 * (a + b) for a, b in zip(breakpoints, breakpoints[1:])]
    ts = np.array(sorted({*breakpoints, *mids}))
    if samples is not None:
        ts = np.unique(np.concatenate([ts, np.linspace(1.0, t_hi, max(int(samples), 2))]))
    anchor = _lift_anchor(p.n)
    re_v, im_v, lift = _lift(re_c, im_c, ts, anchor)
    t_star = t_im if t_im > 1.0 else None
    report = WindingReport(p.n, float(lift[0] - anchor), t_star, t_hi, anchor, *closest)
    if samples is None:
        return report, None
    return report, tuple(map(tuple, np.column_stack([ts, re_v, im_v, lift]).tolist()))


def winding_report(p: IntersectionProfile) -> WindingReport:
    """Track the continuous argument of Z(t) from t_max down to t = 1.

    [1, t_max] is split at every real root of Re Z and Im Z (closed form,
    Newton-polished), so the lift needs Z only at those breakpoints and
    their midpoints, at most 9 points: one math.atan2 each, and the whole
    turns between neighbours summed down from the anchor at t_max.  Raises
    DegeneratePathError, with the offending t, when Z meets the origin at
    an axis root or min |Z| over the interval falls below the
    scale-relative origin threshold: the winding angle is then undefined.
    Raises DomainError when Z(t) overflows a double on [1, t_max].
    """
    return _winding(p, None)[0]


def winding_trace(p: IntersectionProfile, samples: int = 129) -> tuple:
    """(winding_report(p), rows) from one analysis: rows (t, Re Z, Im Z,
    lifted argument) in ascending t at the lift points and a uniform grid of
    `samples` points over [1, t_max].  Row 0 holds lift(1), so theta_alg =
    rows[0][3] - anchor.  Raises as `winding_report` does."""
    return _winding(p, samples)


def analytic_angle_from_integrals(p: IntersectionProfile) -> float:
    """Lifted angle in (0, 2*pi] read off the integrals alone.

    Forms S_k = C(n,k) d_k / d_0 and returns the argument of the complex
    number sum_k i^k S_k -- for n = 4 the pair (1 - S_2 + S_4, S_1 - S_3)
    -- lifted into (0, 2*pi].  Agrees with the Lagrangian phase of any
    pointwise model integrating to the same profile, and with
    arg(-Z(1)) mod 2*pi when n = 4.

    The sum is tested before the division by d_0, which overflows for a
    subnormal volume: its modulus, n! |Z(1)|, against DEGENERACY_REL *
    max|d_k|, the origin threshold of the winding.
    """
    if p.n not in (3, 4):
        raise DomainError(f"analytic angle supports n in (3, 4), got {p.n}")
    n = p.n
    re, im = phase_component_rows(np.array([[math.comb(n, k) * p.d[k] for k in range(n + 1)]]))
    v = complex(re[0], im[0])
    mod = math.hypot(v.real, v.imag)  # inf, where abs(v) raises OverflowError
    if mod <= DEGENERACY_REL * max(abs(x) for x in p.d):
        raise UndefinedAngleError(
            f"|Z(1)| = {mod / math.factorial(n):.3e} is numerically zero; "
            "no angle is defined"
        )
    # where the quotient overflows, the undivided sum has the same argument
    w = v / p.d[0]
    if not cmath.isfinite(w):
        w = v
    ang = math.atan2(w.imag, w.real)
    return ang + TWO_PI if ang <= 0.0 else ang


def check_chern_n4(p: IntersectionProfile) -> InequalityReport:
    """The two 4-fold Chern-number inequalities plus the Kaehler-cone form.

    first:   d_3 - d_1 > 0                       (the ratio form > 1);
    second:  6 d_1 d_2 d_3 > d_0 d_3^2 + d_1^2 d_4  (denominator-cleared);
    kahler2: 2 d_1 d_2 d_3 >= d_0 d_3^2 + d_1^2 d_4, non-strict, equality
             exactly when the two classes are proportional.
    """
    if p.n != 4:
        raise DomainError(f"4-fold check on an n={p.n} profile")
    return evaluate("chern_n4", np.array([p.d])).report()


def check_chern_n3(p: IntersectionProfile) -> InequalityReport:
    """3-fold Chern-number inequality 9 d_1 d_2 > d_0 d_3 (strict)."""
    if p.n != 3:
        raise DomainError(f"3-fold check on an n={p.n} profile")
    return evaluate("chern_n3", np.array([p.d])).report()


def kt_chain(p: IntersectionProfile) -> InequalityReport:
    """Khovanskii-Teissier log-concavity chain on a 4-fold profile.

    k1..k3: d_k^2 >= d_{k-1} d_{k+1}; the pairwise products eqn12:
    d_1 d_2 >= d_0 d_3 and eqn23: d_2 d_3 >= d_1 d_4; and, when the
    denominators are non-zero, the combined form
    d_0 d_3 / d_1 + d_1 d_4 / d_3 <= 2 d_2.  All non-strict, with
    equality flagged at the boundary tolerance (proportional classes).
    """
    if p.n != 4:
        raise DomainError(f"KT chain needs an n=4 profile, got n={p.n}")
    return evaluate("kt_chain", np.array([p.d])).report()


def integrated_sigma_chain(p: IntersectionProfile) -> InequalityReport:
    """Integrated sigma_k chain on a volume-normalised 4-fold profile.

    With S_k = C(4,k) d_k / d_0 (the integral of sigma_k over the
    pointwise model):

    chainA: S_1 S_2 / 6 >= S_3;
    chainB: S_1 S_2 > S_1 + S_3;
    final:  S_3^2 - S_1 S_2 S_3 + S_1^2 S_4 < 0;
    final_scaling: the final form equals 16 * (d_3^2 d_0 - 6 d_1 d_2 d_3
    + d_1^2 d_4) after normalisation, i.e. carries the same sign as the
    second 4-fold Chern inequality.
    """
    if p.n != 4:
        raise DomainError(f"sigma chain needs an n=4 profile, got n={p.n}")
    return evaluate("integrated_sigma_chain", np.array([p.d])).report()
