"""Central-charge paths, winding angles and intersection-number inequalities.

A cohomology pair on an n-fold (n = 3 or 4) enters only through its
intersection profile d_k = integral of alpha^k wedge omega^(n-k).  The
central charge

    Z(t) = -(1/n!) * sum_k C(n,k) d_k (-i t)^(n-k)

is a polynomial path in the complex plane; as t runs from +infinity down
to 1 its continuous argument defines the algebraic lifted angle, provided
the path misses the origin.  Both real and imaginary parts are low-degree
polynomials with closed-form real roots, so the lift is tracked exactly by
splitting [1, t_max] at those roots (the quadrant is constant in between).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial import polynomial as npoly

from .eigen import TWO_PI, as_eigen, gamma_cone, mixed_sigma, phase_component_rows
from .errors import DegeneratePathError, DomainError, UndefinedAngleError
from .reports import InequalityReport, compare, evaluate

#: |Z| below DEGENERACY_REL * max|d_k| / n! counts as an origin hit
DEGENERACY_REL = 1e-10

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
            raise DomainError(f"need {self.n + 1} intersection numbers, got {len(d)}")
        if not all(math.isfinite(x) for x in d):
            raise DomainError("intersection numbers must be finite")
        if d[0] <= 0.0:
            raise DomainError(f"volume d_0 must be positive, got {d[0]}")
        object.__setattr__(self, "d", d)

    def normalized(self) -> "IntersectionProfile":
        """Same ray of profiles with d_0 = 1."""
        if self.d[0] == 1.0:
            return self
        d0 = self.d[0]
        return IntersectionProfile(self.n, tuple(x / d0 for x in self.d), self.synthetic)

    def scaled(self, c: float) -> "IntersectionProfile":
        if c <= 0.0:
            raise DomainError(f"scale must be positive, got {c}")
        return IntersectionProfile(self.n, tuple(c * x for x in self.d), self.synthetic)

    def to_dict(self):
        out = {"n": self.n, "d": list(self.d)}
        if self.synthetic:
            out["synthetic"] = True
        return out

    @classmethod
    def from_dict(cls, obj) -> "IntersectionProfile":
        try:
            n, d = obj["n"], tuple(float(x) for x in obj["d"])
            synthetic = obj.get("synthetic", False)
            if isinstance(n, bool) or int(n) != n:
                raise ValueError(f"n must be an integer, got {n!r}")
            if not isinstance(synthetic, bool):
                raise ValueError(f"synthetic must be true or false, got {synthetic!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed profile object: {exc}") from exc
        return cls(int(n), d, synthetic)


def z_of_t(p: IntersectionProfile, t: float) -> complex:
    """Central charge Z(t) = -(1/n!) sum_k C(n,k) d_k (-i t)^(n-k), t > 0."""
    if t <= 0.0:
        raise DomainError(f"path parameter t must be positive, got {t}")
    n = p.n
    acc = 0j
    for k in range(n + 1):
        m = n - k
        acc += math.comb(n, k) * p.d[k] * _MINUS_I_POW[m % 4] * t**m
    return -acc / math.factorial(n)


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


def _newton_polish(coeffs: np.ndarray, x: float) -> float:
    """One guarded Newton step on the polynomial.

    The step is kept only when it stays local and does not increase |f|;
    at a double root (tangent touch) the derivative underflows and the
    raw step would fling the point away, so the closed-form value wins.
    """
    fx = npoly.polyval(x, coeffs)
    dfx = npoly.polyval(x, npoly.polyder(coeffs))
    if dfx == 0.0 or not math.isfinite(dfx):
        return x
    x1 = x - fx / dfx
    if not math.isfinite(x1) or abs(x1 - x) > 1e-3 * (1.0 + abs(x)):
        return x
    return x1 if abs(npoly.polyval(x1, coeffs)) <= abs(fx) else x


def _im_root(n: int, d) -> np.ndarray:
    """Positive root of Im Z in closed form, for one profile d or for each
    row of d (m, n+1); NaN where there is none.  The root above 1, if any,
    is T*, the candidate real-axis crossing.

    Im Z is t (d_3 - d_1 t^2) / 6 for n = 4 and t (3 d_2 - d_0 t^2) / 6
    for n = 3, so the root is sqrt(d_3 / d_1) or sqrt(3 d_2 / d_0).
    """
    d = np.asarray(d, dtype=float)
    num, den = (d[..., 3], d[..., 1]) if n == 4 else (3.0 * d[..., 2], d[..., 0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = num / den
    return np.sqrt(np.where((den != 0.0) & (ratio > 0.0), ratio, np.nan))


def _positive_axis_roots(p: IntersectionProfile, t_im: float, re_c, im_c) -> list:
    """Sorted positive real roots of Re Z and Im Z (t = 0 excluded), each
    polished on its coefficient array; t_im is `_im_root`.

    Re Z is -(d_0 s^2 - 6 d_2 s + d_4) / 24 in s = t^2 for n = 4, solved
    by the stable quadratic formula, and (3 d_1 t^2 - d_3) / 6 for n = 3.
    """
    if p.n == 4:
        a, b, c = p.d[0], -6.0 * p.d[2], p.d[4]
        disc = b * b - 4.0 * a * c
        squares = []
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
            squares = [q / a, c / q if q != 0.0 else 0.0]
    else:
        squares = [p.d[3] / (3.0 * p.d[1])] if p.d[1] != 0.0 else []
    roots = {_newton_polish(re_c, math.sqrt(s)) for s in squares if s > 0.0}
    if not math.isnan(t_im):
        roots.add(_newton_polish(im_c, t_im))
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


def _origin(p: IntersectionProfile, re_c, im_c, roots, t_hi: float) -> None:
    """Raise DegeneratePathError when Z comes near the origin on [1, t_hi].

    Re Z and Im Z are evaluated once at every candidate: the axis `roots`,
    the endpoints and the real critical points of |Z|^2.  A pass through
    the origin sits at an axis root, so there both components are tested,
    each against the threshold or its own evaluation noise, whichever is
    larger (large t amplifies the polynomial so |Z| can read as O(1) at a
    point within one ulp of a true zero).  Otherwise the first candidate
    of least |Z| is tested against the threshold.
    """
    threshold = DEGENERACY_REL * max(abs(x) for x in p.d) / math.factorial(p.n)
    axis = [r for r in roots if 1.0 <= r <= t_hi]
    # a power-of-two scale keeps |Z|^2 finite (d_k = 1e300) and its roots' bits
    e = -math.frexp(max(np.abs(re_c).max(), np.abs(im_c).max()))[1]
    re_s, im_s = np.ldexp(re_c, e), np.ldexp(im_c, e)
    dmod2 = npoly.polyder(npoly.polyadd(npoly.polymul(re_s, re_s), npoly.polymul(im_s, im_s)))
    critical = []
    if np.any(dmod2 != 0.0):
        for r in npoly.polyroots(dmod2):
            if abs(r.imag) < 1e-9 * (1.0 + abs(r)) and 1.0 <= r.real <= t_hi:
                x = float(r.real)
                for _ in range(2):
                    x = _newton_polish(dmod2, x)
                critical.append(min(max(x, 1.0), t_hi))
    ts = np.unique(np.array(axis + [1.0, t_hi] + critical))
    re_v, im_v = np.abs(npoly.polyval(ts, re_c)), np.abs(npoly.polyval(ts, im_c))

    # a computed value below 32 eps * sum|c_k| t^k is indistinguishable from zero
    noise = 32.0 * np.finfo(float).eps
    re_tol = np.maximum(threshold, noise * npoly.polyval(ts, np.abs(re_c)))
    im_tol = np.maximum(threshold, noise * npoly.polyval(ts, np.abs(im_c)))
    on_axis = np.isin(ts, axis) & (re_v <= re_tol) & (im_v <= im_tol)
    if on_axis.any():
        i = int(np.argmax(on_axis))
        raise DegeneratePathError(
            float(ts[i]), float(max(re_v[i], im_v[i])), float(max(re_tol[i], im_tol[i]))
        )
    mod = np.hypot(re_v, im_v)
    i = int(np.argmin(mod))
    if mod[i] < threshold:
        raise DegeneratePathError(float(ts[i]), float(mod[i]), threshold)


@dataclass(frozen=True)
class WindingReport:
    """Lifted-argument trace of the central charge over [1, t_max].

    The lift is anchored at `anchor` at t = t_max, where Z sits in its
    asymptotic quadrant: anchor = pi for n = 4 (negative real axis) and
    3*pi/2 for n = 3.  theta_alg = lift(1) - anchor, which for n = 4 is
    the lift at t = 1 minus pi.  `trace` rows are (t, Re Z, Im Z,
    lifted argument) in ascending t.
    """

    n: int
    theta_alg: float
    t_star: float | None
    origin_hit: float | None
    t_max: float
    anchor: float
    trace: tuple[tuple[float, float, float, float], ...]

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)[:-1]}
        return {**out, "arg_lift": [[t, a] for t, _, _, a in self.trace]}


def _lift_anchor(n: int) -> float:
    # continuous argument of -(-i t)^n near t = +infinity, folded to (0, 2*pi]
    return (math.pi - 0.5 * n * math.pi) % TWO_PI or TWO_PI


def winding_report(p: IntersectionProfile, samples: int = 129) -> WindingReport:
    """Track the continuous argument of Z(t) from t_max down to t = 1.

    Every stage reads one coefficient set, the (re, im) arrays of
    `path_polynomials`: the closed-form axis roots, the single origin
    check and the trace.  [1, t_max] is split at every real root of Re Z
    and Im Z, so each piece stays inside one quadrant and unwrapping
    atan2 between neighbouring sample points (breakpoints, their
    midpoints, and a uniform grid of `samples` points) is exact.  Raises
    DegeneratePathError, with the offending t, when Z meets the origin at
    an axis root or min |Z| over the interval falls below the
    scale-relative origin threshold: the winding angle is then undefined.
    Raises DomainError when Z(t) overflows a double on [1, t_max].
    """
    if p.n not in (3, 4):
        raise DomainError(f"winding analysis supports n in (3, 4), got {p.n}")
    re_c, im_c = path_polynomials(p)
    t_im = float(_im_root(p.n, p.d))
    roots = _positive_axis_roots(p, t_im, re_c, im_c)
    t_hi = float(_t_max(p, roots))
    # sum |c_k| t^k bounds Re Z, Im Z and every Horner step on [1, t_hi]
    with np.errstate(over="ignore", invalid="ignore"):
        size = npoly.polyval(t_hi, np.abs(re_c)) + npoly.polyval(t_hi, np.abs(im_c))
    if not math.isfinite(size):
        raise DomainError(f"Z(t) overflows a double on [1, t_max = {t_hi:.6g}]")
    _origin(p, re_c, im_c, roots, t_hi)

    breakpoints = [1.0] + [r for r in roots if 1.0 < r < t_hi] + [t_hi]
    mids = [0.5 * (a + b) for a, b in zip(breakpoints, breakpoints[1:])]
    grid = np.linspace(1.0, t_hi, max(int(samples), 2))
    ts = np.unique(np.concatenate([breakpoints, mids, grid]))
    re_v = npoly.polyval(ts, re_c)
    im_v = npoly.polyval(ts, im_c) + 0.0  # normalise -0.0
    # math.atan2, not np.arctan2: numpy's SIMD kernels differ from libm in
    # the last bit on some CPUs, which would make the bytes CPU-dependent
    raw = np.fromiter(map(math.atan2, im_v.tolist(), re_v.tolist()), float, len(ts))

    # neighbours share a quadrant piece, so each step is below pi/2 and its
    # whole turns are the rounded raw difference; the lift at t sums the
    # turns from the anchor at t_max down to t
    anchor = _lift_anchor(p.n)
    turns = np.rint((np.append(raw[1:], anchor) - raw) / TWO_PI)
    lift = raw + TWO_PI * np.cumsum(turns[::-1])[::-1]
    return WindingReport(
        n=p.n,
        theta_alg=float(lift[0] - anchor),
        t_star=t_im if t_im > 1.0 else None,
        origin_hit=None,
        t_max=t_hi,
        anchor=anchor,
        trace=tuple(map(tuple, np.column_stack([ts, re_v, im_v, lift]).tolist())),
    )


def analytic_angle_from_integrals(p: IntersectionProfile) -> float:
    """Lifted angle in (0, 2*pi] read off the integrals alone.

    Forms S_k = C(n,k) d_k / d_0 and returns the argument of the complex
    number sum_k i^k S_k -- for n = 4 the pair (1 - S_2 + S_4, S_1 - S_3)
    -- lifted into (0, 2*pi].  Agrees with the Lagrangian phase of any
    pointwise model integrating to the same profile, and with
    arg(-Z(1)) mod 2*pi when n = 4.
    """
    if p.n not in (3, 4):
        raise DomainError(f"analytic angle supports n in (3, 4), got {p.n}")
    n = p.n
    re, im = phase_component_rows(np.array([[math.comb(n, k) * p.d[k] for k in range(n + 1)]]))
    w = complex(re[0], im[0]) / p.d[0]
    if abs(w) <= DEGENERACY_REL * max(abs(x) for x in p.d) / p.d[0]:
        raise UndefinedAngleError(
            f"|Z(1)| = {abs(w) / math.factorial(n):.3e} is numerically zero; "
            "no angle is defined"
        )
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


def intersection_number(lam, mu, j: int, k: int) -> float:
    """Diagonal-model intersection number omega^(n-j-k) . alpha^j . beta^k.

    Normalised so that mu = lam collapses to d_{j+k} of the constant
    model: j! k! (n-j-k)! / n! times the brute-force mixed sum.
    """
    lt = as_eigen(lam)
    n = lt.n
    w = (
        math.factorial(j)
        * math.factorial(k)
        * math.factorial(n - j - k)
        / math.factorial(n)
    )
    return w * mixed_sigma(lt, mu, j, k)


def general_kt(lam, mu, m: int) -> InequalityReport:
    """Two-class Khovanskii-Teissier inequality on the diagonal model.

    For lam in the Gamma_m cone (sigma_1..sigma_m > 0) and any real mu:
    I(m-1,1)^2 >= I(m-2,2) * I(m,0), where I(j,k) pairs j copies of the
    cone class and k copies of mu against omega^(n-j-k).  Equality holds
    exactly when mu is proportional to lam.
    """
    lt, mt = as_eigen(lam), as_eigen(mu)
    n = lt.n
    if not 2 <= m <= n:
        raise DomainError(f"order m={m} outside 2..{n}")
    cone = gamma_cone(lt)
    if cone < m:
        raise DomainError(
            f"Gamma-cone order {cone} < m={m}; the inequality needs "
            "sigma_1..sigma_m > 0"
        )
    lhs = intersection_number(lt, mt, m - 1, 1) ** 2
    rhs = intersection_number(lt, mt, m - 2, 2) * intersection_number(lt, mt, m, 0)
    return InequalityReport(f"general_kt_m{m}", (compare(f"kt_m{m}", lhs, rhs, ">="),))


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
