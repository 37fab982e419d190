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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .eigen import TWO_PI, as_eigen, gamma_cone, mixed_sigma
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
            n, d = int(obj["n"]), tuple(float(x) for x in obj["d"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed profile object: {exc}") from exc
        return cls(n, d, bool(obj.get("synthetic", False)))


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


def _sqrt_roots(ratio: float) -> list[float]:
    return [math.sqrt(ratio)] if ratio > 0.0 else []


def _positive_axis_roots(p: IntersectionProfile):
    """Closed-form positive real roots of Re Z and Im Z (t = 0 excluded).

    n = 4: Im is an odd cubic with root sqrt(d3/d1); Re is a biquadratic
    solved by the stable quadratic formula in s = t^2.  n = 3 is the
    mirror image (Re even quadratic, Im odd cubic).
    """
    d = p.d
    if p.n == 4:
        im_roots = _sqrt_roots(d[3] / d[1]) if d[1] != 0.0 else []
        re_roots = []
        a, b, c = d[0], -6.0 * d[2], d[4]
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            sq = math.sqrt(disc)
            q = -0.5 * (b + math.copysign(sq, b if b != 0.0 else 1.0))
            s_candidates = [q / a] + ([c / q] if q != 0.0 else [0.0])
            for s in s_candidates:
                re_roots.extend(_sqrt_roots(s))
    elif p.n == 3:
        re_roots = _sqrt_roots(d[3] / (3.0 * d[1])) if d[1] != 0.0 else []
        im_roots = _sqrt_roots(3.0 * d[2] / d[0])
    else:
        raise DomainError(f"path analysis supports n in (3, 4), got {p.n}")
    re_c, im_c = path_polynomials(p)
    re_roots = [_newton_polish(re_c, r) for r in re_roots]
    im_roots = [_newton_polish(im_c, r) for r in im_roots]
    return sorted(set(re_roots)), sorted(set(im_roots))


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
    t = 2.0 * (1.0 + term)
    for r in roots:
        t = max(t, 2.0 * r + 1.0)
    return t


def _eval_noise(coeffs: np.ndarray, t: float) -> float:
    """Rounding-error bound for evaluating the polynomial at t: a computed
    value below this is indistinguishable from zero."""
    return 32.0 * np.finfo(float).eps * float(npoly.polyval(t, np.abs(coeffs)))


def _structural_origin(p: IntersectionProfile, t_hi: float, roots, threshold: float):
    """Exact origin crossings: both components vanish at an axis root.

    A through-origin pass always sits at a real root of Re Z or Im Z, so
    only those points need checking; the other component counts as zero
    when it is below the origin threshold *or* below its own evaluation
    noise (large t amplifies the polynomial so |Z| can read as O(1) at a
    point within one ulp of a true zero).
    """
    re_c, im_c = path_polynomials(p)
    for r in roots:
        if not 1.0 <= r <= t_hi:
            continue
        re_v = abs(float(npoly.polyval(r, re_c)))
        im_v = abs(float(npoly.polyval(r, im_c)))
        re_tol = max(threshold, _eval_noise(re_c, r))
        im_tol = max(threshold, _eval_noise(im_c, r))
        if re_v <= re_tol and im_v <= im_tol:
            return r, max(re_v, im_v), max(re_tol, im_tol)
    return None


def _origin_scan(p: IntersectionProfile, t_hi: float, breakpoints):
    """Minimum of |Z| on [1, t_hi]: checked at axis roots, endpoints and the
    real critical points of |Z|^2."""
    re_c, im_c = path_polynomials(p)
    mod2 = npoly.polyadd(npoly.polymul(re_c, re_c), npoly.polymul(im_c, im_c))
    dmod2 = npoly.polyder(mod2)
    candidates = set(breakpoints) | {1.0, t_hi}
    if np.any(dmod2 != 0.0):
        for r in npoly.polyroots(dmod2):
            if abs(r.imag) < 1e-9 * (1.0 + abs(r)) and 1.0 <= r.real <= t_hi:
                x = float(r.real)
                for _ in range(2):
                    x = _newton_polish(dmod2, x)
                candidates.add(min(max(x, 1.0), t_hi))
    best_t, best = 1.0, math.inf
    for t in sorted(candidates):
        v = abs(z_of_t(p, float(t)))
        if v < best:
            best_t, best = float(t), v
    return best_t, best


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

    @property
    def arg_lift(self):
        return tuple((row[0], row[3]) for row in self.trace)

    def to_dict(self):
        return {
            "n": self.n,
            "theta_alg": self.theta_alg,
            "t_star": self.t_star,
            "origin_hit": self.origin_hit,
            "t_max": self.t_max,
            "anchor": self.anchor,
            "arg_lift": [[t, a] for t, _, _, a in self.trace],
        }


def _lift_anchor(n: int) -> float:
    # continuous argument of -(-i t)^n near t = +infinity, folded to (0, 2*pi]
    return (math.pi - 0.5 * n * math.pi) % TWO_PI or TWO_PI


def _first_crossing(n: int, d) -> np.ndarray:
    """First Im-zero t > 1 in closed form (the candidate real-axis crossing)
    of one profile d or of each row of d (m, n+1); NaN where there is none."""
    d = np.asarray(d, dtype=float)
    if n == 4:
        num, den = d[..., 3], d[..., 1]
        ok = (den > 0.0) & (num > 0.0)
    else:
        num, den = 3.0 * d[..., 2], d[..., 0]
        ok = num > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sqrt(num / den)
    return np.where(ok & (t > 1.0), t, np.nan)


def winding_report(p: IntersectionProfile, samples: int = 129) -> WindingReport:
    """Track the continuous argument of Z(t) from t_max down to t = 1.

    [1, t_max] is split at every real root of Re Z and Im Z, so each piece
    stays inside one quadrant and unwrapping atan2 between neighbouring
    sample points (breakpoints, their midpoints, and a uniform grid of
    `samples` points) is exact.  Raises DegeneratePathError, with the
    offending t, when min |Z| over the interval falls below the
    scale-relative origin threshold: the winding angle is then undefined.
    """
    if p.n not in (3, 4):
        raise DomainError(f"winding analysis supports n in (3, 4), got {p.n}")
    re_roots, im_roots = _positive_axis_roots(p)
    all_roots = sorted(set(re_roots) | set(im_roots))
    t_hi = _t_max(p, all_roots)
    inner = [r for r in all_roots if 1.0 < r < t_hi]

    threshold = DEGENERACY_REL * max(abs(x) for x in p.d) / math.factorial(p.n)
    hit = _structural_origin(p, t_hi, all_roots, threshold)
    if hit is not None:
        raise DegeneratePathError(*hit)
    t_origin, z_min = _origin_scan(p, t_hi, inner)
    if z_min < threshold:
        raise DegeneratePathError(t_origin, z_min, threshold)

    breakpoints = [1.0] + inner + [t_hi]
    mids = [0.5 * (a + b) for a, b in zip(breakpoints, breakpoints[1:])]
    grid = np.linspace(1.0, t_hi, max(int(samples), 2))
    ts = np.unique(np.concatenate([breakpoints, mids, grid]))

    re_c, im_c = path_polynomials(p)
    re_v = npoly.polyval(ts, re_c)
    im_v = npoly.polyval(ts, im_c) + 0.0  # normalise -0.0
    raw = np.arctan2(im_v, re_v)

    anchor = _lift_anchor(p.n)
    lift = np.empty_like(raw)
    prev = anchor
    for i in range(len(ts) - 1, -1, -1):  # from t_max down to 1
        lift[i] = raw[i] + TWO_PI * round((prev - raw[i]) / TWO_PI)
        prev = lift[i]

    trace = tuple(
        (float(t), float(r), float(v), float(a))
        for t, r, v, a in zip(ts, re_v, im_v, lift)
    )
    t_star = float(_first_crossing(p.n, p.d))
    return WindingReport(
        n=p.n,
        theta_alg=float(lift[0] - anchor),
        t_star=None if math.isnan(t_star) else t_star,
        origin_hit=None,
        t_max=t_hi,
        anchor=anchor,
        trace=trace,
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
    w = sum(math.comb(n, k) * p.d[k] * (1j**k) for k in range(n + 1)) / p.d[0]
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
    dn = p.normalized().d
    s1, s2, s3, s4 = (math.comb(4, k) * dn[k] for k in (1, 2, 3, 4))
    quad = dn[3] ** 2 + dn[1] ** 2 * dn[4] - 6.0 * dn[1] * dn[2] * dn[3]
    entries = (
        compare("chainA", s1 * s2 / 6.0, s3, ">="),
        compare("chainB", s1 * s2, s1 + s3),
        compare("final", s1 * s2 * s3, s3**2 + s1**2 * s4),
        compare("final_scaling", s3**2 - s1 * s2 * s3 + s1**2 * s4, 16.0 * quad, "=="),
    )
    return InequalityReport("integrated_sigma_chain", entries)
