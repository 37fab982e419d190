"""Pointwise models that integrate to exact intersection profiles.

The constant model is the workhorse: a translation-invariant form on a
torus makes every sigma_k literally constant, so the intersection numbers
collapse to d_k = sigma_k(lambda) / C(n,k) with unit volume (one row of
constant_model_rows).  That ties the pointwise eigenvalue world to the
cohomological one exactly, at desk scale, with no PDE in sight.  The
blow-up of projective 3-space supplies a genuinely non-trivial 3-fold
intersection ring for the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .charge import (
    IntersectionProfile,
    analytic_angle_from_integrals,
    winding_report,
    z_of_t,
)
from .eigen import TWO_PI, Branch, EigenTuple, as_eigen, lagrangian_phase, sigma_rows
from .errors import DomainError

#: tolerance on the weight sum of a weighted model
WEIGHT_SUM_TOL = 1e-12


def constant_model_rows(e: np.ndarray) -> np.ndarray:
    """Profiles d_k = sigma_k / C(n,k) of invariant-form models, one per
    row of sigma rows e (m, n+1); d_0 = sigma_0 = 1."""
    n = e.shape[1] - 1
    return e / np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)


def constant_model(lam) -> IntersectionProfile:
    """constant_model_rows of one tuple."""
    t = as_eigen(lam)
    return IntersectionProfile(t.n, constant_model_rows(sigma_rows([t.values]))[0].tolist())


def weighted_model(points) -> IntersectionProfile:
    """Convex combination of constant models, flagged synthetic.

    `points` is a sequence of (weight, eigenvalues) with positive weights
    summing to 1 and a common dimension; d sums constant_model_rows(w *
    sigma) over the points in order.  No underlying manifold is claimed
    for the result: log-concavity of the averaged d_k is *not* guaranteed,
    and exploring where it fails is the point.
    """
    pts = [(float(w), as_eigen(lam)) for w, lam in points]
    if not pts:
        raise DomainError("weighted model needs at least one point")
    if any(w <= 0.0 for w, _ in pts):
        raise DomainError("weights must be strictly positive")
    total = sum(w for w, _ in pts)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise DomainError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
    n = pts[0][1].n
    if any(t.n != n for _, t in pts):
        raise DomainError("all points must share one dimension")
    w = np.array([[w] for w, _ in pts])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite d_k are rejected below
        d = sum(constant_model_rows(w * sigma_rows([t.values for _, t in pts])), 0.0)
    return IntersectionProfile(n, d.tolist(), synthetic=True)


def blowup_p3(a: float, b: float, c: float, e: float) -> IntersectionProfile:
    """Intersection profile on the blow-up of P^3 at a point.

    Classes are written against the hyperplane pullback H and the
    exceptional divisor E, with ring relations H^3 = 1, E^3 = 1 and
    H.E = 0; the metric class a*H - b*E must satisfy a > b > 0 (ampleness)
    while c*H - e*E is unconstrained.  Mixed H/E terms vanish, leaving

        d_k = c^k a^(3-k) - e^k b^(3-k).

    Raises DomainError when a d_k overflows a double.
    """
    if not (a > b > 0.0):
        raise DomainError(
            f"a*H - b*E with a={a}, b={b} is not a Kaehler class: need a > b > 0"
        )
    try:
        d = (
            a**3 - b**3,
            c * a**2 - e * b**2,
            c**2 * a - e**2 * b,
            c**3 - e**3,
        )
    except OverflowError:  # float ** raises where * would give inf
        raise DomainError(
            f"blow-up profile of a={a}, b={b}, c={c}, e={e} overflows a double"
        ) from None
    return IntersectionProfile(3, d)


@dataclass(frozen=True)
class ConsistencyReport:
    """Pointwise-versus-integrated agreement for one constant model."""

    lam: EigenTuple
    phase: float
    analytic_angle: float
    angle_delta: float
    r_expected: float
    r_actual: float
    r_delta_rel: float
    theta_alg: float | None
    winding_delta: float | None
    passed: bool

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)[1:-1]}
        return {"lambda": list(self.lam.values), **out, "pass": self.passed}


def _mod_angle_delta(x: float, y: float) -> float:
    """|x - y| measured on the circle."""
    d = math.fmod(x - y, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d < -math.pi:
        d += TWO_PI
    return abs(d)


ANGLE_TOL = 1e-9
R_TOL = 1e-10


def consistency_suite(lam) -> ConsistencyReport:
    """Cross-check one constant model along three independent routes.

    Asserts (i) the integrated angle equals the pointwise phase mod 2*pi,
    (ii) |Z(1)| equals prod sqrt(1 + lambda_j^2) / n!, and (iii) the
    winding lift reproduces the phase whenever it lies in the lifted
    window ((pi, 2*pi) on 4-folds, (pi/2, 3*pi/2) on 3-folds).  Returns a
    structured report instead of raising on mismatch.
    """
    t = as_eigen(lam)
    p = constant_model(t)
    phase = lagrangian_phase(t)
    analytic = analytic_angle_from_integrals(p)
    angle_delta = _mod_angle_delta(analytic, phase)

    r_expected = math.prod(math.hypot(1.0, v) for v in t.values) / math.factorial(t.n)
    try:
        r_actual = abs(z_of_t(p, 1.0))
    except OverflowError:  # complex abs raises where float arithmetic gives inf
        r_actual = math.inf
    if not (math.isfinite(r_expected) and math.isfinite(r_actual)):
        raise DomainError(f"|Z(1)| of the constant model of {t.values} overflows a double")
    r_delta_rel = abs(r_actual - r_expected) / max(1.0, r_expected)

    theta_alg = None
    winding_delta = None
    if (Branch.FULL if t.n == 4 else Branch.N3).contains(phase):
        theta_alg = winding_report(p).theta_alg
        winding_delta = abs(theta_alg - phase)

    passed = (
        angle_delta <= ANGLE_TOL
        and r_delta_rel <= R_TOL
        and (winding_delta is None or winding_delta <= ANGLE_TOL)
    )
    return ConsistencyReport(
        lam=t,
        phase=phase,
        analytic_angle=analytic,
        angle_delta=angle_delta,
        r_expected=r_expected,
        r_actual=r_actual,
        r_delta_rel=r_delta_rel,
        theta_alg=theta_alg,
        winding_delta=winding_delta,
        passed=passed,
    )
