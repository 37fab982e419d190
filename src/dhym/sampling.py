"""Deterministic sampling of the constraint surface sum(arctan lambda_i) = theta.

Angles u_i = arctan(lambda_i) are drawn uniformly from the clipped box
(-pi/2 + eps, pi/2 - eps)^3, the fourth angle is solved as
u_4 = theta - (u_1 + u_2 + u_3) and rejected unless it falls in the same
box.  Uniform-in-angle covers the level set evenly and avoids tangent
blow-up.

Plain rejection against the box has acceptance probability ~(2*pi-theta)^3
near theta -> 2*pi (every angle is forced into a sliver below pi/2), which
is unusable.  For theta >= pi - 2*eps the acceptance region is exactly a
corner simplex of the box, so the same conditional distribution is sampled
directly there in O(1) per draw; the rejection loop is kept for the easy
middle range.  All draws come from one seeded generator, so runs are
reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .eigen import EigenTuple, lagrangian_phase, row_blocks
from .errors import DomainError, SamplingExhaustedError

#: half-width clip on each angle: u_i in (-pi/2 + ANGLE_EPS, pi/2 - ANGLE_EPS)
ANGLE_EPS = 1e-3

#: rejection attempts allowed per requested sample before giving up
MAX_ATTEMPTS_PER_SAMPLE = 10**6

#: |recomputed phase - theta| guaranteed after Newton polish
PHASE_TOL = 1e-12

_N = 4


def _half_width() -> float:
    return 0.5 * math.pi - ANGLE_EPS


def _polish(lam: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Newton-correct one entry per row until the phase matches theta.

    The entry with the smallest magnitude takes the correction (largest
    phase derivative, smallest perturbation).  One step already lands at
    rounding level; iterate defensively (at most four corrections).  Rows
    of lam come in sorted, and only the rows that took a correction are
    sorted again; lam is corrected in place and returned.
    """
    err = np.arctan(lam).sum(axis=1) - thetas
    corrected = rows = np.flatnonzero(np.abs(err) > 0.25 * PHASE_TOL)
    err = err[rows]
    for _ in range(4):
        if not rows.size:
            break
        cols = np.abs(lam[rows]).argmin(axis=1)
        lam[rows, cols] -= err * (1.0 + lam[rows, cols] ** 2)
        err = np.arctan(lam[rows]).sum(axis=1) - thetas[rows]
        bad = np.abs(err) > 0.25 * PHASE_TOL
        rows, err = rows[bad], err[bad]
    lam[corrected] = np.sort(lam[corrected], axis=1)
    return lam


def _corner_batch(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact draw for thetas >= pi - 2*eps (acceptance region is a simplex).

    With v_i = a - u_i (i = 1..3) the accepted region is
    {v_i > 0, v_1+v_2+v_3 < R}, R = 4a - theta: sample the radius from its
    volume law R*U^(1/3) and the direction from uniform simplex spacings.
    """
    a = _half_width()
    r_free = 4.0 * a - thetas
    if np.any(r_free <= 0.0):
        worst = float(thetas.max())
        raise SamplingExhaustedError(
            f"theta = {worst:.12g} exceeds the reachable maximum "
            f"{4.0 * a:.12g} of the clipped angle box"
        )
    m = thetas.shape[0]
    radius = r_free * rng.random(m) ** (1.0 / 3.0)
    g = np.sort(rng.random((m, 2)), axis=1)
    v = np.column_stack((g[:, 0], g[:, 1] - g[:, 0], 1.0 - g[:, 1])) * radius[:, None]
    u = a - v
    u4 = thetas - u.sum(axis=1)
    # the simplex is open; roundoff cannot push u4 past +/-a except at the
    # boundary of measure zero, but clamp-check anyway
    if np.any(np.abs(u4) >= a):
        keep = np.abs(u4) < a
        redo = _corner_batch(thetas[~keep], rng)
        out = np.empty((m, _N))
        out[keep] = np.column_stack((u[keep], u4[keep]))
        out[~keep] = redo
        return out
    return np.column_stack((u, u4))


def _rejection_batch(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorised rejection for the easy range |theta| < pi - 2*eps; each
    pass draws one triple for every row still pending."""
    a = _half_width()
    m = thetas.shape[0]
    out = np.empty((m, _N))
    pending = np.arange(m)
    theta = thetas
    attempts = 0
    budget = MAX_ATTEMPTS_PER_SAMPLE * m
    while pending.size:
        block = pending.size
        u = rng.uniform(-a, a, size=(block, 3))
        # u.sum(axis=1) adds left to right too, at a reduction's extra cost
        u4 = theta - (u[:, 0] + u[:, 1] + u[:, 2])
        ok = np.abs(u4) < a
        hit, miss = np.flatnonzero(ok), np.flatnonzero(~ok)
        rows = pending[hit]
        out[rows, :3] = u[hit]
        out[rows, 3] = u4[hit]
        pending, theta = pending[miss], theta[miss]
        attempts += block
        if pending.size and attempts > budget:
            raise SamplingExhaustedError(
                f"rejection sampling exhausted {attempts} attempts for "
                f"{m} samples at theta = {float(thetas[0]):.12g}"
            )
    return out


def sample_level_set_angles(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Angle rows u (shape (m, 4)) with sum(u_i) = theta_i, each |u_i| < pi/2 - eps."""
    thetas = np.asarray(thetas, dtype=float)
    a = _half_width()
    hi = thetas >= 2.0 * a
    lo = thetas <= -2.0 * a
    mid = ~(hi | lo)
    if mid.all():
        return _rejection_batch(thetas, rng)
    u = np.empty((thetas.shape[0], _N))
    hi, lo, mid = np.flatnonzero(hi), np.flatnonzero(lo), np.flatnonzero(mid)
    if hi.size:
        u[hi] = _corner_batch(thetas[hi], rng)
    if lo.size:
        u[lo] = -_corner_batch(-thetas[lo], rng)
    if mid.size:
        u[mid] = _rejection_batch(thetas[mid], rng)
    return u


def sample_level_set_batch(thetas, seed=None, rng=None) -> np.ndarray:
    """Sorted eigenvalue rows (shape (m, 4)) on the level sets theta_i.

    Each row satisfies |sum(arctan(row)) - theta_i| < 1e-12.  The angles
    are drawn for all rows first; tan, sort and polish then run ROW_BLOCK
    rows at a time.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(np.abs(thetas) >= 2.0 * math.pi):
        raise DomainError("theta must lie in (-2*pi, 2*pi) for 4 eigenvalues")
    if rng is None:
        rng = np.random.default_rng(seed)
    lam = sample_level_set_angles(thetas, rng)
    for blk in row_blocks(lam.shape[0]):
        u = lam[blk]
        np.tan(u, out=u)
        u.sort(axis=1)
        _polish(u, thetas[blk])
    return lam


def level_set_sample(theta_hat: float, count: int, seed: int) -> list[EigenTuple]:
    """Draw `count` sorted tuples with lagrangian_phase == theta_hat.

    Deterministic in `seed`; every returned tuple reproduces the phase to
    better than 1e-12.  Raises SamplingExhaustedError when the clipped
    angle box cannot reach theta_hat within the attempt budget.
    """
    theta_hat = float(theta_hat)
    if not -2.0 * math.pi < theta_hat < 2.0 * math.pi:
        raise DomainError(f"theta_hat = {theta_hat:.12g} outside (-2*pi, 2*pi)")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    lam = sample_level_set_batch(np.full(count, theta_hat), seed=seed)
    return [EigenTuple(tuple(row)) for row in lam]


def complete_tuple(theta_hat: float, first_three) -> EigenTuple:
    """Solve the fourth eigenvalue so the phase of the tuple is theta_hat.

    lambda_4 = tan(theta_hat - sum(arctan(first_three))); the residual
    angle must lie strictly inside (-pi/2, pi/2) or there is no finite
    solution.
    """
    first = tuple(float(v) for v in first_three)
    if len(first) != 3:
        raise DomainError(f"need exactly 3 fixed eigenvalues, got {len(first)}")
    residual = theta_hat - sum(math.atan(v) for v in first)
    if not -0.5 * math.pi < residual < 0.5 * math.pi:
        raise DomainError(
            f"residual angle {residual:.12g} leaves no finite fourth "
            "eigenvalue; adjust the fixed entries"
        )
    lam = np.sort(np.array([*first, math.tan(residual)]))[None, :]
    out = _polish(lam, np.array([theta_hat]))[0]
    tup = EigenTuple(tuple(out))
    assert abs(lagrangian_phase(tup) - theta_hat) < PHASE_TOL
    return tup
