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

The angle rows are built column by column in one (4, m) buffer, and the
sampler returns its transpose: an F-ordered (m, 4) array whose columns are
contiguous.  The rejection loop writes its first pass, which covers every
row, into the buffer in place; only the rows that pass rejects are gathered
and scattered after that.  The corner draw writes its columns straight into
the buffer.  A batch that is all in one regime (all rejection, or all
corner, as every theta in (pi, 2*pi) is) fills the buffer with no index
scatter.

The eigenvalues are lambda_i = tan(u_i), with no correction: u_4 is exact
to a few ulp of 2*pi, and tan, arctan and the four-term sum each add about
one ulp, so sum(arctan lambda_i) misses theta by about 1e-14 < PHASE_TOL.
np.tan runs once over the whole buffer, and each row is then sorted in
place by eigen.sort_rows, a compare-exchange network on contiguous
columns; the corner draw orders each pair of simplex spacings with one
np.minimum and np.maximum.
"""

from __future__ import annotations

import math

import numpy as np

from .eigen import sort_rows
from .errors import DomainError, SamplingExhaustedError

#: half-width clip on each angle: u_i in (-pi/2 + ANGLE_EPS, pi/2 - ANGLE_EPS)
ANGLE_EPS = 1e-3

#: |recomputed phase - theta| bound that sampled rows meet by construction
PHASE_TOL = 1e-12

_N = 4


def _half_width() -> float:
    return 0.5 * math.pi - ANGLE_EPS


def _corner_batch(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact draw for thetas >= pi - 2*eps (acceptance region is a simplex).

    With v_i = a - u_i (i = 1..3) the accepted region is
    {v_i > 0, v_1+v_2+v_3 < R}, R = 4a - theta: sample the radius from its
    volume law R*U^(1/3) and the direction from uniform simplex spacings.
    Returns the transpose of a (4, m) buffer, an F-ordered (m, 4) array.
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
    g = rng.random((m, 2)).T
    lo, hi = np.minimum(*g), np.maximum(*g)
    del g  # the loop below holds only lo and hi, as much memory as the draws
    u = np.empty((_N, m))
    for i, v in enumerate((lo, hi - lo, 1.0 - hi)):
        u[i] = a - v * radius
    np.subtract(thetas, u[0] + u[1] + u[2], out=u[3])
    # roundoff can put u4 on +/-a at the open simplex's boundary: redraw those
    edge = np.flatnonzero(np.abs(u[3]) >= a)
    if edge.size:
        u[:, edge] = _corner_batch(thetas[edge], rng).T
    return u.T


def _rejection_batch(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorised rejection for the easy range |theta| < pi - 2*eps; each
    pass draws one triple for every row still pending.  The first pass
    covers every row and writes its draws into the (4, m) buffer in place;
    later passes gather and scatter only the rows still pending.  Returns
    the buffer's transpose, an F-ordered (m, 4) array.

    A pass keeps each pending row with probability at least 1/6, so the
    loop ends: u_1 + u_2 + u_3 must land in (theta - a, theta + a), and
    as its density is symmetric and unimodal, that window holds the least
    mass at |theta| = 2a, where it is (a, 3a) or (-3a, -a), of mass 1/6."""
    a = _half_width()
    m = thetas.shape[0]
    out = np.empty((_N, m))
    out[:3] = rng.uniform(-a, a, size=(m, 3)).T
    np.subtract(thetas, out[0] + out[1] + out[2], out=out[3])
    pending = np.flatnonzero(np.abs(out[3]) >= a)
    while pending.size:
        u = rng.uniform(-a, a, size=(pending.size, 3))
        u1, u2, u3 = u.T
        u4 = thetas[pending] - (u1 + u2 + u3)
        ok = np.abs(u4) < a
        hit = np.flatnonzero(ok)
        rows = pending[hit]
        # one integer gather and scatter per column: cheaper than a (3, k) block
        for i, col in enumerate((u1, u2, u3, u4)):
            out[i, rows] = col[hit]
        pending = pending[~ok]
    return out.T


def _level_set_angles(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Angle rows u (shape (m, 4), F-ordered) with sum(u_i) = theta_i, each
    |u_i| < pi/2 - eps."""
    a = _half_width()
    hi = thetas >= 2.0 * a
    lo = thetas <= -2.0 * a
    mid = ~(hi | lo)
    if mid.all():
        return _rejection_batch(thetas, rng)
    if hi.all():
        return _corner_batch(thetas, rng)
    u = np.empty((_N, thetas.shape[0]))
    hi, lo, mid = np.flatnonzero(hi), np.flatnonzero(lo), np.flatnonzero(mid)
    if hi.size:
        u[:, hi] = _corner_batch(thetas[hi], rng).T
    if lo.size:
        u[:, lo] = -_corner_batch(-thetas[lo], rng).T
    if mid.size:
        u[:, mid] = _rejection_batch(thetas[mid], rng).T
    return u.T


def sample_level_set_batch(thetas, seed=None) -> np.ndarray:
    """Sorted eigenvalue rows (shape (m, 4), F-ordered) on the level sets theta_i.

    `seed` is anything np.random.default_rng accepts; a Generator is drawn
    from as it stands, so a caller can pass its own stream.  Each row
    satisfies |sum(arctan(row)) - theta_i| < PHASE_TOL by construction:
    the rows are the tangents of the angle rows, sorted.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if not np.all(np.abs(thetas) < 2.0 * math.pi):  # NaN fails it too
        raise DomainError("theta must lie in (-2*pi, 2*pi) for 4 eigenvalues")
    lam = _level_set_angles(thetas, np.random.default_rng(seed))
    np.tan(lam, out=lam)
    return sort_rows(lam)

