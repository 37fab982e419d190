"""Deterministic sampling of the constraint surface sum(arctan lambda_i) = theta.

Angles u_i = arctan(lambda_i) are uniform on the level set within the
clipped box (-a, a)^4, a = pi/2 - eps: u_1..u_3 are drawn and the fourth
solved, u_4 = theta - (u_1 + u_2 + u_3).  Uniform-in-angle covers the level
set evenly and avoids tangent blow-up.  With v_i = a - u_i and t = |theta|
(rows of theta < 0 are mirrored, which negation does exactly), every row
lies in the corner simplex {v > 0, sum(v) < 4a - t}.  For t >= 2a that is
the whole region, drawn directly by _corner_batch; below, _rejection_batch
proposes from it and keeps at least half of its rows (the cube kept 1/6
near t = 2a), with only +, -, *, min, max and compares, which round alike
on every CPU.  All draws come from one seeded generator.

The angle rows are built column by column in one (4, m) buffer, and the
sampler returns its transpose: an F-ordered (m, 4) array whose columns are
contiguous.  The rejection loop runs every pass ROW_BLOCK rows at a time,
so its temporaries stay block-sized.  Its first pass writes each block's
draws into the buffer in place; the rows it rejects go into one index
array, which each later pass walks block by block, scattering the rows it
keeps.  A row's three uniforms are adjacent in the stream, so the blocks
draw the rows that one draw per pass would.  The corner draw writes its
columns straight into the buffer, unblocked: its two draws are separate
segments of the stream (all radii, then all spacings).  A batch that is
all in one regime fills the buffer with no index scatter.

The eigenvalues are lambda_i = tan(u_i), with no correction: u_4 is exact
to a few ulp of 2*pi, and tan, arctan and the four-term sum each add about
one ulp, so sum(arctan lambda_i) misses theta by about 1e-14 < PHASE_TOL.
np.tan runs once over the buffer, and eigen.sort_rows sorts its rows in place.
"""

from __future__ import annotations

import math

import numpy as np

from .eigen import row_blocks, sort_rows
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


def _band_draw(thetas: np.ndarray, rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """One simplex proposal per row (|theta| < 2a) into the (4, k) block u,
    and the mask of the rows kept: v = (4a - t)*(s_1, s_2 - s_1, s_3 - s_2)
    from sorted uniforms s_1 <= s_2 <= s_3, u_i = a - v_i, kept where
    max(v) < 2a (each u_i > -a) and the computed u_4 has |u_4| < a."""
    a = _half_width()
    t = np.abs(thetas)
    s = rng.random((t.size, 3)).T  # a row's three draws are adjacent in the stream
    lo, hi = np.minimum(s[0], s[1]), np.maximum(s[0], s[1])
    mid, top = np.minimum(hi, s[2]), np.maximum(hi, s[2], out=hi)
    np.minimum(lo, mid, out=u[0])
    np.subtract(np.maximum(lo, mid, out=mid), u[0], out=u[1])
    np.subtract(top, mid, out=u[2])
    u[:3] *= 4.0 * a - t  # v
    ok = np.maximum(np.maximum(u[0], u[1], out=lo), u[2], out=lo) < 2.0 * a
    np.subtract(a, u[:3], out=u[:3])
    np.subtract(t, (u[0] + u[1]) + u[2], out=u[3])
    ok &= np.abs(u[3]) < a
    u *= np.copysign(1.0, thetas)  # negation is exact: the mirrored rows sum to theta
    return ok


def _rejection_batch(thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rejection from the corner simplex (_band_draw) for |theta| < 2a: each
    pass draws one proposal for every pending row, ROW_BLOCK rows at a time,
    the first in place and the later ones scattering their kept rows.
    Returns the (4, m) buffer's transpose.

    The draw is exact: the target {v in (0, 2a)^3 : 2a - t < sum(v) < 4a - t}
    lies in the proposal simplex, so a kept row is uniform on it.  Its share
    of the simplex, 1 - 4*((2a - t)/(4a - t))^3, is 1/2 at theta = 0 and
    rises to 1 as t -> 2a, so a pass keeps a pending row with probability at
    least 1/2.  |u_4| < a is sum(v) > 2a - t exactly, and guards rounding."""
    m = thetas.shape[0]
    out = np.empty((_N, m))
    # 1-D row views: a scatter into each is cheaper than into out[i, rows]
    cols = tuple(out)
    pending = [np.empty(0, np.intp)]  # an empty batch has no block
    for blk in row_blocks(m):
        ok = _band_draw(thetas[blk], rng, out[:, blk])
        pending.append(np.flatnonzero(~ok) + blk.start)
    pending = np.concatenate(pending)
    while pending.size:
        missed = []
        for blk in row_blocks(pending.size):
            rows = pending[blk]
            u = np.empty((_N, rows.size))
            ok = _band_draw(thetas.take(rows), rng, u)
            hit = np.flatnonzero(ok)
            kept = rows.take(hit)
            for col, draw in zip(cols, u):
                col[kept] = draw.take(hit)
            missed.append(rows.compress(~ok))  # rows[~ok] costs 3x on a random mask
        pending = np.concatenate(missed)
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

