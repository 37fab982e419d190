import math

import numpy as np
import pytest

from dhym import (
    Branch,
    branch_check,
    complete_tuple,
    lagrangian_phase,
    level_set_sample,
    sample_level_set_batch,
)
from dhym.eigen import ROW_BLOCK
from dhym.errors import DomainError, SamplingExhaustedError
from dhym.sampling import PHASE_TOL, _corner_batch, _half_width

TWO_PI = 2 * math.pi


def test_complete_tuple_solves_fourth_entry():
    t = complete_tuple(math.pi, (1.0, 1.0, 1.0))
    assert t.values[3] == pytest.approx(1.0, abs=1e-12)
    assert lagrangian_phase(t) == pytest.approx(math.pi, abs=1e-12)


def test_complete_tuple_rejects_unreachable_residual():
    # residual angle of 2.0 rad exceeds pi/2: no finite fourth eigenvalue
    with pytest.raises(DomainError):
        complete_tuple(2.0, (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        complete_tuple(1.0, (0.0, 0.0))


def test_level_set_phase_accuracy():
    target = 5.05541292
    tuples = level_set_sample(target, 100, seed=42)
    assert len(tuples) == 100
    for t in tuples:
        assert abs(lagrangian_phase(t) - target) < 1e-12
        assert t.values == tuple(sorted(t.values))


def test_level_set_determinism():
    a = level_set_sample(4.0, 25, seed=3)
    b = level_set_sample(4.0, 25, seed=3)
    c = level_set_sample(4.0, 25, seed=4)
    assert [t.values for t in a] == [t.values for t in b]
    assert [t.values for t in a] != [t.values for t in c]


def test_supercritical_samples_are_positive():
    target = TWO_PI - 0.01
    tuples = level_set_sample(target, 300, seed=11)
    for t in tuples:
        assert t.values[0] > 0.0
        assert branch_check(t, Branch.SUPERCRITICAL).passed


def test_mid_branch_samples():
    tuples = level_set_sample(3.3, 300, seed=12)
    for t in tuples:
        assert branch_check(t, Branch.MID).passed


def test_negative_targets_mirror():
    target = -5.0
    tuples = level_set_sample(target, 100, seed=13)
    for t in tuples:
        assert abs(lagrangian_phase(t) - target) < 1e-12
        assert t.values[-1] < 0.0


def test_easy_band_uses_rejection():
    tuples = level_set_sample(1.0, 200, seed=14)
    for t in tuples:
        assert abs(lagrangian_phase(t) - 1.0) < 1e-12


def test_batch_api_mixed_thetas():
    thetas = np.array([-5.5, -1.0, 0.0, 2.0, 3.2, 5.0, 6.2])
    lam = sample_level_set_batch(thetas, seed=5)
    phases = np.arctan(lam).sum(axis=1)
    assert np.max(np.abs(phases - thetas)) < 1e-12
    assert np.all(np.diff(lam, axis=1) >= 0.0)


def test_preconditions():
    with pytest.raises(DomainError):
        level_set_sample(TWO_PI, 10, seed=0)
    with pytest.raises(DomainError):
        level_set_sample(-TWO_PI, 10, seed=0)
    with pytest.raises(DomainError):
        level_set_sample(1.0, 0, seed=0)


def test_exhaustion_beyond_clipped_box():
    # the clipped angle box tops out at 2*pi - 4*eps; just above is unreachable
    with pytest.raises(SamplingExhaustedError):
        level_set_sample(TWO_PI - 1e-4, 1, seed=0)
    with pytest.raises(SamplingExhaustedError):
        level_set_sample(-(TWO_PI - 1e-4), 1, seed=0)


# -- the blocked sampler against a plain, unblocked copy of it ----------------


def reference_sample_level_set_batch(thetas, seed):
    """The level-set sampler in one pass over all rows: full-length tan,
    sort and polish, rejection with 2-D boolean masks."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    rng = np.random.default_rng(seed)
    a = _half_width()
    u = np.empty((thetas.shape[0], 4))
    hi = thetas >= 2.0 * a
    lo = thetas <= -2.0 * a
    mid = ~(hi | lo)
    if hi.any():
        u[hi] = _corner_batch(thetas[hi], rng)
    if lo.any():
        u[lo] = -_corner_batch(-thetas[lo], rng)
    if mid.any():
        th = thetas[mid]
        out = np.empty((th.shape[0], 4))
        pending = np.arange(th.shape[0])
        while pending.size:
            u123 = rng.uniform(-a, a, size=(pending.size, 3))
            u4 = th[pending] - u123.sum(axis=1)
            ok = np.abs(u4) < a
            hit = pending[ok]
            out[hit, :3] = u123[ok]
            out[hit, 3] = u4[ok]
            pending = pending[~ok]
        u[mid] = out
    lam = np.sort(np.tan(u), axis=1)
    for _ in range(4):
        err = np.arctan(lam).sum(axis=1) - thetas
        bad = np.abs(err) > 0.25 * PHASE_TOL
        if not bad.any():
            break
        rows = np.nonzero(bad)[0]
        cols = np.abs(lam[rows]).argmin(axis=1)
        lam[rows, cols] -= err[rows] * (1.0 + lam[rows, cols] ** 2)
    return np.sort(lam, axis=1)


BLOCK_SIZES = [1, 999, 1000, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7]

#: theta draws for the corner (hi), mirrored corner (lo), rejection (mid)
#: and mixed regimes of the sampler
REGIMES = {
    "hi": (math.pi, TWO_PI - 0.01),
    "lo": (-TWO_PI + 0.01, -math.pi),
    "mid": (-math.pi + 0.01, math.pi - 0.01),
    "mixed": (-TWO_PI + 0.01, TWO_PI - 0.01),
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_blocked_sampler_matches_unblocked_reference(regime, size):
    lo, hi = REGIMES[regime]
    thetas = np.random.default_rng([size, 7]).uniform(lo, hi, size=size)
    seed = 1000 + size
    got = sample_level_set_batch(thetas, seed=seed)
    assert np.array_equal(got, reference_sample_level_set_batch(thetas, seed))
