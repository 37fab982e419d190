import inspect
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from dhym import (
    Branch,
    branch_check,
    lagrangian_phase,
    sample_level_set_batch,
    sampling,
)
from dhym.eigen import ROW_BLOCK, phase_rows
from dhym.errors import DomainError, SamplingExhaustedError
from dhym.sampling import PHASE_TOL, _corner_batch, _half_width, _rejection_batch

from conftest import DrawLog

TWO_PI = 2 * math.pi


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_level_set_phase_accuracy():
    target = 5.05541292
    lam = sample_level_set_batch(np.full(100, target), seed=42)
    assert lam.shape == (100, 4)
    assert np.all(np.diff(lam, axis=1) >= 0.0)
    for row in lam:
        assert abs(lagrangian_phase(row) - target) < 1e-12


def test_level_set_determinism():
    a = sample_level_set_batch(np.full(25, 4.0), seed=3)
    b = sample_level_set_batch(np.full(25, 4.0), seed=3)
    c = sample_level_set_batch(np.full(25, 4.0), seed=4)
    assert np.array_equal(_bits(a), _bits(b))
    assert not np.array_equal(a, c)


def test_supercritical_samples_are_positive():
    lam = sample_level_set_batch(np.full(300, TWO_PI - 0.01), seed=11)
    assert np.all(lam[:, 0] > 0.0)
    for row in lam:
        assert branch_check(row, Branch.SUPERCRITICAL).passed


def test_mid_branch_samples():
    for row in sample_level_set_batch(np.full(300, 3.3), seed=12):
        assert branch_check(row, Branch.MID).passed


def test_negative_targets_mirror():
    target = -5.0
    lam = sample_level_set_batch(np.full(100, target), seed=13)
    assert np.all(lam[:, -1] < 0.0)
    for row in lam:
        assert abs(lagrangian_phase(row) - target) < 1e-12


def test_easy_band_uses_rejection():
    for row in sample_level_set_batch(np.full(200, 1.0), seed=14):
        assert abs(lagrangian_phase(row) - 1.0) < 1e-12


def test_batch_api_mixed_thetas():
    thetas = np.array([-5.5, -1.0, 0.0, 2.0, 3.2, 5.0, 6.2])
    lam = sample_level_set_batch(thetas, seed=5)
    phases = np.arctan(lam).sum(axis=1)
    assert np.max(np.abs(phases - thetas)) < 1e-12
    assert np.all(np.diff(lam, axis=1) >= 0.0)


def test_preconditions():
    for theta in (TWO_PI, -TWO_PI, math.nan):
        with pytest.raises(DomainError):
            sample_level_set_batch(np.full(10, theta), seed=0)


@pytest.mark.parametrize("thetas", [[math.nan], [1.0, math.nan, 4.0, -2.0]], ids=["nan", "mixed"])
def test_nan_theta_rejected_at_once(thetas):
    # NaN fails every comparison, so it must not reach the rejection loop
    start = time.perf_counter()
    with pytest.raises(DomainError):
        sample_level_set_batch(thetas, seed=1)
    assert time.perf_counter() - start < 1.0


def take_pass(sizes, rows):
    """Pop the logged draw sizes of one rejection pass over `rows` rows:
    ROW_BLOCK-row calls and a last one of at most ROW_BLOCK rows, summing
    to `rows`."""
    pass_sizes = []
    while sum(pass_sizes) < rows:
        pass_sizes.append(sizes.pop(0))
    assert sum(pass_sizes) == rows
    assert all(k == ROW_BLOCK for k in pass_sizes[:-1]) and 0 < pass_sizes[-1] <= ROW_BLOCK
    return pass_sizes


def reference_band_draw(thetas, r):
    """The band's simplex proposals in one unblocked pass: angle rows
    (k, 4) from uniform rows r (k, 3), sorted by np.sort, and the mask of
    the rows kept."""
    a = _half_width()
    t = np.abs(thetas)
    v = (4.0 * a - t)[:, None] * np.diff(np.sort(r, axis=1), axis=1, prepend=0.0)
    u = np.empty((len(t), 4))
    u[:, :3] = a - v
    u[:, 3] = t - ((u[:, 0] + u[:, 1]) + u[:, 2])
    ok = (v.max(axis=1) < 2.0 * a) & (np.abs(u[:, 3]) < a)
    return u * np.copysign(1.0, thetas)[:, None], ok


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rejection_first_pass_keeps_half_its_rows(sign):
    # a pass keeps a pending row with probability 1 - 4*((2a - t)/(4a - t))^3,
    # least, 1/2, at theta = +-0.0 and near 1 at the corner switch |theta| -> 2a,
    # where the cube proposal kept 1/6
    a = _half_width()
    for theta, floor in ((sign * 0.0, 49_000), (sign * np.nextafter(2.0 * a, 0.0), 99_000)):
        thetas = np.full(100_000, theta)
        sizes = []
        got = _rejection_batch(thetas, DrawLog(np.random.default_rng(0), sizes))
        # the first pass's draws, made at once: the rows it rejects are pass 2's
        _, ok = reference_band_draw(thetas, np.random.default_rng(0).random((100_000, 3)))
        rejected = int(np.count_nonzero(~ok))
        take_pass(sizes, 100_000)
        if rejected:
            take_pass(sizes, rejected)
        assert 100_000 - rejected >= floor
        assert np.all(np.abs(got) < a)
        # theta and -theta draw mirrored rows, bit for bit
        mirror = _rejection_batch(-thetas, np.random.default_rng(0))
        assert np.array_equal(_bits(got), _bits(-mirror))


def test_rejection_draw_keeps_its_temporaries_block_sized():
    # every pass draws, tests and scatters ROW_BLOCK rows at a time, so the
    # sampler's peak beyond its (m, 4) result stays well under one
    # whole-pass (m, 3) draw and its sums (3.3 MiB at 1e5 rows)
    thetas = np.random.default_rng(0).uniform(-math.pi + 0.01, math.pi - 0.01, size=100_000)
    tracemalloc.start()
    try:
        lam = sample_level_set_batch(thetas, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lam.nbytes == 100_000 * 4 * 8  # 3.05 MiB
    assert peak - lam.nbytes < 2 * 2**20


class EdgeFirst:
    """A generator whose first random() calls return the given constants."""

    def __init__(self, rng, values):
        self.rng, self.values = rng, list(values)

    def random(self, size=None):
        if self.values:
            return np.full(size, self.values.pop(0))
        return self.rng.random(size)


def test_corner_batch_redraws_rows_on_the_box_edge():
    # at theta = 2a, the largest radius below 1 gives sum(v) = R = 2a, and
    # zero spacings put all of it on v_3, so u_4 = 2a - (a + a - a) = a
    # exactly: every row is redrawn from the real generator
    a = _half_width()
    thetas = np.full(5, 2.0 * a)
    edge = EdgeFirst(np.random.default_rng(9), [np.nextafter(1.0, 0.0), 0.0])
    got = _corner_batch(thetas, edge)
    assert not edge.values
    assert np.array_equal(got, _corner_batch(thetas, np.random.default_rng(9)))
    assert np.all(np.abs(got) < a)


def test_exhaustion_beyond_clipped_box():
    # the clipped angle box tops out at 2*pi - 4*eps; just above is unreachable
    with pytest.raises(SamplingExhaustedError):
        sample_level_set_batch([TWO_PI - 1e-4], seed=0)
    with pytest.raises(SamplingExhaustedError):
        sample_level_set_batch([-(TWO_PI - 1e-4)], seed=0)


# -- the blocked sampler against a plain, unblocked copy of it ----------------


def reference_sample_level_set_batch(thetas, seed):
    """The level-set sampler in one pass over all rows: full-length tan,
    sort and polish, simplex rejection with 2-D boolean masks."""
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
            draw, ok = reference_band_draw(th[pending], rng.random((pending.size, 3)))
            out[pending[ok]] = draw[ok]
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


BLOCK_SIZES = [0, 1, 999, 1000, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7]


def uniform_thetas(lo, hi):
    return lambda rng, size: rng.uniform(lo, hi, size=size)


def edge_thetas(rng, size):
    """|theta| within 0.05 below the corner switch 2*(pi/2 - eps), either
    sign, where a rejection pass keeps nearly every row."""
    switch = 2.0 * _half_width()
    return rng.uniform(switch - 0.05, switch, size=size) * rng.choice((-1.0, 1.0), size=size)


#: theta draws, (rng, size) -> thetas, for the corner (hi), mirrored corner
#: (lo), rejection (mid), mixed and rejection-edge regimes of the sampler
REGIMES = {
    "hi": uniform_thetas(math.pi, TWO_PI - 0.01),
    "lo": uniform_thetas(-TWO_PI + 0.01, -math.pi),
    "mid": uniform_thetas(-math.pi + 0.01, math.pi - 0.01),
    "mixed": uniform_thetas(-TWO_PI + 0.01, TWO_PI - 0.01),
    "edge": edge_thetas,
}


#: and |theta| < 0.05, where a rejection pass keeps about half its rows:
#: at 3*ROW_BLOCK + 7 rows, the second pass holds more than ROW_BLOCK
BLOCK_REGIMES = {**REGIMES, "centre": uniform_thetas(-0.05, 0.05)}


@pytest.mark.parametrize("regime", sorted(BLOCK_REGIMES))
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_blocked_sampler_matches_unblocked_reference(regime, size):
    thetas = BLOCK_REGIMES[regime](np.random.default_rng([size, 7]), size)
    seed = 1000 + size
    got = sample_level_set_batch(thetas, seed=seed)
    assert got.flags.f_contiguous  # column-major, so the row kernels read contiguous columns
    # bit views: np.array_equal would take -0.0 for 0.0
    want = reference_sample_level_set_batch(thetas, seed)
    assert np.array_equal(_bits(got), _bits(want))


def test_generator_seed_draws_the_integer_seed_stream():
    # a batch with rows in both corners and in the rejection middle
    thetas = REGIMES["mixed"](np.random.default_rng(8), 3000)
    a = _half_width()
    assert (thetas >= 2.0 * a).any() and (thetas <= -2.0 * a).any()
    assert (np.abs(thetas) < 2.0 * a).any()
    want = sample_level_set_batch(thetas, seed=9)
    got = sample_level_set_batch(thetas, seed=np.random.default_rng(9))
    assert np.array_equal(_bits(got), _bits(want))


def test_sampler_has_one_seed_argument():
    with pytest.raises(TypeError):
        sample_level_set_batch([1.0], rng=np.random.default_rng(0))
    public = [
        name
        for name, obj in vars(sampling).items()
        if inspect.isfunction(obj) and obj.__module__ == sampling.__name__ and name[0] != "_"
    ]
    assert public == ["sample_level_set_batch"]


# -- the phase bound the sampler meets with no correction ---------------------


def construction_bound_thetas():
    """50 000 thetas from each of REGIMES, then 2000 each at the corner
    switch +/-(pi - 2*eps) and within 1e-12 of the reach limit
    +/-(2*pi - 4*eps)."""
    rng = np.random.default_rng(2024)
    a = _half_width()
    edges = [2.0 * a, 4.0 * a - 1e-12, np.nextafter(4.0 * a, 0.0)]
    return np.concatenate(
        [draw(rng, 50_000) for draw in REGIMES.values()]
        + [np.full(2000, sign * x) for x in edges for sign in (1.0, -1.0)]
    )


def test_rows_meet_phase_tol_by_construction():
    # PHASE_TOL / 4 is where the dropped Newton polish used to step in
    thetas = construction_bound_thetas()
    lam = sample_level_set_batch(thetas, seed=77)
    assert np.all(np.diff(lam, axis=1) >= 0.0)
    assert np.max(np.abs(np.arctan(lam).sum(axis=1) - thetas)) <= 0.25 * PHASE_TOL
    assert np.max(np.abs(phase_rows(lam) - thetas)) <= 0.25 * PHASE_TOL

    # an independent 50-digit re-check on every 106th row (edge rows included)
    ctx = mpmath.MPContext()
    ctx.dps = 50
    rows = np.arange(0, thetas.size, 106)
    assert rows.size >= 2000
    worst = max(
        abs(ctx.fsum(ctx.atan(x) for x in lam[i].tolist()) - ctx.mpf(float(thetas[i])))
        for i in rows.tolist()
    )
    assert worst <= 0.25 * PHASE_TOL


# -- the band's draw against the exact law of the level set -------------------


def irwin_hall3_cdf(z):
    """CDF of the sum of three U(0, 1) at z."""
    z = np.clip(z, 0.0, 3.0)
    return sum((-1) ** k * math.comb(3, k) * np.maximum(z - k, 0.0) ** 3 for k in range(4)) / 6


def angle_cdf(theta, x):
    """CDF at x of one angle of a row uniform on the level set
    {u in (-a, a)^4 : sum(u) = theta}.  Its density at x is, up to a
    constant, that of the sum of the other three, three U(-a, a), at
    theta - x, an Irwin-Hall density; G below is that sum's CDF."""
    a = _half_width()

    def g(s):
        return irwin_hall3_cdf((s + 3.0 * a) / (2.0 * a))

    x = np.clip(x, -a, a)
    return (g(theta + a) - g(theta - x)) / (g(theta + a) - g(theta - a))


def ks_statistic(sample, cdf):
    """Kolmogorov-Smirnov distance of a sample from a continuous CDF."""
    f = cdf(np.sort(sample))
    n = f.size
    return max(float(np.max(np.arange(1, n + 1) / n - f)), float(np.max(f - np.arange(n) / n)))


#: +-0.0, +-0.3, +-1.5 and just below the corner switch 2a, either sign
LAW_THETAS = [
    s * x for x in (0.0, 0.3, 1.5, 2.0 * _half_width() - 1e-9) for s in (1.0, -1.0)
]


@pytest.mark.parametrize("theta", LAW_THETAS)
def test_band_rows_follow_the_exact_level_set_law(theta):
    # KS at alpha = 1e-3: the asymptotic critical value sqrt(-ln(alpha/2)/2)/sqrt(n)
    n = 100_000
    u = _rejection_batch(np.full(n, theta), np.random.default_rng([35, n]))
    crit = math.sqrt(-0.5 * math.log(0.5e-3)) / math.sqrt(n)
    for col in (0, 3):  # a drawn angle and the solved one share the law
        assert ks_statistic(u[:, col], lambda x: angle_cdf(theta, x)) < crit
