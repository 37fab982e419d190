import math

import numpy as np
import pytest

from dhym import identity_suite, kt_suite, reports, suites, theorem_suite
from dhym.charge import _im_root
from dhym.eigen import (
    ROW_BLOCK,
    branch_blocks,
    factorization_rows,
    gamma_cone_rows,
    phase_component_rows,
    phase_rows,
    sigma_rows,
)
from dhym.errors import DomainError
from dhym.models import constant_model_rows
from dhym.reports import Margin, evaluate
from dhym.sampling import sample_level_set_batch
from dhym.suites import SPAN, VIETA_ROWS

from conftest import DrawLog, ReferenceTally

TWO_PI = 2 * math.pi


def test_suites_require_positive_count():
    for fn in (identity_suite, theorem_suite, kt_suite):
        with pytest.raises(DomainError):
            fn(0, seed=1)


def test_identity_suite_small():
    report = identity_suite(5000, seed=1)
    assert report["pass"]
    assert report["count"] == 5000
    assert report["max_rel_product"] <= 1e-12
    assert report["max_rel_factorization"] <= 1e-10
    assert report["max_rel_vieta"] <= 1e-10
    assert report["min_newton_margin_rel"] >= -1e-12


def test_identity_suite_deterministic():
    # every suite report is a plain value: identical calls compare equal
    for fn in (identity_suite, theorem_suite, kt_suite):
        a, b = fn(2000, seed=9), fn(2000, seed=9)
        assert a == b
        assert repr(a) == repr(b)


def test_theorem_suite_small():
    report = theorem_suite(500, seed=2)
    assert report["pass"]
    assert report["sign_mismatches"] == 0
    assert report["tstar_count"] == 500
    assert report["max_phase_error"] < 1e-12
    assert min(report["min_margins"].values()) > 0.0


def test_theorem_suite_fixed_theta():
    report = theorem_suite(100, seed=3, theta_lo=5.0, theta_hi=5.0)
    assert report["pass"]
    assert report["theta_lo"] == report["theta_hi"] == 5.0
    assert any(key.startswith("branch_supercritical") for key in report["min_margins"])


def test_theorem_suite_mid_only():
    report = theorem_suite(100, seed=4, theta_lo=3.2, theta_hi=4.6)
    assert report["pass"]
    assert all(not k.startswith("branch_supercritical") for k in report["min_margins"])
    assert "branch_mid.sigma2_minus_sigma4_minus_1" in report["min_margins"]


def test_theorem_suite_exact_branch_boundary():
    # exactly 3*pi/2 dispatches to the FULL fact set, never a precondition error
    report = theorem_suite(20, seed=6, theta_lo=1.5 * math.pi, theta_hi=1.5 * math.pi)
    assert report["pass"]
    assert any(k.startswith("branch_full.") for k in report["min_margins"])


def test_theorem_suite_window_guard():
    with pytest.raises(DomainError):
        theorem_suite(10, seed=1, theta_lo=2.0, theta_hi=2.0)
    with pytest.raises(DomainError):
        theorem_suite(10, seed=1, theta_lo=4.0, theta_hi=3.0)


def test_kt_suite_small():
    report = kt_suite(1000, seed=5)
    assert report["pass"]
    assert report["count"] == 1000
    assert report["attempts"] >= 1000
    assert set(report["min_margins"]) == {"k1", "k2", "k3", "eqn12", "eqn23", "combined"}


# -- the blocked identity suite against a plain, unblocked copy of it ---------


def _max_rel(a, b):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def reference_identity_report(count, seed):
    """identity_suite's wire form, computed in one pass over all rows."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-SPAN, SPAN, size=(count, 4)), axis=1)
    e = sigma_rows(lam)
    re, im = phase_component_rows(e)
    rel_product = _max_rel(re + 1j * im, np.prod(1.0 + 1j * lam, axis=1))
    rel_fact = _max_rel(*factorization_rows(lam, e))
    m = min(count, 1000)
    x = rng.uniform(-SPAN, SPAN, size=m)
    vl = np.prod(x[:, None] + lam[:m], axis=1)
    x2 = x * x
    powers = (x2 * x2, x2 * x, x2, x, 1.0)
    rel_vieta = _max_rel(vl, sum(e[:m, k] * powers[k] for k in range(5)))
    p = constant_model_rows(e)
    newton = np.inf
    for k in (1, 2, 3):
        margin = p[:, k] ** 2 - p[:, k - 1] * p[:, k + 1]
        scale = np.maximum(1.0, np.maximum(p[:, k] ** 2, np.abs(p[:, k - 1] * p[:, k + 1])))
        newton = min(newton, float(np.min(margin / scale)))
    passed = rel_product <= 1e-12 and rel_fact <= 1e-10 and rel_vieta <= 1e-10 and newton >= -1e-12
    return {
        "count": count,
        "max_rel_product": rel_product,
        "max_rel_factorization": rel_fact,
        "max_rel_vieta": rel_vieta,
        "min_newton_margin_rel": newton,
        "pass": passed,
    }


@pytest.mark.parametrize("seed", [0, 105])
@pytest.mark.parametrize(
    "count", [1, 999, 1000, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7]
)
def test_blocked_identity_suite_matches_unblocked_reference(count, seed):
    assert identity_suite(count, seed) == reference_identity_report(count, seed)


# -- the blocked theorem and KT suites against whole-array copies of them -----


def reference_theorem_report(count, seed, theta_lo, theta_hi):
    """theorem_suite's wire form, every step over all rows at once."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(theta_lo, theta_hi, size=count)
    lam = sample_level_set_batch(thetas, seed=rng)
    phase = phase_rows(lam)
    max_phase_err = max(0.0, float(np.max(np.abs(phase - thetas))))
    e = sigma_rows(lam)
    blocks = branch_blocks(lam, e, thetas, phase)
    d = constant_model_rows(e)
    chern = evaluate("chern_n4", d)
    blocks.append((np.arange(count), chern))
    t = _im_root(4, d)
    rows = np.flatnonzero(t > 1.0)
    t, dr = t[rows], d[rows]
    quartic = dr[:, 0] * ((t * t) * (t * t)) - 6.0 * dr[:, 2] * (t * t)
    re = -(quartic + dr[:, 4])
    second = chern.margin[rows, chern.names.index("second")]
    mismatch = rows[np.copysign(1.0, re) != np.copysign(1.0, second)]
    ref = ReferenceTally()
    ref.add(blocks, flags=[("tstar_sign", mismatch)])
    return {
        "count": count,
        "theta_lo": theta_lo,
        "theta_hi": theta_hi,
        "max_phase_error": max_phase_err,
        "min_margins": ref.mins,
        "tstar_count": len(rows),
        "sign_mismatches": len(mismatch),
        "failures": ref.failures,
        "pass": not ref.failures and len(mismatch) == 0 and max_phase_err < 1e-12,
    }


def reference_kt_report(count, seed):
    """kt_suite's wire form from one draw of 16 * count + 4096 rows:
    attempts is the 1-based index of its count-th Gamma_3 row, and one
    margin table runs over the first count of them."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-SPAN, SPAN, size=(16 * count + 4096, 4)), axis=1)
    e = sigma_rows(lam)
    kept = np.flatnonzero(gamma_cone_rows(e) >= 3)[:count]
    assert len(kept) == count
    d = constant_model_rows(e[kept])
    ref = ReferenceTally(qualified=False)
    ref.add([(np.arange(count), evaluate("kt_chain", d))])
    return {
        "count": count,
        "attempts": int(kept[-1]) + 1,
        "min_margins": ref.mins,
        "failures": ref.failures,
        "pass": not ref.failures,
    }


BLOCK_COUNTS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7]


@pytest.mark.parametrize("window", [(math.pi + 0.01, TWO_PI - 0.01), (1.5 * math.pi,) * 2])
@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_blocked_theorem_suite_matches_whole_array_reference(count, window):
    # repr compares key order and every float bit, -0.0 included
    got = theorem_suite(count, 107, *window)
    assert repr(got) == repr(reference_theorem_report(count, 107, *window))


def test_blocked_theorem_suite_names_failures_by_sample(monkeypatch):
    # an extra entry in each check that fails on about one row in 2000,
    # wherever it falls, so the failures come from several row blocks
    for label in ("branch_supercritical", "branch_mid", "chern_n4"):
        entries = reports.MARGINS[label]

        def rare(*cols, entries=entries):  # cols[-1]: sigma rows or profile rows
            return (*entries(*cols), Margin("rare", np.mod(1e6 * cols[-1][:, 1], 1.0), 5e-4))

        monkeypatch.setitem(reports.MARGINS, label, rare)
    count, window = 3 * ROW_BLOCK + 7, (math.pi + 0.01, TWO_PI - 0.01)
    got = theorem_suite(count, 107, *window)
    assert repr(got) == repr(reference_theorem_report(count, 107, *window))
    assert {key for _, key, _ in got["failures"]} == {
        "branch_supercritical.rare",
        "branch_mid.rare",
        "chern_n4.rare",
    }
    assert got["failures"][-1][0] >= 2 * ROW_BLOCK


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_blocked_kt_suite_matches_whole_array_reference(count):
    assert repr(kt_suite(count, 108)) == repr(reference_kt_report(count, 108))


def test_kt_gamma3_mask_keeps_the_gamma_cone_rows():
    # the KT draw's mask against gamma_cone_rows(e) >= 3: on sigma rows of
    # uniform draws, and on rows of NaN, +-0.0 and values either side of 0;
    # its prefilter against a count of the raw draws > 0.5 on rows of NaN,
    # 0.5, its neighbours and values either side
    rng = np.random.default_rng(9)
    drawn = sigma_rows(np.sort(rng.uniform(-SPAN, SPAN, size=(ROW_BLOCK, 4)), axis=1))
    pool = np.array([math.nan, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf])
    edges = np.asfortranarray(rng.choice(pool, size=(4096, 5)))
    for e in (drawn, edges, np.ascontiguousarray(edges)):
        mask = suites._gamma3(e)
        assert mask.dtype == bool and np.array_equal(mask, gamma_cone_rows(e) >= 3)
    # gamma_cone_rows itself: the length of each row's leading run of s > 0
    leading = [next((k for k, s in enumerate(row[1:]) if not s > 0.0), 4) for row in edges.tolist()]
    assert gamma_cone_rows(edges).tolist() == leading
    assert 0 < suites._gamma3(edges).sum() < len(edges)
    half = np.array([math.nan, 0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0])
    rows = rng.choice(half, size=(4096, 4))
    want = np.count_nonzero(rows > 0.5, axis=1) >= 3
    assert 0 < want.sum() < len(rows) and np.array_equal(suites._three_positive(rows), want)


@pytest.mark.parametrize("shape", [(ROW_BLOCK, 4), (VIETA_ROWS,)], ids=["rows", "vieta"])
def test_scaled_random_is_generator_uniform(shape):
    # the identity and KT suites draw random() and scale it in place; numpy's
    # uniform(-SPAN, SPAN) is -SPAN + 2*SPAN*random(), so the bits must agree
    # (a numpy that changes either shows here)
    for seed in range(20):
        want = np.random.default_rng(seed).uniform(-SPAN, SPAN, size=shape)
        got = suites._span(np.random.default_rng(seed).random(shape))
        assert got.tobytes() == want.tobytes()


def test_kt_prefilter_on_raw_draws_is_the_sign_of_the_scaled_ones():
    # u > 0.5 exactly where -SPAN + 2*SPAN*u > 0: on every double within 2^20
    # ulp of 0.5, and on every multiple of 2^-53 (the values random() draws)
    # within 2^20 of them
    bits = np.float64(0.5).view(np.int64) + np.arange(-(2**20), 2**20 + 1)
    grid = 0.5 + np.arange(-(2**20), 2**20 + 1) * 2.0**-53
    for u in (bits.view(np.float64), grid):
        assert np.array_equal(u > 0.5, suites._span(u.copy()) > 0.0)
    rows = np.random.default_rng(3).random((ROW_BLOCK, 4))
    want = np.count_nonzero(suites._span(rows.copy()) > 0.0, axis=1) >= 3
    assert np.array_equal(suites._three_positive(rows), want)


def test_kt_prefilter_drops_no_gamma3_row_in_floats():
    """Rows with at least two entries <= 0 (+-0.0 among them), magnitudes
    1e-15..10, whose remaining entry is set a few ulp either side of
    sigma_1 = 0 or sigma_3 = 0: the KT prefilter drops every one, and
    none meets _gamma3 after the sort and the sigma rows, so the drop
    changes no kept row.  On about a fifth of them sigma_1 and sigma_3
    are both > 0, so only sigma_2 keeps them out of Gamma_3: with sigma_1,
    sigma_3 >= 0, the entries a, b, -c, -d (c, d >= 0) and s = a + b give
    ab <= s(c + d)/4 and cd <= s(c + d)/4, hence sigma_2 <= -s(c + d)/2,
    a margin the size of sigma_2's terms, far above their rounding."""
    rng = np.random.default_rng(29)
    m = 10**6

    def magnitudes(size):
        return 10.0 ** rng.uniform(-15.0, 1.0, size)

    c, d, f = -magnitudes((3, m))
    for x in (c, d, f):  # about one entry in eight an exact zero, of either sign
        zero = rng.random(m) < 0.125
        x[zero] = rng.choice([0.0, -0.0], zero.sum())
    b = np.where(rng.random(m) < 0.5, f, magnitudes(m))  # three entries <= 0, or two
    with np.errstate(divide="ignore", invalid="ignore"):
        # a on sigma_1 = 0, or on sigma_3 = a(bc + bd + cd) + bcd = 0
        a = np.where(rng.random(m) < 0.5, -(b + c + d), -b * c * d / (b * c + b * d + c * d))
    a = np.where(np.isfinite(a), a, magnitudes(m))
    a += np.abs(a) * rng.integers(-4, 5, m) * 2.0**-52
    rows = rng.permuted(np.stack([a, b, c, d], axis=1), axis=1)
    # the prefilter's test on the raw draws of these rows (u > 0.5 exactly
    # where lam > 0) drops every one
    assert np.all(np.count_nonzero(rows > 0.0, axis=1) <= 2)
    e = sigma_rows(suites.sort_rows(np.asfortranarray(rows)))
    assert np.count_nonzero((e[:, 1] > 0.0) & (e[:, 3] > 0.0)) > m // 10
    assert not suites._gamma3(e).any()


#: counts whose count-th kept row falls in the first chunk (1, 2), in the
#: second (999..1001) and in the sixth to the twenty-seventh; the first
#: chunk is sized from the count up to 656 and capped at ROW_BLOCK above
KT_COUNTS = [1, 2, 999, 1000, 1001, 4095, 4096, 4097, 5000, 8193, 9000, 20000]


@pytest.mark.parametrize("seed", [0, 5, 2024])
@pytest.mark.parametrize("count", KT_COUNTS)
def test_kt_draw_stops_at_the_count_th_kept_row(count, seed, monkeypatch):
    """The chunked draw reports what one unchunked draw reports, and
    attempts is the draw index of the count-th kept row, plus 1, which the
    last chunk holds.  The sizes are those of the draws, not of the rows
    sorted, which the prefilter shrinks."""
    sizes, default_rng = [], np.random.default_rng
    with monkeypatch.context() as m:
        m.setattr(suites.np.random, "default_rng", lambda seed: DrawLog(default_rng(seed), sizes))
        got = kt_suite(count, seed)
    assert repr(got) == repr(reference_kt_report(count, seed))
    rng = np.random.default_rng(seed)
    e = sigma_rows(np.sort(rng.uniform(-SPAN, SPAN, size=(got["attempts"], 4)), axis=1))
    needed = np.flatnonzero(gamma_cone_rows(e) >= 3)[count - 1] + 1
    assert got["attempts"] == needed
    assert sum(sizes[:-1]) < needed <= sum(sizes) and max(sizes) <= ROW_BLOCK
