import math

import numpy as np
import pytest

from dhym import identity_suite, kt_suite, theorem_suite
from dhym.eigen import ROW_BLOCK, factorization_rows, phase_component_rows, sigma_rows
from dhym.errors import DomainError
from dhym.models import constant_model_rows
from dhym.suites import SPAN

TWO_PI = 2 * math.pi


def test_suites_require_positive_count():
    for fn in (identity_suite, theorem_suite, kt_suite):
        with pytest.raises(DomainError):
            fn(0, seed=1)


def test_identity_suite_small():
    report = identity_suite(5000, seed=1)
    assert report.passed
    assert report.count == 5000
    assert report.max_rel_product <= 1e-12
    assert report.max_rel_factorization <= 1e-10
    assert report.max_rel_vieta <= 1e-10
    assert report.min_newton_margin_rel >= -1e-12


def test_identity_suite_deterministic():
    a = identity_suite(2000, seed=9)
    b = identity_suite(2000, seed=9)
    assert a.to_dict() == b.to_dict()  # elapsed stays off the wire
    assert "elapsed" not in a.to_dict()


def test_theorem_suite_small():
    report = theorem_suite(500, seed=2)
    assert report.passed
    assert report.sign_mismatches == 0
    assert report.tstar_count == 500
    assert report.max_phase_error < 1e-12
    assert min(report.min_margins.values()) > 0.0


def test_theorem_suite_fixed_theta():
    report = theorem_suite(100, seed=3, theta_lo=5.0, theta_hi=5.0)
    assert report.passed
    assert report.theta_lo == report.theta_hi == 5.0
    assert any(key.startswith("branch_supercritical") for key in report.min_margins)


def test_theorem_suite_mid_only():
    report = theorem_suite(100, seed=4, theta_lo=3.2, theta_hi=4.6)
    assert report.passed
    assert all(not k.startswith("branch_supercritical") for k in report.min_margins)
    assert "branch_mid.sigma2_minus_sigma4_minus_1" in report.min_margins


def test_theorem_suite_exact_branch_boundary():
    # exactly 3*pi/2 dispatches to the FULL fact set, never a precondition error
    report = theorem_suite(20, seed=6, theta_lo=1.5 * math.pi, theta_hi=1.5 * math.pi)
    assert report.passed
    assert any(k.startswith("branch_full.") for k in report.min_margins)


def test_theorem_suite_window_guard():
    with pytest.raises(DomainError):
        theorem_suite(10, seed=1, theta_lo=2.0, theta_hi=2.0)
    with pytest.raises(DomainError):
        theorem_suite(10, seed=1, theta_lo=4.0, theta_hi=3.0)


def test_kt_suite_small():
    report = kt_suite(1000, seed=5)
    assert report.passed
    assert report.count == 1000
    assert report.attempts >= 1000
    assert set(report.min_margins) == {"k1", "k2", "k3", "eqn12", "eqn23", "combined"}


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
    powers = (np.float_power(x, 4.0), np.float_power(x, 3.0), x**2, x, 1.0)
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
    assert identity_suite(count, seed).to_dict() == reference_identity_report(count, seed)
