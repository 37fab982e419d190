import math

import numpy as np
import pytest

from dhym import (
    analytic_angle_from_integrals,
    blowup_p3,
    check_chern_n3,
    consistency_suite,
    constant_model,
    sample_level_set_batch,
    weighted_model,
)
from dhym.errors import DomainError


def test_constant_model_values():
    p = constant_model((2, 3, 4, 5))
    assert p.n == 4
    assert p.d == (1.0, 3.5, pytest.approx(71 / 6), 38.5, 120.0)
    assert constant_model((0, 0, 0, 0)).d == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert constant_model((1, 1, 1, 1)).d == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert not p.synthetic


def test_weighted_model_single_point_is_constant():
    lam = (0.5, 1.0, 2.0, 3.0)
    w = weighted_model([(1.0, lam)])
    assert w.d == constant_model(lam).d
    assert w.synthetic


def test_weighted_model_averages():
    w = weighted_model([(0.5, (0, 0, 0, 0)), (0.5, (1, 1, 1, 1))])
    assert w.d == (1.0, 0.5, 0.5, 0.5, 0.5)


def test_weighted_model_common_level_set_angle():
    # complex numbers with one argument add without rotating it
    theta = 4.0
    pts = sample_level_set_batch(np.full(3, theta), seed=21)
    profile = weighted_model([(0.25, pts[0]), (0.35, pts[1]), (0.4, pts[2])])
    assert analytic_angle_from_integrals(profile) == pytest.approx(theta, abs=1e-9)


def test_weighted_model_can_break_log_concavity():
    # no manifold underlies a sigma-average: mixing two proportionality rays
    # violates the KT chain, which is exactly why the flag exists
    from dhym import kt_chain

    mix = weighted_model([(0.5, (0, 0, 0, 0)), (0.5, (5, 5, 5, 5))])
    assert mix.synthetic
    report = kt_chain(mix)
    assert not report.entry("k1")["pass"]
    assert report.entry("k1")["margin"] < 0.0


def test_weighted_model_validation():
    with pytest.raises(DomainError):
        weighted_model([])
    with pytest.raises(DomainError):
        weighted_model([(0.5, (1, 1, 1, 1)), (0.6, (1, 1, 1, 1))])
    with pytest.raises(DomainError):
        weighted_model([(-0.5, (1, 1, 1, 1)), (1.5, (1, 1, 1, 1))])
    with pytest.raises(DomainError):
        weighted_model([(0.5, (1, 1, 1, 1)), (0.5, (1, 1, 1))])


def _blowup_oracle(a, b, c, e, k):
    """Independent route: expand (c H - e E)^k (a H - b E)^(3-k) and keep
    the H^3 and E^3 coefficients (H^3 = E^3 = 1, mixed terms vanish)."""
    total = 0.0
    for i in range(k + 1):
        for j in range(3 - k + 1):
            hdeg = (k - i) + (3 - k - j)
            edeg = i + j
            if (hdeg, edeg) in ((3, 0), (0, 3)):
                total += (
                    math.comb(k, i)
                    * c ** (k - i)
                    * (-e) ** i
                    * math.comb(3 - k, j)
                    * a ** (3 - k - j)
                    * (-b) ** j
                )
    return total


def test_blowup_examples():
    assert blowup_p3(2, 1, 1, 0).d == (7.0, 4.0, 2.0, 1.0)
    assert blowup_p3(2, 1, 2, 1).d == (7.0, 7.0, 7.0, 7.0)


def test_blowup_matches_ring_expansion_oracle():
    for a in (2, 3, 5):
        for b in range(1, a):
            for c in (1, 2, 4):
                for e in range(0, c):
                    p = blowup_p3(a, b, c, e)
                    for k in range(4):
                        assert p.d[k] == pytest.approx(
                            _blowup_oracle(a, b, c, e, k), abs=1e-12
                        )


def test_blowup_rejects_non_kahler_metric():
    with pytest.raises(DomainError):
        blowup_p3(1, 1, 1, 0)  # a == b
    with pytest.raises(DomainError):
        blowup_p3(-2, -3, 1, 0)  # a <= 0
    with pytest.raises(DomainError):
        blowup_p3(2, 0, 1, 0)  # b must stay positive
    with pytest.raises(DomainError):
        blowup_p3(2, -1, 1, 0)


def test_blowup_chern3_on_small_grid():
    for a in (2, 4):
        for b in range(1, a):
            for c in (1, 3):
                for e in range(0, c):
                    assert check_chern_n3(blowup_p3(a, b, c, e)).passed


def test_consistency_examples():
    r = consistency_suite((1, 1, 1, 1))
    assert r["pass"]
    assert r["r_expected"] == pytest.approx(1 / 6, abs=1e-15)
    assert r["r_actual"] == pytest.approx(1 / 6, abs=1e-12)

    r = consistency_suite((0, 0, 0, 0))
    assert r["pass"]
    assert r["r_actual"] == pytest.approx(1 / 24, abs=1e-15)
    assert r["angle_delta"] == pytest.approx(0.0, abs=1e-12)

    r = consistency_suite((2, 3, 4, 5))
    assert r["pass"]
    assert r["winding_delta"] is not None and r["winding_delta"] < 1e-9
    assert r["theta_alg"] == pytest.approx(5.05541292, abs=1e-8)


def test_consistency_n3():
    r = consistency_suite((1, 2, 3))
    assert r["pass"]
    assert r["theta_alg"] == pytest.approx(math.pi, abs=1e-9)


def test_consistency_report_dict():
    d = consistency_suite((2, 3, 4, 5))
    assert d["pass"] is True
    assert d["lambda"] == [2.0, 3.0, 4.0, 5.0]
