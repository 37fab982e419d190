import math

import numpy as np
import pytest

from dhym import (
    EigenTuple,
    IntersectionProfile,
    check_chern_n3,
    check_chern_n4,
    constant_model,
    general_kt,
    integrated_sigma_chain,
    intersection_number,
    kt_chain,
    mixed_sigma,
    z_of_t,
)
from dhym.errors import DomainError
from dhym.serialize import parse_profile


def test_profile_validation():
    with pytest.raises(DomainError):
        IntersectionProfile(4, (0.0, 1, 1, 1, 1))  # volume must be positive
    with pytest.raises(DomainError):
        IntersectionProfile(4, (1.0, 1, 1, 1))  # wrong length
    with pytest.raises(DomainError):
        IntersectionProfile(3, (1.0, math.inf, 0, 0))
    p = IntersectionProfile(4, (2.0, 4.0, 6.0, 8.0, 10.0))
    assert p.scaled(0.5).d == (1.0, 2.0, 3.0, 4.0, 5.0)
    with pytest.raises(DomainError):
        p.scaled(-1.0)


def test_profile_round_trip_dict():
    p = IntersectionProfile(4, (1.0, 0.5, 0.25, 0.125, 0.0625), synthetic=True)
    assert parse_profile(p.to_dict()) == p
    assert "synthetic" not in constant_model((1, 1, 1, 1)).to_dict()


def test_z_examples():
    p = constant_model((1, 1, 1, 1))
    z1 = z_of_t(p, 1.0)
    assert z1.real == pytest.approx(1 / 6, abs=1e-15)
    assert z1.imag == pytest.approx(0.0, abs=1e-15)

    z = z_of_t(IntersectionProfile(4, (1, 0, 0, 0, 0)), 1.0)
    assert z == pytest.approx(-1 / 24 + 0j, abs=1e-15)

    p = constant_model((2, 3, 4, 5))
    z = z_of_t(p, math.sqrt(11.0))
    assert z.real == pytest.approx(22.5, abs=1e-9)
    assert z.imag == pytest.approx(0.0, abs=1e-9)


def test_z_requires_positive_t():
    with pytest.raises(DomainError):
        z_of_t(constant_model((1, 1, 1, 1)), 0.0)
    with pytest.raises(DomainError):
        z_of_t(constant_model((1, 1, 1, 1)), -2.0)


def test_z_matches_eigen_product_on_constant_models():
    # Z(t) = -(d0/n!) prod_j (lambda_j - i t) for constant models
    rng = np.random.default_rng(100)
    for _ in range(100):
        lam = rng.uniform(-5.0, 5.0, size=4)
        t = rng.uniform(0.1, 10.0)
        p = constant_model(lam)
        want = -np.prod(lam - 1j * t) / 24.0
        got = z_of_t(p, float(t))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_chern_n4_strict_example():
    report = check_chern_n4(constant_model((2, 3, 4, 5)))
    assert report.passed
    assert report.margin("first") == pytest.approx(35.0, abs=1e-9)
    second = report.entry("second")
    assert second.rhs - second.lhs == pytest.approx(-6615.0, abs=1e-6)
    assert second.margin == pytest.approx(6615.0, abs=1e-6)


def test_chern_n4_ratio_example():
    p = constant_model((0.5, 1, 2, 3))
    report = check_chern_n4(p)
    assert report.passed
    assert p.d[3] / p.d[1] == pytest.approx(1.7692307692307692, abs=1e-12)
    second = report.entry("second")
    assert second.rhs - second.lhs == pytest.approx(-49.21875, abs=1e-10)
    assert 16.0 * (second.rhs - second.lhs) == pytest.approx(-787.5, abs=1e-8)


def test_chern_n4_boundary_example():
    report = check_chern_n4(constant_model((1, 1, 1, 1)))
    first = report.entry("first")
    assert not first.passed
    assert first.margin == 0.0
    assert first.boundary
    assert not report.passed


def test_dimension_guards():
    with pytest.raises(DomainError):
        check_chern_n4(constant_model((1, 2, 3)))
    with pytest.raises(DomainError):
        check_chern_n3(constant_model((1, 2, 3, 4)))
    with pytest.raises(DomainError):
        kt_chain(constant_model((1, 2, 3)))
    with pytest.raises(DomainError):
        integrated_sigma_chain(constant_model((1, 2, 3)))


def test_chern_n3_examples():
    report = check_chern_n3(constant_model((1, 2, 3)))
    entry = report.entry("chern3")
    assert (entry.rhs, entry.lhs) == (6.0, 66.0)
    assert report.passed

    report = check_chern_n3(constant_model((1, 1, 1)))
    assert report.entry("chern3").lhs == 9.0
    assert report.entry("chern3").rhs == 1.0

    report = check_chern_n3(IntersectionProfile(3, (1, 0, 0, 0)))
    assert not report.passed  # 0 < 0 fails the strict form
    assert report.entry("chern3").boundary


def test_kt_chain_values():
    report = kt_chain(constant_model((1, 2, 3, 4)))
    assert report.passed
    k1 = report.entry("k1")
    assert (k1.rhs, k1.lhs) == (pytest.approx(35 / 6), 6.25)
    k2 = report.entry("k2")
    assert (k2.rhs, k2.lhs) == (31.25, pytest.approx((35 / 6) ** 2))
    k3 = report.entry("k3")
    assert (k3.rhs, k3.lhs) == (140.0, pytest.approx(156.25))
    combined = report.entry("combined")
    assert combined.margin == pytest.approx(1.8666666666666663, abs=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_kt_chain_equality_at_proportional(c):
    report = kt_chain(constant_model((c, c, c, c)))
    assert report.passed
    for name in ("k1", "k2", "k3", "eqn12", "eqn23", "combined"):
        entry = report.entry(name)
        assert entry.boundary, name
        assert abs(entry.margin) <= 1e-12 * max(1.0, abs(entry.lhs), abs(entry.rhs))


def test_kt_chain_omits_combined_on_zero_denominators():
    report = kt_chain(IntersectionProfile(4, (1, 0, 0, 0, 0)))
    assert "combined" not in report.names()


def test_general_kt_degenerate_equality():
    lam = (1, 2, 3, 4)
    for m in (2, 3, 4):
        report = general_kt(lam, lam, m)
        assert report.entry(f"kt_m{m}").boundary


def test_general_kt_reduces_to_chain():
    report = general_kt((1, 2, 3, 4), (1, 1, 1, 1), 3)
    d = constant_model((1, 2, 3, 4)).d
    assert report.margin("kt_m3") == pytest.approx(d[2] ** 2 - d[1] * d[3], abs=1e-12)
    assert report.passed


def test_general_kt_brute_force_cross_check():
    lam, mu, m = (1, 2, 3, 4), (1, -1, 2, 0), 2

    def weight(j, k):
        return math.factorial(j) * math.factorial(k) * math.factorial(4 - j - k) / 24.0

    report = general_kt(lam, mu, m)
    lhs = (weight(1, 1) * mixed_sigma(lam, mu, 1, 1)) ** 2
    rhs = (weight(0, 2) * mixed_sigma(lam, mu, 0, 2)) * (
        weight(2, 0) * mixed_sigma(lam, mu, 2, 0)
    )
    assert report.entry("kt_m2").lhs == pytest.approx(lhs, abs=1e-12)
    assert report.entry("kt_m2").rhs == pytest.approx(rhs, abs=1e-12)
    assert report.passed


def test_general_kt_random_mu_nonnegative():
    rng = np.random.default_rng(17)
    lam = EigenTuple((1.0, 2.0, 3.0, 4.0))
    for _ in range(200):
        mu = tuple(rng.uniform(-4.0, 4.0, size=4))
        for m in (2, 3, 4):
            entry = general_kt(lam, mu, m).entry(f"kt_m{m}")
            assert entry.passed, (mu, m, entry.margin)


def test_general_kt_cone_precondition():
    with pytest.raises(DomainError):
        general_kt((-1, -1, -1, 5), (1, 1, 1, 1), 3)
    with pytest.raises(DomainError):
        general_kt((1, 2, 3, 4), (1, 1, 1, 1), 5)
    with pytest.raises(DomainError):
        general_kt((1, 2, 3, 4), (1, 1, 1, 1), 1)


def test_intersection_number_matches_constant_model():
    lam = (0.5, 1.5, 2.5, 3.5)
    d = constant_model(lam).d
    for j in range(5):
        assert intersection_number(lam, lam, j, 0) == pytest.approx(d[j], abs=1e-12)


def test_integrated_chain_example():
    report = integrated_sigma_chain(constant_model((0.5, 1, 2, 3)))
    assert report.passed
    assert report.margin("chainA") == pytest.approx(11 / 3, abs=1e-12)
    assert report.margin("chainB") == pytest.approx(73.0, abs=1e-12)
    assert report.margin("final") == pytest.approx(787.5, abs=1e-10)
    assert report.entry("final_scaling").boundary


def test_integrated_chain_ones_and_2345():
    report = integrated_sigma_chain(constant_model((1, 1, 1, 1)))
    assert report.margin("final") == pytest.approx(64.0, abs=1e-12)
    assert report.margin("chainB") == pytest.approx(16.0, abs=1e-12)
    assert report.entry("chainA").boundary  # equality at proportional classes

    report = integrated_sigma_chain(constant_model((2, 3, 4, 5)))
    assert report.margin("final") == pytest.approx(105840.0, abs=1e-6)
    assert report.passed


def test_integrated_chain_scaling_invariant():
    p = constant_model((0.5, 1, 2, 3)).scaled(37.0)
    report = integrated_sigma_chain(p)
    assert report.margin("final") == pytest.approx(787.5, abs=1e-9)


def test_verdicts_invariant_under_profile_scaling():
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = constant_model(rng.uniform(-3.0, 3.0, size=4))
        base = [(e.name, e.passed) for e in check_chern_n4(p).entries]
        base += [(e.name, e.passed) for e in kt_chain(p).entries]
        for c in (1e-4, 3.0, 1e6):
            ps = p.scaled(c)
            got = [(e.name, e.passed) for e in check_chern_n4(ps).entries]
            got += [(e.name, e.passed) for e in kt_chain(ps).entries]
            assert got == base
