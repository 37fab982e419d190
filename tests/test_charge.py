import math
import warnings

import mpmath
import numpy as np
import pytest

from dhym import (
    IntersectionProfile,
    check_chern_n3,
    check_chern_n4,
    constant_model,
    integrated_sigma_chain,
    kt_chain,
    z_of_t,
)
from dhym.charge import path_polynomials
from dhym.errors import DomainError
from dhym.serialize import parse_profile


def test_profile_validation():
    with pytest.raises(DomainError):
        IntersectionProfile(4, (0.0, 1, 1, 1, 1))  # volume must be positive
    with pytest.raises(DomainError):
        IntersectionProfile(4, (1.0, 1, 1, 1))  # wrong length
    with pytest.raises(DomainError):
        IntersectionProfile(3, (1.0, math.inf, 0, 0))


def test_report_entry_of_unknown_name_raises_key_error():
    report = check_chern_n4(constant_model((2, 3, 4, 5)))
    for look_up in (report.entry, report.margin):
        with pytest.raises(KeyError, match="chern3"):
            look_up("chern3")


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


def test_z_overflows_silently():
    # to inf, as Python floats and every other kernel do: no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = z_of_t(IntersectionProfile(4, (1e300,) * 5), 1e10)
    assert z == complex(-math.inf, -math.inf)


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


def test_z_within_horner_bound_of_mpmath():
    """z_of_t against Z at 50 digits from the same doubles d_k and t, on
    profiles with n = 3 and 4, entries of either sign from 1e-6 to 1e6 and
    t in [1, 1e3].  Re and Im each stay within (2n + 3) u sum|c_k| t^k:
    gamma_2n for Horner's rule (Higham 2002, sec. 5.1) plus gamma_3 for
    the rounded coefficients c_k of path_polynomials.  The worst error
    comes above a sixteenth of that bound, so the bound is not slack."""
    ctx = mpmath.MPContext()
    ctx.dps = 50
    u = 2.0**-53
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(4000):
        n = 3 + i % 2
        d = 10.0 ** rng.uniform(-6.0, 6.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
        d[0] = abs(d[0])
        p = IntersectionProfile(n, tuple(d.tolist()))
        t = float(10.0 ** rng.uniform(0.0, 3.0))
        got = z_of_t(p, t)
        tm = ctx.mpf(t)
        exact = -ctx.fsum(
            math.comb(n, k) * ctx.mpf(p.d[k]) * ctx.mpc(0, -1) ** (n - k) * tm ** (n - k)
            for k in range(n + 1)
        ) / math.factorial(n)
        for part, want, c in zip((got.real, got.imag), (exact.real, exact.imag), path_polynomials(p)):
            size = ctx.fsum(abs(ctx.mpf(x)) * tm**k for k, x in enumerate(c.tolist()))
            ratio = float(abs(ctx.mpf(part) - want) / (u * size))
            assert ratio <= 2 * n + 3, (p, t)
            worst = max(worst, ratio / (2 * n + 3))
    assert worst > 1 / 16


def test_chern_n4_strict_example():
    report = check_chern_n4(constant_model((2, 3, 4, 5)))
    assert report.passed
    assert report.margin("first") == pytest.approx(35.0, abs=1e-9)
    second = report.entry("second")
    assert second["rhs"] - second["lhs"] == pytest.approx(-6615.0, abs=1e-6)
    assert second["margin"] == pytest.approx(6615.0, abs=1e-6)


def test_chern_n4_ratio_example():
    p = constant_model((0.5, 1, 2, 3))
    report = check_chern_n4(p)
    assert report.passed
    assert p.d[3] / p.d[1] == pytest.approx(1.7692307692307692, abs=1e-12)
    second = report.entry("second")
    assert second["rhs"] - second["lhs"] == pytest.approx(-49.21875, abs=1e-10)
    assert 16.0 * (second["rhs"] - second["lhs"]) == pytest.approx(-787.5, abs=1e-8)


def test_chern_n4_boundary_example():
    report = check_chern_n4(constant_model((1, 1, 1, 1)))
    first = report.entry("first")
    assert not first["pass"]
    assert first["margin"] == 0.0
    assert first["boundary"]
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
    assert (entry["rhs"], entry["lhs"]) == (6.0, 66.0)
    assert report.passed

    report = check_chern_n3(constant_model((1, 1, 1)))
    assert report.entry("chern3")["lhs"] == 9.0
    assert report.entry("chern3")["rhs"] == 1.0

    report = check_chern_n3(IntersectionProfile(3, (1, 0, 0, 0)))
    assert not report.passed  # 0 < 0 fails the strict form
    assert report.entry("chern3")["boundary"]


def test_kt_chain_values():
    report = kt_chain(constant_model((1, 2, 3, 4)))
    assert report.passed
    k1 = report.entry("k1")
    assert (k1["rhs"], k1["lhs"]) == (pytest.approx(35 / 6), 6.25)
    k2 = report.entry("k2")
    assert (k2["rhs"], k2["lhs"]) == (31.25, pytest.approx((35 / 6) ** 2))
    k3 = report.entry("k3")
    assert (k3["rhs"], k3["lhs"]) == (140.0, pytest.approx(156.25))
    combined = report.entry("combined")
    assert combined["margin"] == pytest.approx(1.8666666666666663, abs=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_kt_chain_equality_at_proportional(c):
    report = kt_chain(constant_model((c, c, c, c)))
    assert report.passed
    for name in ("k1", "k2", "k3", "eqn12", "eqn23", "combined"):
        entry = report.entry(name)
        assert entry["boundary"], name
        assert abs(entry["margin"]) <= 1e-12 * max(1.0, abs(entry["lhs"]), abs(entry["rhs"]))


def test_kt_chain_omits_combined_on_zero_denominators():
    report = kt_chain(IntersectionProfile(4, (1, 0, 0, 0, 0)))
    assert "combined" not in report.entries


def test_integrated_chain_example():
    report = integrated_sigma_chain(constant_model((0.5, 1, 2, 3)))
    assert report.passed
    assert report.margin("chainA") == pytest.approx(11 / 3, abs=1e-12)
    assert report.margin("chainB") == pytest.approx(73.0, abs=1e-12)
    assert report.margin("final") == pytest.approx(787.5, abs=1e-10)
    assert report.entry("final_scaling")["boundary"]


def test_integrated_chain_ones_and_2345():
    report = integrated_sigma_chain(constant_model((1, 1, 1, 1)))
    assert report.margin("final") == pytest.approx(64.0, abs=1e-12)
    assert report.margin("chainB") == pytest.approx(16.0, abs=1e-12)
    assert report.entry("chainA")["boundary"]  # equality at proportional classes

    report = integrated_sigma_chain(constant_model((2, 3, 4, 5)))
    assert report.margin("final") == pytest.approx(105840.0, abs=1e-6)
    assert report.passed


def test_integrated_chain_scaling_invariant():
    p = IntersectionProfile(4, [37.0 * x for x in constant_model((0.5, 1, 2, 3)).d])
    report = integrated_sigma_chain(p)
    assert report.margin("final") == pytest.approx(787.5, abs=1e-9)


def test_verdicts_invariant_under_profile_scaling():
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = constant_model(rng.uniform(-3.0, 3.0, size=4))
        base = [(n, e["pass"]) for n, e in check_chern_n4(p).entries.items()]
        base += [(n, e["pass"]) for n, e in kt_chain(p).entries.items()]
        for c in (1e-4, 3.0, 1e6):
            ps = IntersectionProfile(4, [c * x for x in p.d])
            got = [(n, e["pass"]) for n, e in check_chern_n4(ps).entries.items()]
            got += [(n, e["pass"]) for n, e in kt_chain(ps).entries.items()]
            assert got == base
