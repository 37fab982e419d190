import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from dhym import (
    IntersectionProfile,
    analytic_angle_from_integrals,
    blowup_p3,
    check_chern_n4,
    constant_model,
    lagrangian_phase,
    level_set_sample,
    path_polynomials,
    winding_report,
    z_of_t,
)
from dhym.errors import DegeneratePathError, DomainError, UndefinedAngleError

TWO_PI = 2 * math.pi


def brute_force_theta(profile, n_pts=400_001):
    """Independent winding oracle: dense log-spaced sampling + np.unwrap,
    re-anchored onto the same branch as the report."""
    report = winding_report(profile, samples=17)
    re_c, im_c = path_polynomials(profile)
    ts = np.geomspace(1.0, report.t_max, n_pts)
    args = np.arctan2(npoly.polyval(ts, im_c) + 0.0, npoly.polyval(ts, re_c))
    lift = np.unwrap(args[::-1])[::-1]
    shift = TWO_PI * round((report.anchor - lift[-1]) / TWO_PI)
    return (lift[0] + shift) - report.anchor, report.theta_alg


def reference_lift(raw, anchor):
    """The per-point unwrap loop that winding_report ran before its lift
    became a cumulative sum: from t_max down to 1, each raw argument moves
    by whole turns to the one nearest the lifted argument after it."""
    lift = [0.0] * len(raw)
    prev = anchor
    for i in range(len(raw) - 1, -1, -1):
        lift[i] = raw[i] + TWO_PI * round((prev - raw[i]) / TWO_PI)
        prev = lift[i]
    return lift


def assert_lift_matches_reference(report):
    # raw arguments as winding_report computes them: math.atan2 of each
    # trace row's (im, re)
    raw = [math.atan2(im, re) for _, re, im, _ in report.trace]
    assert [row[3] for row in report.trace] == reference_lift(raw, report.anchor)
    assert report.theta_alg == report.trace[0][3] - report.anchor


def test_lift_matches_reference_loop_on_blowup_grid():
    checked = 0
    for a, b, c, e in product(range(2, 6), range(1, 5), range(-5, 6), range(-5, 6)):
        if b >= a or c == e == 0:
            continue
        try:
            report = winding_report(blowup_p3(a, b, c, e))
        except DegeneratePathError:
            continue
        assert_lift_matches_reference(report)
        checked += 1
    assert checked > 1150


_coeff = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([3, 4]),
    d0=st.floats(0.01, 50.0),
    tail=st.lists(_coeff, min_size=4, max_size=4),
    samples=st.sampled_from([2, 17, 64, 129]),
)
def test_lift_matches_reference_loop_on_random_profiles(n, d0, tail, samples):
    try:
        report = winding_report(IntersectionProfile(n, (d0, *tail[:n])), samples=samples)
    except (DegeneratePathError, DomainError):  # origin hit, or overflow on a subnormal d_k
        assume(False)
    assert_lift_matches_reference(report)


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([3, 4]),
    d0=st.floats(0.01, 50.0),
    tail=st.lists(_coeff, min_size=4, max_size=4),
    samples=st.lists(st.integers(2, 1000), min_size=1, max_size=3),
)
def test_angle_does_not_depend_on_samples(n, d0, tail, samples):
    # `dhym angle` runs the default grid; `dhym path --samples` must agree
    p = IntersectionProfile(n, (d0, *tail[:n]))

    def outcome(s):
        try:
            r = winding_report(p, s)
        except (DegeneratePathError, DomainError) as exc:
            return type(exc), str(exc)
        return r.theta_alg.hex(), r.t_star, r.t_max.hex()

    want = outcome(129)
    assert [outcome(s) for s in samples] == [want] * len(samples)


def test_winding_constant_2345():
    report = winding_report(constant_model((2, 3, 4, 5)))
    assert report.theta_alg == pytest.approx(5.05541292, abs=1e-9)
    assert report.t_star == pytest.approx(math.sqrt(11.0), abs=1e-12)
    assert report.anchor == pytest.approx(math.pi)


def test_winding_pure_volume_form():
    report = winding_report(IntersectionProfile(4, (1, 0, 0, 0, 0)))
    assert report.theta_alg == pytest.approx(0.0, abs=1e-12)
    assert report.t_star is None
    # the whole path sits on the negative real axis
    for _, re, im, arg in report.trace:
        assert re < 0.0
        assert im == 0.0
        assert arg == pytest.approx(math.pi)


def test_degenerate_path_raises_with_origin():
    with pytest.raises(DegeneratePathError) as err:
        winding_report(IntersectionProfile(4, (1, 1, 1, 4, 8)))
    assert err.value.t_origin == pytest.approx(2.0, abs=1e-9)
    assert err.value.abs_z <= err.value.threshold


def test_degenerate_pass_along_real_axis():
    # Im is identically zero and Re changes sign: the path slides through
    # the origin even though |Z| at representable points reads as O(1)
    with pytest.raises(DegeneratePathError) as err:
        winding_report(IntersectionProfile(4, (1, 0, 1e8, 0, 1)))
    s = 3e8 + math.sqrt(9e16 - 1.0)
    assert err.value.t_origin == pytest.approx(math.sqrt(s), rel=1e-12)

    with pytest.raises(DegeneratePathError):
        winding_report(IntersectionProfile(3, (1, 0, 1e7, 0)))


def test_lift_is_continuous_and_consistent():
    report = winding_report(constant_model((0.5, 1, 2, 3)))
    args = [row[3] for row in report.trace]
    # adjacent samples inside one quadrant piece: steps below pi/2
    for a, b in zip(args, args[1:]):
        assert abs(b - a) < math.pi / 2
    # the lift is a genuine argument of the path modulo 2*pi
    for t, re, im, arg in report.trace:
        raw = math.atan2(im, re)
        delta = math.fmod(arg - raw, TWO_PI)
        wrapped = min(abs(delta), abs(abs(delta) - TWO_PI))
        assert wrapped < 1e-9
    # the report ends anchored at t_max
    assert report.trace[-1][3] == pytest.approx(report.anchor, abs=math.pi / 2)


def test_lift_refinement_stability():
    p = constant_model((0.5, 1, 2, 3))
    coarse = winding_report(p, samples=64).theta_alg
    fine = winding_report(p, samples=128).theta_alg
    finer = winding_report(p, samples=257).theta_alg
    assert abs(coarse - fine) < 1e-12
    assert abs(fine - finer) < 1e-12


def test_angle_agreement_on_level_set_models():
    for i, theta in enumerate((3.2, 3.9, 4.7, 5.5, 6.1)):
        for t in level_set_sample(theta, 40, seed=50 + i):
            report = winding_report(constant_model(t))
            assert abs(report.theta_alg - lagrangian_phase(t)) < 1e-9


def test_winding_scaling_invariance():
    p = constant_model((2, 3, 4, 5))
    base = winding_report(p)
    for c in (1e-300, 1e-3, 7.0, 2e5, 1e290):
        scaled = winding_report(p.scaled(c))
        assert scaled.theta_alg == pytest.approx(base.theta_alg, abs=1e-12)
        assert scaled.t_star == pytest.approx(base.t_star, abs=1e-12)


def test_tstar_sign_matches_second_inequality():
    for theta, seed in ((3.3, 60), (4.9, 61)):
        for t in level_set_sample(theta, 50, seed=seed):
            p = constant_model(t)
            report = winding_report(p)
            assert report.t_star is not None
            re_at_star = z_of_t(p, report.t_star).real
            margin = check_chern_n4(p).margin("second")
            assert math.copysign(1.0, re_at_star) == math.copysign(1.0, margin)


def test_tstar_absent_without_crossing():
    # negative d3: no positive Im-zero, hence no candidate crossing
    report = winding_report(IntersectionProfile(4, (1.0, 0.5, 0.1, -0.4, 0.2)))
    assert report.t_star is None


def test_tstar_with_negative_d1_and_d3():
    # Im Z = t (d3 - d1 t^2) / 6 vanishes at t = sqrt(d3 / d1) = 2 for any
    # common sign of d1 and d3; here Z(2) = -0.6875 sits on the real axis
    p = IntersectionProfile(4, (1, -1, 0, -4, 0.5))
    assert z_of_t(p, 2.0) == -0.6875
    assert winding_report(p).t_star == 2.0


def test_winding_n3_constant_models():
    report = winding_report(constant_model((1, 2, 3)))
    assert report.theta_alg == pytest.approx(math.pi, abs=1e-12)
    assert report.anchor == pytest.approx(1.5 * math.pi)
    for lam in ((0.5, 0.8, 5.0), (-0.3, 1.4, 2.0)):
        rep = winding_report(constant_model(lam))
        assert rep.theta_alg == pytest.approx(lagrangian_phase(lam), abs=1e-9)


def test_winding_matches_dense_unwrap_oracle():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 12:
        n = 4 if checked % 2 == 0 else 3
        d = rng.uniform(-5.0, 5.0, size=n + 1)
        d[0] = abs(d[0]) + 0.1
        try:
            brute, mine = brute_force_theta(IntersectionProfile(n, tuple(d)))
        except DegeneratePathError:
            continue
        assert abs(brute - mine) < 1e-7  # oracle limited by its grid density
        checked += 1


def test_winding_covers_far_crossings():
    # Im root at sqrt(d3/d1) = 31623 dwarfs the coefficient-based bound;
    # t_max must still clear it or the anchor quadrant is wrong
    p = IntersectionProfile(4, (1.0, 1e-9, 0.0, 1.0, 0.0))
    report = winding_report(p)
    assert report.t_max > math.sqrt(1e9)
    brute, mine = brute_force_theta(p, n_pts=4_000_001)
    assert abs(brute - mine) < 1e-7


def test_winding_rejects_other_dimensions():
    with pytest.raises(DomainError):
        winding_report(IntersectionProfile(2, (1.0, 0.0, 0.0)))


def test_winding_rejects_overflowing_paths():
    # a subnormal d_1 puts the Im root, and so t_max, beyond 1e153, where
    # t^n overflows; d_1 = 1e200 overflows Z at t_max ~ 1e67
    tiny = 2.2250738585072014e-308
    for d in ((1.0, tiny, 0.0, 4.0, 0.0), (1.0, tiny, 0.0, 1.0), (1.0, 1e200, 1.0, 1.0, 1.0)):
        with pytest.raises(DomainError, match="overflows"):
            winding_report(IntersectionProfile(len(d) - 1, d))


def test_winding_report_dict():
    d = winding_report(constant_model((2, 3, 4, 5))).to_dict()
    assert set(d) == {"n", "theta_alg", "t_star", "t_max", "anchor", "arg_lift"}
    assert len(d["arg_lift"]) >= 129


def test_analytic_angle_examples():
    assert analytic_angle_from_integrals(constant_model((1, 1, 1, 1))) == pytest.approx(
        math.pi, abs=1e-12
    )
    assert analytic_angle_from_integrals(constant_model((0.5, 1, 2, 3))) == pytest.approx(
        3.60525, abs=1e-5
    )
    assert analytic_angle_from_integrals(constant_model((2, 3, 4, 5))) == pytest.approx(
        5.05541292, abs=1e-8
    )


def test_analytic_angle_matches_minus_z1():
    rng = np.random.default_rng(70)
    for _ in range(50):
        p = constant_model(rng.uniform(-3.0, 3.0, size=4))
        try:
            angle = analytic_angle_from_integrals(p)
        except UndefinedAngleError:
            continue
        want = math.atan2(-z_of_t(p, 1.0).imag, -z_of_t(p, 1.0).real) % TWO_PI
        assert angle % TWO_PI == pytest.approx(want, abs=1e-9)


def test_analytic_angle_lift_window():
    # positive real axis maps to 2*pi, not 0: the window is (0, 2*pi]
    assert analytic_angle_from_integrals(constant_model((0, 0, 0, 0))) == pytest.approx(
        TWO_PI
    )


def test_analytic_angle_undefined_at_vanishing_charge():
    with pytest.raises(UndefinedAngleError):
        analytic_angle_from_integrals(IntersectionProfile(4, (1, 1, 1, 1, 5)))
