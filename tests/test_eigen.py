import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dhym import (
    Branch,
    EigenTuple,
    branch_check,
    branch_for_phase,
    factorization_identity,
    gamma_cone,
    lagrangian_phase,
    phase_components,
    sigma,
)
from dhym.eigen import (
    ROW_BLOCK,
    SORT_NETWORKS,
    _atan,
    _atan_rows,
    branch_blocks,
    phase_rows,
    sigma_rows,
    sort_rows,
)
from dhym.errors import DomainError, PhaseOutsideBranchError
from dhym.models import constant_model_rows
from dhym.sampling import ANGLE_EPS, sample_level_set_batch
from dhym.suites import _product_rows

from conftest import sigma_enumeration

reals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
tuples4 = st.lists(reals, min_size=4, max_size=4)


def test_eigen_tuple_sorts_on_construction():
    t = EigenTuple((3.0, -1.0, 2.0, 0.5))
    assert t.values == (-1.0, 0.5, 2.0, 3.0)
    assert t.n == 4


def test_eigen_tuple_rejects_non_finite():
    with pytest.raises(DomainError):
        EigenTuple((1.0, math.inf, 0.0, 0.0))
    with pytest.raises(DomainError):
        EigenTuple((math.nan,))
    with pytest.raises(DomainError):
        EigenTuple(())


def test_sigma_examples():
    assert sigma((1, 1, 1, 1), 2) == 6.0
    assert sigma((1, 2, 3, 4), 3) == 50.0
    assert sigma((0.5, 1, 2, 3), 1) == 6.5
    assert sigma((5, 6, 7), 0) == 1.0


def test_sigma_out_of_range():
    with pytest.raises(DomainError):
        sigma((1, 2, 3, 4), 5)
    with pytest.raises(DomainError):
        sigma((1, 2, 3, 4), -1)


@given(st.lists(reals, min_size=1, max_size=6))
def test_sigma_matches_subset_enumeration(vals):
    e = sigma_rows([sorted(vals)])[0]
    for k in range(len(vals) + 1):
        assert sigma(vals, k) == e[k]  # the scalar form is one row of sigma_rows
        want = sigma_enumeration(sorted(vals), k)
        scale = max(1.0, abs(want))
        assert abs(e[k] - want) <= 1e-10 * scale


@given(tuples4, reals)
def test_vieta_expansion(vals, x):
    t = EigenTuple(tuple(vals))
    e = sigma_rows([t.values])[0]
    lhs = math.prod(x + v for v in t.values)
    rhs = sum(e[k] * x ** (4 - k) for k in range(5))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_phase_examples():
    assert lagrangian_phase((1, 1, 1, 1)) == pytest.approx(math.pi, abs=1e-15)
    assert lagrangian_phase((0, 0, 0, 0)) == 0.0
    # arctan 2 + arctan 3 = 3*pi/4 exactly, so the value is 3*pi/4 + arctan 4 + arctan 5
    assert lagrangian_phase((2, 3, 4, 5)) == pytest.approx(5.05541292, abs=1e-8)


@given(tuples4)
def test_phase_permutation_invariant(vals):
    rev = lagrangian_phase(tuple(reversed(vals)))
    assert lagrangian_phase(tuple(vals)) == rev  # sorting normalises the sum order


@given(tuples4)
def test_phase_monotone_in_each_entry(vals):
    base = lagrangian_phase(vals)
    for i in range(4):
        bumped = list(vals)
        bumped[i] += 0.25
        assert lagrangian_phase(bumped) > base


@given(st.lists(reals, min_size=1, max_size=6))
def test_phase_range_bound(vals):
    n = len(vals)
    assert abs(lagrangian_phase(vals)) < n * math.pi / 2


def test_phase_components_examples():
    assert phase_components((1, 1, 1, 1)) == (-4.0, 0.0)
    assert phase_components((0.5, 1, 2, 3)) == (-10.0, -5.0)
    assert phase_components((0, 0, 0, 0)) == (1.0, 0.0)


@given(tuples4)
def test_phase_components_match_complex_product(vals):
    re, im = phase_components(vals)
    prod = 1 + 0j
    for v in sorted(vals):
        prod *= 1 + 1j * v
    scale = max(1.0, abs(prod), math.hypot(re, im))
    assert abs(complex(re, im) - prod) <= 1e-12 * scale


@given(tuples4)
def test_phase_components_argument_is_phase_mod_2pi(vals):
    re, im = phase_components(vals)
    if math.hypot(re, im) < 1e-12:
        return
    delta = math.atan2(im, re) - lagrangian_phase(vals)
    delta = math.fmod(delta, 2 * math.pi)
    wrapped = min(abs(delta), abs(abs(delta) - 2 * math.pi))
    assert wrapped < 1e-9


def test_gamma_cone_examples():
    assert gamma_cone((-0.2, 1, 2, 3)) == 3
    assert gamma_cone((1, 1, 1, 1)) == 4
    assert gamma_cone((-1, -1, -1, -1)) == 0


def test_factorization_examples():
    assert factorization_identity((1, 1, 1, 1)) == (-16.0, -16.0)
    assert factorization_identity((0, 1, 2, 3)) == (-42.0, -42.0)
    assert factorization_identity((-0.5, 1, 2, 3)) == (-27.0, -27.0)


def test_factorization_needs_four():
    with pytest.raises(DomainError):
        factorization_identity((1, 2, 3))


@given(tuples4)
def test_factorization_is_an_identity(vals):
    lhs, rhs = factorization_identity(vals)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


@given(tuples4)
def test_newton_log_concavity(vals):
    # p_{k-1} p_{k+1} <= p_k^2 holds for every real tuple
    e = sigma_rows([sorted(vals)])[0]
    p = [e[k] / math.comb(4, k) for k in range(5)]
    for k in (1, 2, 3):
        lhs = p[k - 1] * p[k + 1]
        rhs = p[k] ** 2
        assert lhs <= rhs + 1e-12 * max(1.0, abs(lhs), rhs)


def test_branch_supercritical_example():
    report = branch_check((2, 3, 4, 5), Branch.SUPERCRITICAL)
    assert report.passed
    assert report.entry("min_pair_product")["lhs"] == 6.0
    assert report.margin("min_pair_product") == 5.0


def test_branch_mid_example():
    report = branch_check((0.5, 1, 2, 3), Branch.MID)
    assert report.passed
    assert report.margin("sigma3_minus_sigma1") == pytest.approx(5.0, abs=1e-12)
    assert report.margin("sigma2_minus_sigma4_minus_1") == pytest.approx(10.0, abs=1e-12)
    assert report.margin("sigma2_minus_2") == pytest.approx(12.0, abs=1e-12)


def test_branch_precondition_names_phase():
    with pytest.raises(PhaseOutsideBranchError) as err:
        branch_check((-0.2, 1, 2, 3), Branch.MID)
    assert "2.944" in str(err.value)
    assert err.value.phase == pytest.approx(2.9441970937399122, abs=1e-12)


def test_branch_blocks_names_first_row_outside_its_branch():
    # targets 5.0 and 5.5 are SUPERCRITICAL, 4.0 is MID; rows 2 and 3 miss
    lam = np.zeros((4, 4))
    thetas = np.array([5.0, 4.0, 4.0, 5.5])
    phase = np.array([5.0, 4.0, 4.9, 3.0])
    with pytest.raises(PhaseOutsideBranchError) as err:
        branch_blocks(lam, sigma_rows(lam), thetas, phase)
    assert err.value.phase == 4.9
    assert err.value.branch is Branch.MID


def test_branch_full_and_n3():
    report = branch_check((0.5, 1, 2, 3), Branch.FULL)
    assert report.passed
    assert "sigma2_minus_sigma4_minus_1" not in report.entries
    report3 = branch_check((1, 2, 3), Branch.N3)  # phase is exactly pi
    assert report3.passed
    assert report3.margin("sigma2_minus_1") == pytest.approx(10.0)


def test_branch_dimension_mismatch():
    with pytest.raises(DomainError):
        branch_check((1, 2, 3), Branch.MID)
    with pytest.raises(DomainError):
        branch_check((1, 1, 1, 1), Branch.N3)


def test_branch_for_phase_dispatch():
    assert branch_for_phase(5.1) is Branch.SUPERCRITICAL
    assert branch_for_phase(3.3) is Branch.MID
    assert branch_for_phase(1.5 * math.pi) is Branch.FULL
    assert branch_for_phase(math.pi, n=3) is Branch.N3
    with pytest.raises(DomainError):
        branch_for_phase(0.5)
    for n in (5, 2):
        with pytest.raises(DomainError, match=f"n={n}"):
            branch_for_phase(5.0, n=n)


def test_branch_for_phase_n3_outside_window():
    # the 3-fold window (pi/2, 3*pi/2) is open
    for theta in (0.5 * math.pi, 1.5 * math.pi, 0.1, 5.0, math.nan):
        with pytest.raises(DomainError, match="outside the 3-fold window"):
            branch_for_phase(theta, n=3)


def test_branch_endpoints_fixed_by_kind():
    assert Branch.SUPERCRITICAL.value == (1.5 * math.pi, 2 * math.pi)
    assert Branch.MID.value == (math.pi, 1.5 * math.pi)
    assert Branch.FULL.value == (math.pi, 2 * math.pi)
    assert Branch.N3.value == (0.5 * math.pi, 1.5 * math.pi)


# -- the compare-exchange row sort and the product recurrence -----------------

#: doubles that stress a comparison: ties, subnormals, extremes, infinities
SORT_POOL = [1.0, -1.0, 5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308, -math.inf, math.inf]
sort_values = st.floats(allow_nan=False) | st.sampled_from(SORT_POOL)
#: row counts on both sides of every block edge sort_rows crosses
SORT_LENGTHS = st.sampled_from([ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 5])


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


#: row layouts sort_rows must handle: row-major, column-major, and rows
#: 2..m+1 of a NaN-padded column-major block (contiguous columns, yet not
#: F-contiguous as a whole)
SORT_LAYOUTS = ("C", "F", "F rows")


def _in_layout(lam, layout):
    """lam copied into the layout, and the array that holds it."""
    if layout == "C":
        return lam.copy(), None
    if layout == "F":
        return np.asfortranarray(lam), None
    padded = np.asfortranarray(np.pad(lam, ((2, 1), (0, 0)), constant_values=np.nan))
    return padded[2:-1], padded


@given(
    st.sampled_from(sorted(SORT_NETWORKS)).flatmap(
        lambda n: st.lists(st.lists(sort_values, min_size=n, max_size=n), min_size=1, max_size=40)
    ),
    st.sampled_from([0.0, -0.0]),
    st.integers(min_value=1, max_value=60) | SORT_LENGTHS,
    st.sampled_from(SORT_LAYOUTS),
)
def test_sort_rows_bit_equal_to_np_sort(rows, zero, m, layout):
    # the precondition: no NaN, and the zeros of a row share one sign
    rows = np.array([[zero if v == 0.0 else v for v in row] for row in rows])
    drawn = np.resize(rows, (m, rows.shape[1]))
    want = np.sort(drawn, axis=1)
    lam, padded = _in_layout(drawn, layout)
    got = sort_rows(lam)
    assert got is lam
    assert np.array_equal(_bits(got), _bits(want))
    if padded is not None:  # the rows around the slice are untouched
        assert np.isnan(padded[:2]).all() and np.isnan(padded[-1]).all()


def test_sigma_rows_are_column_major():
    lam = np.sort(np.random.default_rng(3).uniform(-10.0, 10.0, size=(ROW_BLOCK + 3, 4)), axis=1)
    e = sigma_rows(lam)
    assert e.flags.f_contiguous and e.shape == (ROW_BLOCK + 3, 5)
    assert constant_model_rows(e).flags.f_contiguous  # inherited by broadcasting
    assert np.array_equal(_bits(sigma_rows(np.asfortranarray(lam))), _bits(e))


def reference_sigma_rows(lam):
    """sigma_rows with every step e_k += v * e_{k-1}, k = 1 included."""
    lam = np.asarray(lam, dtype=float)
    m, n = lam.shape
    e = np.zeros((m, n + 1), order="F")
    e[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            v = lam[:, j]
            for k in range(min(j + 1, n), 0, -1):
                e[:, k] += v * e[:, k - 1]
    return e


#: entries whose products and sums reach every special double
SIGMA_EDGES = (
    0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, 3.0,
)


def test_sigma_rows_bit_equal_to_reference_recurrence():
    # every 4-row of the edge values (12**4 rows), then random blocks held
    # row-major and column-major: NaN in the same places, every other bit
    # equal, signed zeros included
    grid = np.array(list(itertools.product(SIGMA_EDGES, repeat=4)))
    rng = np.random.default_rng(12)
    blocks = [grid]
    for width in (3, 4):
        lam = rng.standard_normal((ROW_BLOCK + 5, width)) * 10.0 ** rng.integers(-3, 5, width)
        blocks += [np.ascontiguousarray(lam), np.asfortranarray(lam)]
    for lam in blocks:
        got, want = sigma_rows(lam), reference_sigma_rows(lam)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])
    assert grid.shape == (20736, 4) and np.isnan(sigma_rows(grid)).any()


def test_phase_rows_bit_equal_on_either_layout():
    # row by row against the scalar fold, on sorted rows of widths 3 and 4
    # held row-major, column-major, as rows of a larger F block, and as
    # every other row of a C block
    rng = np.random.default_rng(4)
    for width in (3, 4):
        scale = 10.0 ** rng.integers(-3, 5, size=(1001, width))
        lam = np.sort(rng.standard_normal((1001, width)) * scale, axis=1)
        want = np.array([lagrangian_phase(row) for row in lam.tolist()])
        held = [_in_layout(lam, layout)[0] for layout in ("C", "F", "F rows")]
        held.append(np.repeat(lam, 2, axis=0)[::2])
        for got in map(phase_rows, held):
            assert np.array_equal(_bits(got), _bits(want))


def test_sort_rows_mixed_zeros_value_equal():
    lam = np.array([[0.0, -0.0, -1.0, 0.0], [-0.0, 0.0, 2.0, -0.0], [0.0, -0.0, 0.0, -0.0]])
    want = np.sort(lam, axis=1)
    got = sort_rows(lam.copy())
    # -0.0 == 0.0: value-equal, though min and max may change a zero's sign
    assert np.array_equal(got, want)


@given(
    st.lists(
        st.lists(st.floats(min_value=-1e75, max_value=1e75), min_size=4, max_size=4),
        min_size=1,
        max_size=30,
    )
)
def test_product_recurrence_bit_equal_to_complex_prod(rows):
    # +0.0 for -0.0: the suites' uniform draws hold no -0.0, and a -0.0 can
    # change only the sign of a zero in the recurrence's result
    lam = np.array(rows) + 0.0
    want = np.prod(1.0 + 1j * lam, axis=1)
    re, im = _product_rows(lam)
    assert np.array_equal(_bits(re), _bits(want.real))
    assert np.array_equal(_bits(im), _bits(want.imag))


def _ulps_around(x, n):
    """The 2n+1 doubles from n ulp below x to n ulp above it."""
    below, above, v, w = [], [], x, x
    for _ in range(n):
        v, w = math.nextafter(v, -math.inf), math.nextafter(w, math.inf)
        below.append(v)
        above.append(w)
    return below[::-1] + [x] + above


def _atan_points():
    """Arguments for the arctan kernel: log-uniform magnitudes in 1e-8..1e8
    of both signs, level-set eigenvalues across the window, the tangents of
    the sampler's extreme angles, 64 ulp either side of both reduction
    bounds, subnormals and both zeros."""
    rng = np.random.default_rng(28)
    wide = rng.choice([-1.0, 1.0], 14000) * 10.0 ** rng.uniform(-8.0, 8.0, 14000)
    thetas = rng.uniform(math.pi + 0.01, 2.0 * math.pi - 0.01, 1500)
    level = sample_level_set_batch(thetas, seed=rng).ravel()
    edge = math.tan(0.5 * math.pi - ANGLE_EPS)
    bounds = [v for x in (0.66, math.tan(3.0 * math.pi / 8.0)) for v in _ulps_around(x, 64)]
    tiny = [5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0]
    special = [*_ulps_around(edge, 8), *bounds, *tiny]
    special += [-v for v in special]
    return np.concatenate([wide, level, special])


def test_atan_within_one_ulp_of_mpmath():
    ctx = mpmath.MPContext()
    ctx.dps = 50
    x = _atan_points()
    assert x.size >= 20000
    got = _atan_rows(x)
    worst = 0.0
    for xi, yi in zip(x.tolist(), got.tolist()):
        exact = ctx.atan(ctx.mpf(xi))
        if exact == 0:
            assert yi == 0.0 and math.copysign(1.0, yi) == math.copysign(1.0, xi)
            continue
        worst = max(worst, float(abs(ctx.mpf(yi) - exact) / math.ulp(float(exact))))
    assert worst <= 1.0


def test_atan_scalar_and_row_forms_bit_equal():
    x = _atan_points()
    want = np.array([_atan(v) for v in x.tolist()])
    assert np.array_equal(_bits(_atan_rows(x)), _bits(want))
    # the row form runs on any layout and keeps the shape
    block = np.asfortranarray(x[:20000].reshape(5000, 4))
    assert np.array_equal(_bits(_atan_rows(block)), _bits(want[:20000].reshape(5000, 4)))


def test_atan_special_values():
    x = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for got in ([_atan(v) for v in x], _atan_rows(np.array(x)).tolist()):
        zero, negative_zero, up, down, nan = got
        assert (zero, math.copysign(1.0, zero)) == (0.0, 1.0)
        assert (negative_zero, math.copysign(1.0, negative_zero)) == (0.0, -1.0)
        assert (up, down) == (math.atan(math.inf), math.atan(-math.inf)) == (
            0.5 * math.pi,
            -0.5 * math.pi,
        )
        assert math.isnan(nan)


def test_atan_raises_no_warning():
    x = np.concatenate([_atan_points(), [math.inf, -math.inf, math.nan, 1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _atan_rows(x)
        _atan_rows(x.reshape(-1, 1))
        for v in x[-5:].tolist():
            _atan(v)
