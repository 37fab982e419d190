"""The margin table and the row forms against the scalar arithmetic they
replaced.

The reference functions below are the per-tuple entry lists, the loop
reduction and the scalar identity and model bodies that the scalar API and
the suites used before the table and the row forms existed, in plain
Python floats.  Every kernel row, and every scalar call, must equal them
bit for bit: names, lhs, rhs, margin, pass and boundary of each entry, and
every float of an identity or a profile.
"""

import math
import sys
import warnings
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dhym import (
    Branch,
    IntersectionProfile,
    analytic_angle_from_integrals,
    branch_check,
    check_chern_n3,
    check_chern_n4,
    compare,
    constant_model,
    factorization_identity,
    integrated_sigma_chain,
    kt_chain,
    lagrangian_phase,
    phase_components,
    weighted_model,
)
from dhym import eigen
from dhym.eigen import (
    _FOUR_FOLD,
    as_eigen,
    branch_blocks,
    factorization_rows,
    phase_component_rows,
    phase_rows,
    sigma_rows,
)
from dhym.errors import PhaseOutsideBranchError, UndefinedAngleError
from dhym.models import constant_model_rows
from dhym.reports import (
    FAILURE_CAP,
    MARGINS,
    Margin,
    Margins,
    Tally,
    _tol,
    compare_rows,
    evaluate,
)
from dhym.sampling import sample_level_set_batch

from conftest import ReferenceTally

REL = 1e-12
#: the band of a side at the largest double: an infinite side's band
BAND_CAP = REL * sys.float_info.max


def ref_compare(name, lhs, rhs, relation=">"):
    margin = lhs - rhs
    tol = min(REL * max(abs(lhs), abs(rhs)), BAND_CAP)
    boundary = abs(margin) <= tol
    passed = {">": margin > 0.0, ">=": margin >= -tol, "==": boundary}[relation]
    return (name, lhs, rhs, margin, passed, boundary)


def ref_sigma(vals):
    n = len(vals)
    e = [1.0] + [0.0] * n
    for j, v in enumerate(vals, start=1):
        for k in range(min(j, n), 0, -1):
            e[k] += v * e[k - 1]
    return e


def ref_branch(vals, branch):
    e = ref_sigma(vals)
    if branch is Branch.N3:
        return [
            ref_compare("sigma1", e[1], 0.0),
            ref_compare("sigma2", e[2], 0.0),
            ref_compare("sigma2_minus_1", e[2], 1.0),
        ]
    if branch is Branch.SUPERCRITICAL:
        return [
            ref_compare("min_eigenvalue", min(vals), 0.0),
            ref_compare("min_pair_product", min(a * b for a, b in combinations(vals, 2)), 1.0),
            ref_compare("sigma3_minus_sigma1", e[3], e[1]),
        ]
    l1, l2, l3, l4 = vals
    out = [
        ref_compare("sigma1", e[1], 0.0),
        ref_compare("sigma2", e[2], 0.0),
        ref_compare("sigma3", e[3], 0.0),
        ref_compare("sigma3_minus_sigma1", e[3], e[1]),
        ref_compare("sigma2_minus_sigma4_minus_1", e[2], e[4] + 1.0),
        ref_compare("sigma2_minus_2", e[2], 2.0),
        ref_compare("lambda2_lambda4", l2 * l4, 1.0),
        ref_compare("lambda3_lambda4", l3 * l4, 1.0),
    ]
    if branch is Branch.FULL:
        out.pop(4)
    return out


def ref_chern_n4(d):
    sym = d[0] * (d[3] * d[3]) + d[1] * d[1] * d[4]
    return [
        ref_compare("first", d[3], d[1]),
        ref_compare("second", 6.0 * d[1] * d[2] * d[3], sym),
        ref_compare("kahler2", 2.0 * d[1] * d[2] * d[3], sym, ">="),
    ]


def ref_chern_n3(d):
    return [ref_compare("chern3", 9.0 * d[1] * d[2], d[0] * d[3])]


def ref_kt(d):
    out = [ref_compare(f"k{k}", d[k] * d[k], d[k - 1] * d[k + 1], ">=") for k in (1, 2, 3)]
    out.append(ref_compare("eqn12", d[1] * d[2], d[0] * d[3], ">="))
    out.append(ref_compare("eqn23", d[2] * d[3], d[1] * d[4], ">="))
    if d[1] != 0.0 and d[3] != 0.0:
        out.append(
            ref_compare("combined", 2.0 * d[2], d[0] * d[3] / d[1] + d[1] * d[4] / d[3], ">=")
        )
    return out


def ref_integrated_sigma_chain(d):
    dn = d if d[0] == 1.0 else [x / d[0] for x in d]
    s1, s2, s3, s4 = (math.comb(4, k) * dn[k] for k in (1, 2, 3, 4))
    quad = dn[3] * dn[3] + dn[1] * dn[1] * dn[4] - 6.0 * dn[1] * dn[2] * dn[3]
    return [
        ref_compare("chainA", s1 * s2 / 6.0, s3, ">="),
        ref_compare("chainB", s1 * s2, s1 + s3),
        ref_compare("final", s1 * s2 * s3, s3 * s3 + s1 * s1 * s4),
        ref_compare("final_scaling", s3 * s3 - s1 * s2 * s3 + s1 * s1 * s4, 16.0 * quad, "=="),
    ]


def ref_phase_components(vals):
    e = ref_sigma(sorted(vals))
    re = sum(e[k] if k % 4 == 0 else -e[k] for k in range(0, len(e), 2))
    im = sum(e[k] if k % 4 == 1 else -e[k] for k in range(1, len(e), 2))
    return re, im


def ref_factorization(vals):
    l1, l2, l3, l4 = sorted(vals)
    e = ref_sigma([l1, l2, l3, l4])
    lhs = e[3] - e[1] * (e[2] - l2 * l4)
    rhs = (
        -(l2 + l3 + l4) * (l1 + l3) * (l1 + l2)
        - l3 * l4 * (l1 + l3)
        - l4 * l4 * (l1 + l3)
    )
    return lhs, rhs


def ref_constant_model(vals):
    e = ref_sigma(sorted(vals))
    return [e[k] / math.comb(len(vals), k) for k in range(len(e))]


def ref_weighted_model(points):
    n = len(points[0][1])
    d = [0.0] * (n + 1)
    for w, vals in points:
        e = ref_sigma(sorted(vals))
        for k in range(n + 1):
            d[k] += w * e[k] / math.comb(n, k)
    return d


def ref_analytic_angle(n, d):
    """The angle, or None where it is undefined."""
    w = sum(math.comb(n, k) * d[k] * (1j**k) for k in range(n + 1)) / d[0]
    if abs(w) <= 1e-10 * max(abs(x) for x in d) / d[0]:
        return None
    ang = math.atan2(w.imag, w.real)
    return ang + 2 * math.pi if ang <= 0.0 else ang


def hexes(xs):
    return [float(x).hex() for x in xs]


def bits(rows):
    """Entries with every float as its hex form, so -0.0 != 0.0."""
    return [
        tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows
    ]


def report_rows(report):
    return bits(
        (name, e["lhs"], e["rhs"], e["margin"], e["pass"], e["boundary"])
        for name, e in report.entries.items()
    )


def kernel_rows(margins, i):
    return report_rows(margins.report(i))


angles = st.floats(min_value=-1.5, max_value=1.5605)
tuples4 = st.lists(st.lists(angles, min_size=4, max_size=4), min_size=1, max_size=12)
tuples3 = st.lists(st.lists(angles, min_size=3, max_size=3), min_size=1, max_size=12)


def _branch_agreement(angle_rows, branches):
    batch = [as_eigen(np.tan(u).tolist()).values for u in angle_rows]
    for branch in branches:
        inside = [t for t in batch if branch.contains(lagrangian_phase(t))]
        for t in batch:
            if t not in inside:
                with pytest.raises(PhaseOutsideBranchError) as err:
                    branch_check(t, branch)
                assert err.value.phase == lagrangian_phase(t)
        if not inside:
            continue
        lam = np.array(inside)
        kernel = evaluate(f"branch_{branch.name.lower()}", lam, sigma_rows(lam))
        for i, t in enumerate(inside):
            want = bits(ref_branch(list(t), branch))
            assert kernel_rows(kernel, i) == want
            assert report_rows(branch_check(t, branch)) == want


@settings(max_examples=200, deadline=None)
@given(tuples4)
def test_branch_kernel_rows_match_scalar_reference(angle_rows):
    _branch_agreement(angle_rows, (Branch.SUPERCRITICAL, Branch.MID, Branch.FULL))


@settings(max_examples=100, deadline=None)
@given(tuples3)
def test_branch_n3_kernel_rows_match_scalar_reference(angle_rows):
    _branch_agreement(angle_rows, (Branch.N3,))


def test_full_is_mid_without_the_half_window_fact():
    mid = branch_check((0.5, 1, 2, 3), Branch.MID)
    full = branch_check((0.5, 1, 2, 3), Branch.FULL)
    kept = [(n, e) for n, e in mid.entries.items() if n != "sigma2_minus_sigma4_minus_1"]
    assert list(full.entries.items()) == kept
    assert len(kept) == len(mid.entries) - 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=12, max_size=20))
def test_phase_rows_match_lagrangian_phase(vals):
    lam = np.array(vals[: len(vals) // 4 * 4]).reshape(-1, 4)
    got = phase_rows(np.sort(lam, axis=1)).tolist()
    assert [x.hex() for x in got] == [lagrangian_phase(row).hex() for row in lam]


coord = st.one_of(st.just(0.0), st.just(-0.0), st.floats(min_value=-1e6, max_value=1e6))
profiles4 = st.lists(
    st.tuples(st.floats(min_value=1e-3, max_value=1e3), *[coord] * 4), min_size=1, max_size=10
)
profiles3 = st.lists(
    st.tuples(st.floats(min_value=1e-3, max_value=1e3), *[coord] * 3), min_size=1, max_size=10
)


@settings(max_examples=200, deadline=None)
@given(profiles4)
def test_chern_n4_and_kt_rows_match_scalar_reference(rows):
    d = np.array(rows)
    chern, kt = evaluate("chern_n4", d), evaluate("kt_chain", d)
    for i, row in enumerate(rows):
        p = IntersectionProfile(4, row)
        assert kernel_rows(chern, i) == report_rows(check_chern_n4(p)) == bits(ref_chern_n4(row))
        assert kernel_rows(kt, i) == report_rows(kt_chain(p)) == bits(ref_kt(row))
        assert ("combined" in kt_chain(p).entries) == (row[1] != 0.0 and row[3] != 0.0)


@settings(max_examples=100, deadline=None)
@given(profiles3)
def test_chern_n3_rows_match_scalar_reference(rows):
    chern = evaluate("chern_n3", np.array(rows))
    for i, row in enumerate(rows):
        scalar = report_rows(check_chern_n3(IntersectionProfile(3, row)))
        assert kernel_rows(chern, i) == scalar == bits(ref_chern_n3(row))


def test_compare_relations():
    assert compare("x", 2.0, 1.0)["pass"]
    assert not compare("x", 1.0, 1.0)["pass"] and compare("x", 1.0, 1.0)["boundary"]
    assert compare("x", 1.0, 1.0 + 1e-13, ">=")["pass"]
    assert compare("x", 1.0, 1.0 + 1e-13, "==")["pass"]
    assert not compare("x", 1.0, 1.1, "==")["pass"]
    with pytest.raises(ValueError):
        compare("x", 1.0, 0.0, "<")


@pytest.mark.parametrize(
    "entry",
    [
        lambda: compare("x", 1.0, math.inf, ">="),
        lambda: compare("x", math.inf, 1.0, "=="),
        lambda: kt_chain(IntersectionProfile(4, (1, 1e200, 1, 1e200, 1))).entry("k2"),
    ],
    ids=["ge_infinite_rhs", "eq_infinite_lhs", "kt_k2_rhs_overflows"],
)
def test_an_infinite_side_gets_a_finite_band(entry):
    # REL times an infinite side would be a band that holds every margin
    e = entry()
    assert math.inf in (abs(e["lhs"]), abs(e["rhs"]))
    assert not e["pass"] and not e["boundary"]


@pytest.mark.parametrize("relation", [">", ">=", "=="])
@pytest.mark.parametrize(
    "lhs, rhs",
    [(math.inf, math.inf), (-math.inf, -math.inf), (math.nan, 1.0), (1.0, math.nan)],
    ids=["inf_inf", "neg_inf_neg_inf", "nan_lhs", "nan_rhs"],
)
def test_compare_is_as_silent_as_evaluate(relation, lhs, rhs):
    # inf - inf is NaN: no warning, and a NaN margin passes no relation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = compare("x", lhs, rhs, relation)
    assert math.isnan(e["margin"]) and not e["pass"] and not e["boundary"]
    assert bits([(e["lhs"], e["rhs"])]) == bits([(lhs, rhs)])


def test_ge_column_passes_the_band_below_zero():
    """A >= column with a row that is not >= 0 falls back to the band: rows
    in [-tol, 0) pass, rows below -tol and NaN rows fail.  Beside it, a >=
    column with every row >= 0, an == column and a > column."""
    one = np.ones(6)
    rhs = np.array([0.5, 1.0, 1.0 + 2.0**-44, 1.0 + 2.0**-38, 1.0, 1.0])
    lhs = np.array([1.0, 1.0, 1.0, 1.0, math.nan, -0.0])
    entries = [
        Margin("band", lhs, rhs, ">="),
        Margin("above", one, one * 0.5, ">="),
        Margin("equal", lhs, rhs, "=="),
        Margin("strict", lhs, 1.0, ">"),
    ]
    mg = compare_rows("x", entries)
    assert mg.passed[:, 0].tolist() == [True, True, True, False, False, False]
    assert mg.passed[:, 1].all() and mg.present.all()
    assert mg.passed[:, 2].tolist() == [False, True, True, False, False, False]
    assert not mg.passed[:, 3].any()
    for i in range(6):
        sides = [(e.lhs[i], e.rhs[i] if np.ndim(e.rhs) else e.rhs) for e in entries]
        want = [ref_compare(e.name, *side, e.relation) for e, side in zip(entries, sides)]
        assert report_rows(mg.report(i)) == bits(want)
    # every entry present: the fold's fast path, against the full scan
    rows = np.arange(10, 16)
    fold, ref = Tally(), ReferenceTally()
    fold.add([(rows, mg)], [("flag", rows[1:2])])
    ref.add([(rows, reference_compare_rows("x", entries))], [("flag", rows[1:2])])
    assert repr((fold.mins, fold.failures)) == repr((ref.mins, ref.failures))
    assert [key for _, key, _ in fold.failures].count("x.band") == 3
    # long columns over mixed signs, signed zeros, NaN, infinite sides and
    # near-ties either side of the band, against a column or a constant:
    # the margins' bytes, and the band's verdicts taken on every row
    rng = np.random.default_rng(35)
    pool = np.array(
        [0.0, -0.0, 1.0, -1.0, 1.0 + 2.0**-44, 1.0 - 2.0**-44, 1.0 + 2.0**-38, 1.0 - 2.0**-38]
        + [math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
    )

    def side():
        return np.concatenate([rng.choice(pool, 4000), rng.normal(size=4000)])

    lhs = side()
    for rhs in (side(), 1.0):
        with np.errstate(all="ignore"):
            mg = compare_rows("x", [Margin("ge", lhs, rhs, ">=")])
            margin = lhs - rhs
            want = (margin >= 0.0) | (margin >= -_tol(lhs, rhs))
        assert mg.margin[:, 0].tobytes() == margin.tobytes()
        assert mg.passed[:, 0].tolist() == want.tolist()
        # the band passed some rows below zero and failed others, NaN ones too
        below = ~(margin >= 0.0)
        assert want[below].any() and not want[below].all() and np.isnan(margin[below]).any()


def ref_tally(count, blocks, flags, qualified=True, cap=32):
    """The per-sample loop the suites ran before the array reduction."""
    mins, failures = {}, []
    for i in range(count):
        for rows, mg in blocks:
            hit = np.flatnonzero(rows == i)
            if not hit.size:
                continue
            for name, entry in mg.report(int(hit[0])).entries.items():
                key = f"{mg.label}.{name}" if qualified else name
                if key not in mins or entry["margin"] < mins[key]:
                    mins[key] = entry["margin"]
                if not entry["pass"] and len(failures) < cap:
                    failures.append((i, key, entry["margin"]))
        for key, rows in flags:
            if i in rows and len(failures) < cap:
                failures.append((i, key, 0.0))
    return mins, tuple(failures)


def crafted_blocks(rng, count, first=1):
    """Two interleaved branch-like blocks, one block over every sample
    (with a guarded entry), and failures scattered over several rows."""
    odd, even = np.arange(1, count, 2), np.arange(0, count, 2)
    a = compare_rows(
        "a", [Margin(n, rng.normal(size=len(odd)), 0.0, r) for n, r in (("p", ">"), ("q", "=="))]
    )
    b = compare_rows("b", [Margin(n, rng.normal(size=len(even)), 0.0) for n in "prs"])
    present = rng.random(count) < 0.7
    present[:first], present[first] = False, True  # key c.v first appears in row `first`
    c = compare_rows(
        "c",
        [
            Margin("u", rng.normal(size=count), 0.0, ">="),
            Margin("v", rng.normal(size=count), 0.0, ">", present),
        ],
    )
    return [(even, b), (odd, a), (np.arange(count), c)]


def tally(blocks, flags=(), qualified=True):
    """The fold over one row block that holds every sample."""
    fold = Tally(qualified)
    fold.add(blocks, flags)
    return fold.mins, fold.failures


@pytest.mark.parametrize("count", [5, 9, 60])
def test_tally_matches_loop_order_and_cap(count):
    rng = np.random.default_rng(count)
    blocks = crafted_blocks(rng, count)
    flags = [("flag", np.array([1, 2, count - 1]))]
    got = tally(blocks, flags)
    want = ref_tally(count, blocks, flags)
    assert got == want
    assert list(got[0]) == list(want[0])  # insertion order, not just content
    if count == 60:
        assert len(got[1]) == 32  # the cap bites
    # bare names, as kt_suite reports them; keys must be unique across blocks
    single = blocks[2:]
    assert tally(single, flags, qualified=False) == ref_tally(count, single, flags, False)


def rows_of(mg, keep):
    """The Margins of the rows `keep` of mg, its entry columns cut to match."""

    def cut(x):
        return x[keep] if np.ndim(x) else x

    entries = tuple(
        e._replace(lhs=cut(e.lhs), rhs=cut(e.rhs), present=cut(e.present)) for e in mg.entries
    )
    return Margins(mg.label, entries, *(a[keep] for a in mg[2:]))


def row_block_parts(blocks, flags, edges):
    """(blocks, flags) of the samples in each row block [edges[j], edges[j+1]);
    a block with no sample there is left out, as branch_blocks leaves out a
    branch that no row falls in."""
    parts = []
    for lo, hi in zip(edges, edges[1:]):
        part = []
        for rows, mg in blocks:
            keep = (lo <= rows) & (rows < hi)
            if keep.any():
                part.append((rows[keep], rows_of(mg, keep)))
        parts.append((part, [(key, rows[(lo <= rows) & (rows < hi)]) for key, rows in flags]))
    return parts


@pytest.mark.parametrize("count", [9, 60])
@pytest.mark.parametrize("cuts", [[1], [5], [4, 7], [1, 2, 3, 8], [5, 20, 40]])
def test_tally_folds_row_blocks_like_the_loop(count, cuts):
    """Row blocks added one by one give the sample loop's result: a key
    first present in a later row block enters after the earlier keys,
    equal minima in two row blocks keep the first (the sign of a zero
    shows which), and the failure cap is reached across row blocks."""
    edges = [0, *(c for c in cuts if c < count), count]
    rng = np.random.default_rng([count, *cuts])
    blocks = crafted_blocks(rng, count, first=edges[1])
    zeros = np.ones((2, count))
    zeros[:, 0], zeros[:, -1] = (0.0, -0.0), (-0.0, 0.0)
    ties = compare_rows("t", [Margin(n, z, 0.0, ">=") for n, z in zip(("pos", "neg"), zeros)])
    blocks.append((np.arange(count), ties))
    flags = [("flag", np.array([1, 2, count - 1]))]
    fold, keys, sizes = Tally(), [], []
    for part in row_block_parts(blocks, flags, edges):
        fold.add(*part)
        keys.append(list(fold.mins))
        sizes.append(len(fold.failures))
    want = ref_tally(count, blocks, flags)
    assert (fold.mins, fold.failures) == want
    assert repr(fold.mins) == repr(want[0])  # key order and the sign of each zero
    assert "c.v" not in keys[0] and "c.v" in keys[1]
    assert repr((fold.mins["t.pos"], fold.mins["t.neg"])) == "(0.0, -0.0)"
    if count == 60:
        assert sizes[0] < FAILURE_CAP == sizes[-1]


signed = st.one_of(st.just(0.0), st.just(-0.0), st.floats(min_value=-1e6, max_value=1e6))
volume = st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1e3))
weights = st.floats(min_value=5e-324, max_value=1.0)  # normalised by the test


def tuples(n):
    return st.lists(st.lists(signed, min_size=n, max_size=n), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(tuples))
@example([[-0.85, -0.08, 2.34, 2.6]])  # (1 - s2) + s4 != (s4 - s2) + 1 here
def test_phase_components_rows_match_scalar_reference(rows):
    lam = np.sort(np.array(rows), axis=1)
    re, im = phase_component_rows(sigma_rows(lam))
    for i, vals in enumerate(rows):
        want = hexes(ref_phase_components(vals))
        assert hexes((re[i], im[i])) == hexes(phase_components(vals)) == want


@settings(max_examples=200, deadline=None)
@given(tuples(4))
def test_factorization_rows_match_scalar_reference(rows):
    lam = np.sort(np.array(rows), axis=1)
    lhs, rhs = factorization_rows(lam, sigma_rows(lam))
    for i, vals in enumerate(rows):
        want = hexes(ref_factorization(vals))
        assert hexes((lhs[i], rhs[i])) == hexes(factorization_identity(vals)) == want


def test_factorization_identity_overflows_silently():
    # sigma_rows and phase_component_rows overflow to inf with no warning, as
    # Python floats do; so must both sides of the factorization
    vals = (0.0, 0.0, 1e300, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = factorization_identity(vals)
    assert hexes(got) == hexes(ref_factorization(vals))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.tuples(weights, st.lists(signed, min_size=n, max_size=n)), max_size=6)
    ).filter(len)
)
@example([(1.0, [0.0, -5e-324])])  # d_1 = -5e-324 / 2 rounds to -0.0
@example([(0.5, [0.0, -5e-324]), (0.5, [0.0, -5e-324])])  # a sum of -0.0 terms from 0.0
def test_constant_and_weighted_models_match_scalar_reference(raw):
    total = math.fsum(w for w, _ in raw)
    points = [(w / total, vals) for w, vals in raw]
    assume(abs(sum(w for w, _ in points) - 1.0) <= 1e-12 and all(w > 0.0 for w, _ in points))
    want = hexes(ref_weighted_model(points))
    assert hexes(weighted_model(points).d) == want
    for vals in (v for _, v in points):
        single = hexes(ref_constant_model(vals))
        assert hexes(constant_model(vals).d) == single
        lam = np.sort(np.array([vals]), axis=1)
        assert hexes(constant_model_rows(sigma_rows(lam))[0]) == single


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(volume, *[signed] * 4), min_size=1, max_size=10))
@example([(1.0, 0.0, 0.0, 4.75993287319387, 0.0)])  # s3 * s3 != s3 ** 2 (libm pow) there
def test_integrated_sigma_chain_rows_match_scalar_reference(rows):
    kernel = evaluate("integrated_sigma_chain", np.array(rows))
    for i, row in enumerate(rows):
        scalar = report_rows(integrated_sigma_chain(IntersectionProfile(4, row)))
        assert kernel_rows(kernel, i) == scalar == bits(ref_integrated_sigma_chain(list(row)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(lambda n: st.tuples(volume, *[signed] * n)))
def test_analytic_angle_matches_scalar_reference(row):
    want = ref_analytic_angle(len(row) - 1, row)
    p = IntersectionProfile(len(row) - 1, row)
    if want is None:
        with pytest.raises(UndefinedAngleError):
            analytic_angle_from_integrals(p)
    else:
        assert analytic_angle_from_integrals(p).hex() == want.hex()


# -- the column-major margin table against the row-major one it replaced ------


class RowMajorMargins(NamedTuple):
    """The table compare_rows built before it kept only margins and
    verdicts: both sides and the band as (m, K) arrays too."""

    label: str
    names: tuple
    relations: tuple
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    boundary: np.ndarray
    present: np.ndarray


def reference_compare_rows(label, entries):
    """compare_rows with C-ordered (m, K) blocks of both sides, the band of
    every cell, and the pass column picked by a nested np.where over the
    relation masks."""
    shape = (len(entries[0].lhs), len(entries))
    lhs, rhs, present = np.empty(shape), np.empty(shape), np.ones(shape, dtype=bool)
    for k, entry in enumerate(entries):
        lhs[:, k], rhs[:, k] = entry.lhs, entry.rhs
        if entry.present is not None:
            present[:, k] = entry.present
    margin = lhs - rhs
    tol = np.minimum(REL * np.maximum(np.abs(lhs), np.abs(rhs)), BAND_CAP)
    boundary = np.abs(margin) <= tol
    names, relations = (tuple(x) for x in zip(*((e.name, e.relation) for e in entries)))
    strict, loose = (np.array([r == rel for r in relations]) for rel in (">", ">="))
    passed = np.where(strict, margin > 0.0, np.where(loose, margin >= -tol, boundary))
    return RowMajorMargins(label, names, relations, lhs, rhs, margin, passed, boundary, present)


# a small pool makes ties, signed zeros and non-finite margins common
cells = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, math.inf, -math.inf, math.nan, 1e308]),
    st.floats(),
)


def columns(m):
    return st.lists(cells, min_size=m, max_size=m).map(np.array)


@st.composite
def margin_entries(draw, m=None):
    """1-5 entries over m rows: every relation, a constant or a column on
    the right, and absent rows."""
    m = draw(st.integers(1, 24)) if m is None else m
    return [
        Margin(
            f"e{k}",
            draw(columns(m)),
            draw(cells | columns(m)),
            draw(st.sampled_from([">", ">=", "=="])),
            draw(st.none() | st.lists(st.booleans(), min_size=m, max_size=m).map(np.array)),
        )
        for k in range(draw(st.integers(1, 5)))
    ]


def assert_same_margins(got, want):
    """The tables bit for bit, and every row's report against the reference
    row's sides, margin, pass and band, its absent entries left out."""
    assert (got.label, got.names, got.relations) == want[:3]
    for a, b in zip(got[2:], (want.margin, want.passed, want.present)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # every bit, NaN payloads and -0.0 included
    cols = (want.lhs, want.rhs, want.margin, want.passed, want.boundary)
    for i in range(len(want.margin)):
        rows = zip(want.names, *(c[i].tolist() for c in cols), want.present[i].tolist())
        assert report_rows(got.report(i)) == bits(r[:-1] for r in rows if r[-1])


def _one_relation(relation, present=None):
    """Three entries of one relation over rows of signed zeros, near-ties
    and non-finite values: each relation's pass test alone."""
    col = np.array([0.0, -0.0, 1.0, 1.0 + 1e-12, math.inf, -math.inf, math.nan, 1e308, -5e-324])
    return [
        Margin(f"e{k}", np.roll(col, k), np.roll(col, -k) if k else 1.0, relation, present)
        for k in range(3)
    ]


@settings(max_examples=200, deadline=None)
@given(margin_entries())
@example(_one_relation(">"))
@example(_one_relation(">="))
@example(_one_relation("=="))
def test_compare_rows_bits_match_row_major_reference(entries):
    with np.errstate(all="ignore"):
        got, want = compare_rows("x", entries), reference_compare_rows("x", entries)
    assert_same_margins(got, want)
    assert all(a.flags.f_contiguous for a in got[2:])


@st.composite
def tally_folds(draw):
    """Row blocks of ascending samples, each with 1-3 entry blocks over
    subsets of its rows and a flag over another subset."""
    folds, start = [], 0
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 24))
        samples = np.arange(start, start + n)
        blocks = []
        for _ in range(draw(st.integers(1, 3))):
            rows = samples[draw(st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))]
            if rows.size:
                blocks.append((rows, draw(margin_entries(rows.size))))
        flag = samples[draw(st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))]
        folds.append((blocks, flag))
        start += n
    return folds


def _all_failing(m):
    return [Margin(f"e{k}", np.zeros(m), 1.0, ">") for k in range(3)]


@settings(max_examples=100, deadline=None)
@given(tally_folds(), st.booleans())
@example([([(np.arange(40), _all_failing(40))], np.arange(0))], True)  # 120 > FAILURE_CAP
@example([([(np.arange(9), _one_relation(">="))], np.arange(0))], False)  # every entry present
@example([([(np.arange(9), _one_relation(">", np.arange(9) % 3 > 0))], np.arange(2))], True)
def test_tally_matches_reference_fold(folds, qualified):
    fold, ref = Tally(qualified), ReferenceTally(qualified)
    for blocks, flag in folds:
        with np.errstate(all="ignore"):
            got = [(rows, compare_rows(f"b{b}", e)) for b, (rows, e) in enumerate(blocks)]
            want = [(rows, reference_compare_rows(f"b{b}", e)) for b, (rows, e) in enumerate(blocks)]
        fold.add(got, [("flag", flag)])
        ref.add(want, [("flag", flag)])
        # repr: the key order of mins and the sign of each zero
        assert repr((fold.mins, fold.failures)) == repr((ref.mins, ref.failures))


@pytest.mark.parametrize("layout", ["C", "F"])
def test_branch_blocks_hand_evaluate_column_major_rows(monkeypatch, layout):
    seen, margins = [], eigen.evaluate

    def spy(label, lam, e):
        seen.append((Branch[label.removeprefix("branch_").upper()], lam, e))
        return margins(label, lam, e)

    def rows_of(thetas):
        lam = sample_level_set_batch(thetas, seed=np.random.default_rng(6))
        return np.asfortranarray(lam) if layout == "F" else np.ascontiguousarray(lam)

    monkeypatch.setattr(eigen, "evaluate", spy)
    thetas = np.random.default_rng(5).uniform(math.pi + 0.01, 2.0 * math.pi - 0.01, 500)
    thetas[:3] = 1.5 * math.pi  # the FULL branch
    lam = rows_of(thetas)
    blocks = branch_blocks(lam, sigma_rows(lam), thetas, phase_rows(lam))
    assert [b for b, *_ in seen] == list(_FOUR_FOLD) and len(blocks) == 3
    assert all(lam.flags.f_contiguous and e.flags.f_contiguous for _, lam, e in seen)

    # every row above 3*pi/2: the one branch gets lam and e themselves, no copy
    seen.clear()
    thetas = np.random.default_rng(7).uniform(1.5 * math.pi + 0.01, 2.0 * math.pi - 0.01, 500)
    lam = rows_of(thetas)
    e = sigma_rows(lam)
    [(rows, _)] = branch_blocks(lam, e, thetas, phase_rows(lam))
    assert np.array_equal(rows, np.arange(500))
    assert len(seen) == 1 and seen[0][0] is Branch.SUPERCRITICAL
    assert seen[0][1] is lam and seen[0][2] is e and e.flags.f_contiguous
    assert lam.flags.f_contiguous == (layout == "F")


# -- the profile tables on exact rows -------------------------------------------


def exact_rows(d):
    """The float rows d as an object array of the Fractions they equal."""
    return np.array([[Fraction(x) for x in row] for row in d.tolist()], dtype=object)


def profile_rows(n):
    """Constant models of 2000 uniform tuples on [-10, 10]^4 and of 2000
    level-set tuples in (pi, 2*pi); an n = 3 row takes a tuple's first three."""
    rng = np.random.default_rng(26)
    uniform = np.sort(rng.uniform(-10.0, 10.0, (2000, 4)), axis=1)
    level = sample_level_set_batch(rng.uniform(math.pi + 0.01, 2 * math.pi - 0.01, 2000), rng)
    return constant_model_rows(sigma_rows(np.concatenate([uniform, level])[:, :n]))


@pytest.mark.parametrize(
    "label, n", [("chern_n4", 4), ("chern_n3", 3), ("kt_chain", 4), ("integrated_sigma_chain", 4)]
)
def test_profile_tables_run_unchanged_on_exact_rows(label, n):
    d = profile_rows(n)
    floats, exact = evaluate(label, d), MARGINS[label](exact_rows(d))
    assert tuple(e.name for e in exact) == floats.names
    for k, entry in enumerate(exact):
        assert all(type(x) is Fraction for x in (*entry.lhs, *entry.rhs))
        margin = entry.lhs - entry.rhs
        if entry.relation == "==":  # final_scaling, an identity of polynomials
            assert not margin.any()
            continue
        holds = (margin > 0) if entry.relation == ">" else (margin >= 0)
        side = floats.entries[k]
        outside = ~(np.abs(floats.margin[:, k]) <= _tol(side.lhs, side.rhs))
        assert np.array_equal(floats.passed[outside, k], holds[outside]), entry.name
        print(f"{label}.{entry.name}: {len(d) - outside.sum()} of {len(d)} rows in the band")


def test_kt_squares_are_correctly_rounded():
    # libm pow misrounds about 0.1 % of squares; a product never does
    rng = np.random.default_rng(26)
    x = rng.choice([-1.0, 1.0], (20000, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, (20000, 3))
    d = np.ones((20000, 5))
    d[:, 1:4] = x
    lhs = np.column_stack([e.lhs for e in evaluate("kt_chain", d).entries[:3]])
    want = [[float(Fraction(v) ** 2) for v in row] for row in x.tolist()]
    assert lhs.tolist() == want


@pytest.mark.xfail(
    strict=True,
    reason="final_scaling's tolerance scales with |lhs|, not with the terms of "
    "s3^2 - s1*s2*s3 + s1^2*s4 that cancel",
)
def test_final_scaling_holds_on_a_cancelling_constant_model():
    # the float margin is -2.9e-11, against a tolerance of 1e-12 * 3.8; the
    # exact margin is 0, as on every row of the exact-row test above
    lam = (-9.456175223503127, -9.407542989583437, 3.7536952670421044, 9.421163638995523)
    assert integrated_sigma_chain(constant_model(lam)).entry("final_scaling")["pass"]
