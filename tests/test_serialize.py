import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dhym import (
    HermitianPair,
    IntersectionProfile,
    lagrangian_phase,
    phase_of_pair,
    relative_spectrum,
)
from dhym.errors import DhymError, DomainError
from dhym.serialize import (
    dumps,
    format_float,
    load_json,
    parse_eigen,
    parse_model_spec,
    parse_pair,
    parse_profile,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

any_float = st.floats(allow_nan=False, allow_infinity=False)


@given(any_float)
def test_format_float_round_trips_every_double(x):
    assert float(format_float(x)) == x


def test_format_float_edge_values():
    for x in (0.0, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -math.pi):
        assert float(format_float(x)) == x
    assert format_float(-0.0) == "-0.0"
    assert math.copysign(1.0, json.loads(format_float(-0.0))) == -1.0
    assert [format_float(x) for x in (0.0, 1.0, -2.0)] == ["0", "1", "-2"]
    with pytest.raises(DomainError):
        format_float(math.inf)
    with pytest.raises(DomainError):
        format_float(math.nan)


DBL_MAX = sys.float_info.max
#: keys and strings: any text, with quotes, backslashes and non-ASCII text drawn often
_text = st.text(st.characters() | st.sampled_from('"\\é∂\u2028😀'), max_size=6)
_edge_floats = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, DBL_MAX, -DBL_MAX))


def _documents(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_text, kids, max_size=4),
        max_leaves=12,
    )


_scalars = st.none() | st.booleans() | st.integers() | _text
_float_documents = _documents(_scalars | any_float | _edge_floats)


@given(_documents(_scalars))
@example({"a": [1, None, True], "b": {"c": "x", "d": []}, "e": {}, "f": ()})
@example({'"quoted" \\ key': "é", "∂": ["😀", "\u2028"]})
def test_dumps_structure_and_indentation(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)  # two spaces per level, the only form


def _number_tokens(doc):
    """`doc` as json.loads(..., parse_float=str, parse_int=str) should read
    it back: every number as its token, every tuple as a list."""
    if isinstance(doc, float):
        return format_float(doc)
    if isinstance(doc, int) and not isinstance(doc, bool):
        return str(doc)
    if isinstance(doc, dict):
        return {key: _number_tokens(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_number_tokens(item) for item in doc]
    return doc


def _assert_same(back, doc):
    """`back`, read by json.loads, holds `doc`'s values, floats with their sign."""
    if isinstance(doc, float):
        assert back == doc and math.copysign(1.0, back) == math.copysign(1.0, doc)
    elif isinstance(doc, dict):
        assert list(back) == list(doc)
        for key, value in doc.items():
            _assert_same(back[key], value)
    elif isinstance(doc, (list, tuple)):
        assert isinstance(back, list) and len(back) == len(doc)
        for got, item in zip(back, doc):
            _assert_same(got, item)
    else:
        assert type(back) is type(doc) and back == doc


@given(_float_documents)
@example([0.0, -0.0, 5e-324, -DBL_MAX, {"x": (1.5, -0.0)}])
def test_dumps_renders_every_float_through_format_float(doc):
    text = dumps(doc)
    _assert_same(json.loads(text), doc)
    assert json.loads(text, parse_float=str, parse_int=str) == _number_tokens(doc)


@given(any_float | _edge_floats)
def test_dumps_renders_numpy_float64_as_float(x):
    y = np.float64(x)
    assert dumps(y) == dumps(x)
    assert dumps([y, {"x": y}]) == dumps([x, {"x": x}])


def test_dumps_rejects_unknown_types():
    bad = (np.int64(1), np.bool_(True), np.float32(1.0), object(), math.inf, -math.inf, math.nan)
    for value in bad:
        for doc in (value, [1, value], {"x": value}, {"x": [{"y": value}]}):
            with pytest.raises(DomainError, match="cannot serialise"):
                dumps(doc)


@given(
    st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=4, max_size=4
    )
)
@example(d_tail=[0.0, 0.0, 0.0, -0.0])
def test_profile_dict_round_trip(d_tail):
    p = IntersectionProfile(4, (1.0, *d_tail))
    text = dumps(p.to_dict())
    back = parse_profile(json.loads(text))
    assert back == p
    assert dumps(back.to_dict()) == text


def test_parse_eigen_and_model_specs():
    assert parse_eigen({"lambda": [3, 1, 2, 0]}).values == (0.0, 1.0, 2.0, 3.0)
    with pytest.raises(DomainError):
        parse_eigen({"values": [1, 2]})

    p = parse_model_spec({"model": "constant", "lambda": [1, 1, 1, 1]})
    assert p.d == (1.0, 1.0, 1.0, 1.0, 1.0)
    p = parse_model_spec({"model": "blowup_p3", "omega": [2, 1], "alpha": [1, 0]})
    assert p.d == (7.0, 4.0, 2.0, 1.0)
    p = parse_model_spec(
        {"model": "weighted", "points": [{"w": 1.0, "lambda": [1, 1, 1, 1]}]}
    )
    assert p.synthetic

    for bad in (
        {"model": "torus"},
        {"lambda": [1, 2, 3, 4]},
        {"model": "weighted", "points": [{"lambda": [1, 1, 1, 1]}]},
        {"model": "blowup_p3", "omega": [2], "alpha": [1, 0]},
    ):
        with pytest.raises(DomainError):
            parse_model_spec(bad)


def matrix(m):
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


ONE = {"dim": 1, "re": [[1]], "im": [[0]]}


@pytest.mark.parametrize(
    "obj",
    [
        pytest.param({"G": {**ONE, "re": [["2.5"]]}, "A": ONE}, id="number-as-string"),
        pytest.param({"G": ONE, "A": {**ONE, "re": [[True]]}}, id="boolean-entry"),
        pytest.param({"G": ONE, "A": {**ONE, "im": [["nan"]]}}, id="nan-as-string"),
        pytest.param({"G": {**ONE, "dim": 1.9}, "A": ONE}, id="fractional-dim"),
        pytest.param({"G": {**ONE, "dim": "1"}, "A": ONE}, id="dim-as-string"),
        pytest.param({"G": {**ONE, "dim": True}, "A": ONE}, id="boolean-dim"),
        pytest.param({"A": ONE}, id="missing-G"),
        pytest.param([ONE, ONE], id="array-pair"),
        pytest.param("G", id="string-pair"),
        pytest.param({"G": 1, "A": ONE}, id="number-matrix"),
        pytest.param({"G": ONE, "A": {**ONE, "re": {"0": [1]}}}, id="object-rows"),
        pytest.param(
            {"G": {"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}, "A": ONE},
            id="ragged-rows",
        ),
    ],
)
def test_parse_pair_rejects_lax_input(obj):
    with pytest.raises(DomainError, match="malformed matrix pair"):
        parse_pair(obj)


def test_parse_pair_validation():
    eye = matrix(np.eye(2))
    with pytest.raises(DomainError, match="must each hold 3 rows of 3 numbers"):
        parse_pair({"G": {"dim": 3, "re": [[1.0]], "im": [[0.0]]}, "A": eye})
    with pytest.raises(DomainError, match="'dim'"):
        parse_pair({"G": {"re": [[1.0]]}, "A": eye})
    pair = parse_pair({"G": eye, "A": eye})
    assert np.array_equal(pair.G, np.eye(2)) and np.array_equal(pair.A, np.eye(2))


def test_parse_pair_rejects_empty_pair():
    empty = {"dim": 0, "re": [], "im": []}
    with pytest.raises(DhymError, match=r"G must be a non-empty .* shape \(0, 0\)"):
        parse_pair({"G": empty, "A": empty})


def test_parse_pair_keeps_every_bit():
    rng = np.random.default_rng(5)
    g = np.empty((3, 3), dtype=complex)
    g.real = [[2.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 3.0]]
    g.imag = [[0.0, -0.0, 0.25], [0.0, 0.0, 1 / 3], [-0.25, -1 / 3, 0.0]]
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = 0.5 * (m + m.conj().T)  # exactly Hermitian
    pair = parse_pair(json.loads(dumps({"G": matrix(g), "A": matrix(a)})))
    assert np.signbit(pair.G.imag[0, 1])
    assert pair.G.tobytes() == g.tobytes()
    assert pair.A.tobytes() == a.tobytes()


def test_pair_file_has_the_spectrum_it_was_built_from():
    # G = P^H P and A = P^H diag(2, 3, 4, 5) P for one integer matrix P
    pair = parse_pair(load_json(os.path.join(DATA, "pair_2345.json")))
    assert relative_spectrum(pair).values == pytest.approx((2, 3, 4, 5), rel=1e-13)
    assert phase_of_pair(pair) == pytest.approx(lagrangian_phase((2, 3, 4, 5)), abs=1e-13)


_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_json = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=10,
)
_rows = st.integers(0, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3) | st.floats() | _leaves, min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)
_matrices = st.fixed_dictionaries(
    {"dim": st.integers(-1, 3) | _json, "re": _rows | _json, "im": _rows | _json}
)


@given(_json | st.fixed_dictionaries({"G": _matrices | _json, "A": _matrices | _json}))
@example({"G": ONE, "A": ONE})
def test_parse_pair_returns_a_pair_or_raises_a_dhym_error(obj):
    try:
        pair = parse_pair(obj)
    except DhymError:
        return
    assert isinstance(pair, HermitianPair)
