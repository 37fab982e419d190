import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dhym import IntersectionProfile
from dhym.errors import DomainError
from dhym.serialize import dumps, format_float, parse_eigen, parse_model_spec, parse_profile

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


def test_dumps_structure_and_indentation():
    obj = {"a": [1, 2.5, None, True], "b": {"c": "x", "d": []}, "e": {}}
    text = dumps(obj)
    assert json.loads(text) == obj
    assert text == json.dumps(obj, indent=2)  # two spaces per level, the only form


def test_dumps_rejects_unknown_types():
    with pytest.raises(DomainError):
        dumps({"x": object()})


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
