"""The JSON readers of dhym's input files and the JSON and CSV writers.

The readers share one rule: a number is a JSON number (not a string or a
boolean), an integer is integral, an array has the promised length, and
any other fault raises DomainError.

The JSON writer is the standard library's indenting encoder.  Both writers
render floats only through `format_float` (`%.17g`, which round-trips any
IEEE double, and `-0.0`).  Keys keep the order of a suite's dict or of a
report's `to_dict`, so identical inputs give identical bytes.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

from .charge import IntersectionProfile
from .eigen import EigenTuple
from .errors import DomainError
from .hermitian import HermitianPair
from .models import blowup_p3, constant_model, weighted_model


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"cannot serialise non-finite float {x!r}")
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        return "-0.0"  # "-0" would read back as the integer 0
    return "%.17g" % x


def _unserialisable(obj):
    raise DomainError(f"cannot serialise {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialise nested dict/list/scalar data as `json.dumps(obj, indent=2)`
    does, but with every float rendered by `format_float`."""
    encode = json.encoder._make_iterencode(
        markers=None,
        _default=_unserialisable,
        _encoder=json.encoder.encode_basestring_ascii,
        _indent="  ",
        _floatstr=format_float,
        _key_separator=": ",
        _item_separator=",",
        _sort_keys=False,
        _skipkeys=False,
        _one_shot=True,
    )
    return "".join(encode(obj, 0))


def _not_a_number(token: str):
    raise ValueError(f"{token} is not a JSON number")


def load_json(path: str):
    """The JSON value in the file at `path`.  A file that is not UTF-8, not
    JSON (NaN and Infinity included) or nested too deeply to decode raises
    DomainError."""
    # JSONDecodeError, UnicodeDecodeError, a NaN or Infinity token and an
    # integer literal beyond int's 4300-digit conversion limit are all ValueErrors
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_not_a_number)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"{path}: invalid JSON ({exc})") from exc


@contextlib.contextmanager
def _as_domain_error(what: str):
    """Raise DomainError(f"{what}: {reason}") for a field of a JSON object
    that is missing, of the wrong type or not a number a double can hold."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what}: {exc}") from exc


def _numbers(seq) -> tuple[float, ...]:
    """Floats of a JSON array of numbers; a non-array raises TypeError, and a
    string, boolean or null entry ValueError."""
    if not isinstance(seq, (list, tuple)):
        raise TypeError(f"expected an array, got {type(seq).__name__}")
    for x in seq:
        if type(x) not in (int, float):
            raise ValueError(f"could not convert {type(x).__name__} to float")
    return tuple(float(x) for x in seq)


def _integer(x, name: str) -> int:
    """`x` as an int; a boolean, string or fraction raises ValueError."""
    if isinstance(x, bool) or int(x) != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def parse_eigen(obj) -> EigenTuple:
    """{"lambda": [a, b, c, d]} -> EigenTuple."""
    with _as_domain_error("malformed eigenvalue object"):
        values = _numbers(obj["lambda"])
    return EigenTuple(values)


def parse_profile(obj) -> IntersectionProfile:
    """{"n": n, "d": [d_0, ..., d_n]} -> IntersectionProfile; an optional
    "synthetic": true marks a weighted model's profile."""
    with _as_domain_error("malformed profile object"):
        n, d = _integer(obj["n"], "n"), _numbers(obj["d"])
        synthetic = obj.get("synthetic", False)
        if not isinstance(synthetic, bool):
            raise ValueError(f"synthetic must be true or false, got {synthetic!r}")
    return IntersectionProfile(n, d, synthetic)


def parse_model_spec(obj) -> IntersectionProfile:
    """Materialise a profile from a model description.

    {"model": "constant", "lambda": [...]}
    {"model": "weighted", "points": [{"w": w, "lambda": [...]}, ...]}
    {"model": "blowup_p3", "omega": [a, b], "alpha": [c, e]}
    """
    with _as_domain_error("model spec needs a 'model' key"):
        kind = obj["model"]
    if kind == "constant":
        return constant_model(parse_eigen(obj))
    if kind == "weighted":
        with _as_domain_error("malformed weighted model points"):
            points = [(_numbers([pt["w"]])[0], _numbers(pt["lambda"])) for pt in obj["points"]]
        return weighted_model(points)
    if kind == "blowup_p3":
        with _as_domain_error("malformed blow-up spec"):
            a, b = obj["omega"]
            c, e = obj["alpha"]
            classes = _numbers((a, b, c, e))
        return blowup_p3(*classes)
    raise DomainError(f"unknown model kind {kind!r}")


def _matrix(obj) -> np.ndarray:
    """{"dim": n, "re": [[...]], "im": [[...]]} -> the n x n matrix re + i*im."""
    n = _integer(obj["dim"], "dim")
    parts = [[_numbers(row) for row in obj[key]] for key in ("re", "im")]
    if any(len(rows) != n or any(len(row) != n for row in rows) for rows in parts):
        raise ValueError(f"re and im must each hold {n} rows of {n} numbers")
    m = np.empty((n, n), complex)
    m.real, m.imag = parts  # keeps a -0.0 in im, which re + 1j * im would not
    return m


def parse_pair(obj) -> HermitianPair:
    """{"G": m, "A": m} -> HermitianPair, each m a `_matrix` object.  The pair
    rejects a non-Hermitian, non-finite or indefinite input (InvalidPairError)."""
    with _as_domain_error("malformed matrix pair"):
        g, a = _matrix(obj["G"]), _matrix(obj["A"])
    return HermitianPair(g, a)


def trace_csv(trace) -> str:
    """CSV body 't,re,im,arg_lift' for the rows of a `winding_trace`."""
    lines = ["t,re,im,arg_lift"]
    for t, re, im, arg in trace:
        lines.append(",".join(format_float(v) for v in (t, re, im, arg)))
    return "\n".join(lines) + "\n"
