"""Deterministic JSON and CSV emission.

Floats are rendered with 17 significant digits (`%.17g`), which
round-trips any IEEE double exactly; dictionaries keep insertion order
and no timestamps or environment data are ever emitted, so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import contextlib
import json
import math

from .charge import IntersectionProfile
from .eigen import EigenTuple
from .errors import DomainError
from .models import blowup_p3, constant_model, weighted_model


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"cannot serialise non-finite float {x!r}")
    if x == 0.0 and math.copysign(1.0, x) < 0.0:
        return "-0.0"  # "-0" would read back as the integer 0
    return "%.17g" % x


def dumps(obj, indent: int | None = 2) -> str:
    """Serialise nested dict/list/scalar data with fixed float formatting."""
    pieces: list[str] = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces)


def _emit(obj, out: list, indent, depth) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (depth + 1))
    close = "" if indent is None else "\n" + " " * (indent * depth)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            out.append(pad if i == 0 else "," + (pad or " "))
            _emit(item, out, indent, depth + 1)
        out.append(close + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad if i == 0 else "," + (pad or " "))
            out.append(json.dumps(str(key)) + (": " if indent else ":"))
            _emit(value, out, indent, depth + 1)
        out.append(close + "}")
    else:
        raise DomainError(f"cannot serialise {type(obj).__name__}")


def load_json(path: str):
    """The JSON value in the file at `path`.  A file that is not UTF-8, not
    JSON or nested too deeply to decode raises DomainError."""
    # JSONDecodeError, UnicodeDecodeError and an integer literal beyond int's
    # 4300-digit conversion limit are all ValueErrors
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
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


def parse_eigen(obj) -> EigenTuple:
    """{"lambda": [a, b, c, d]} -> EigenTuple."""
    with _as_domain_error("malformed eigenvalue object"):
        values = tuple(float(x) for x in obj["lambda"])
    return EigenTuple(values)


def parse_profile(obj) -> IntersectionProfile:
    """{"n": n, "d": [d_0, ..., d_n]} -> IntersectionProfile; an optional
    "synthetic": true marks a weighted model's profile."""
    with _as_domain_error("malformed profile object"):
        n, d = obj["n"], tuple(float(x) for x in obj["d"])
        synthetic = obj.get("synthetic", False)
        if isinstance(n, bool) or int(n) != n:
            raise ValueError(f"n must be an integer, got {n!r}")
        if not isinstance(synthetic, bool):
            raise ValueError(f"synthetic must be true or false, got {synthetic!r}")
    return IntersectionProfile(int(n), d, synthetic)


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
            points = [
                (float(pt["w"]), tuple(float(x) for x in pt["lambda"])) for pt in obj["points"]
            ]
        return weighted_model(points)
    if kind == "blowup_p3":
        with _as_domain_error("malformed blow-up spec"):
            a, b = obj["omega"]
            c, e = obj["alpha"]
            classes = float(a), float(b), float(c), float(e)
        return blowup_p3(*classes)
    raise DomainError(f"unknown model kind {kind!r}")


def trace_csv(trace) -> str:
    """CSV body 't,re,im,arg_lift' for the rows of a `winding_trace`."""
    lines = ["t,re,im,arg_lift"]
    for t, re, im, arg in trace:
        lines.append(",".join(format_float(v) for v in (t, re, im, arg)))
    return "\n".join(lines) + "\n"
