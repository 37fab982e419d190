#!/usr/bin/env python3
"""Regenerate the golden output files that pin dhym's report bytes.

Each case is one `dhym` command line (or one suite call) with a fixed
seed; its stdout is written to tests/data/<case>.json, and a CSV trace
that `--out` writes goes to tests/data/<case>.csv.  tests/test_golden.py
asserts that the current code reproduces every file byte for byte and
exits with the code listed here.  The profile, model-spec and matrix-pair
inputs are the tests/data/profile_*.json, spec_*.json and pair_*.json
files.  Rerun this only when a change to the reports is intended.  Before
it rewrites a file whose text changed, it prints each JSON key (or CSV
cell) whose value moved, old -> new, with the distance in ulp of a float.

    PYTHONPATH=src python scripts/make_golden.py
"""

import contextlib
import csv
import io
import json
import math
import os
import struct
import sys
import tempfile

from dhym import theorem_suite
from dhym.cli import main as cli_main
from dhym.serialize import dumps

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data")

#: `--out` target, relative so the path printed on stdout is the same in every run
TRACE = "trace.csv"


def _profile(name: str) -> str:
    return os.path.join(DATA, f"profile_{name}.json")


def _spec(name: str) -> str:
    return os.path.join(DATA, f"spec_{name}.json")


def _pair(name: str) -> str:
    return os.path.join(DATA, f"pair_{name}.json")


def _path(name: str) -> list:
    return ["path", "--profile", _profile(name), "--samples", "64", "--out", TRACE]


#: case name -> (dhym argv, exit code); theta 4.0 is MID, 5.5 SUPERCRITICAL,
#: 3*pi/2 FULL; blowup_3_1_m2_1 is omega = 3H - E, alpha = -2H - E on the
#: blow-up of P^3, and the degenerate profile's path hits Z(2) = 0; the
#: tuple (-0.5, 1, 2, 3) starts with a negative eigenvalue, as mid-branch
#: tuples do; pair_2345 is a 4x4 metric pair whose relative spectrum is
#: about (2, 3, 4, 5); identity_2184 is a run whose max_rel_vieta numpy's
#: AVX-512 pow would change if the Vieta powers took it, a second portable
#: render; identity_100000 spans many row blocks of the suite
CLI_CASES = {
    "sample_mid": (["sample", "--theta", "4.0", "--count", "1000", "--seed", "101"], 0),
    "sample_supercritical": (
        ["sample", "--theta", "5.5", "--count", "1000", "--seed", "102"],
        0,
    ),
    "sample_full": (
        ["sample", "--theta", repr(1.5 * math.pi), "--count", "1000", "--seed", "103"],
        0,
    ),
    "kt": (["kt", "--count", "1000", "--seed", "104"], 0),
    "path_constant_2345": (_path("constant_2345"), 0),
    "path_blowup_3_1_m2_1": (_path("blowup_3_1_m2_1"), 0),
    "path_degenerate": (["path", "--profile", _profile("degenerate")], 2),
    "angle_constant_2345": (["angle", "--profile", _profile("constant_2345")], 0),
    "angle_blowup_3_1_m2_1": (["angle", "--profile", _profile("blowup_3_1_m2_1")], 0),
    "consistency_2345": (["consistency", "--lambda", "2,3,4,5"], 0),
    "consistency_neg_first": (["consistency", "--lambda=-0.5,1,2,3"], 0),
    "consistency_pair_2345": (["consistency", "--pair", _pair("2345")], 0),
    "identity": (["identity", "--count", "1000", "--seed", "105"], 0),
    "identity_2184": (["identity", "--count", "2184", "--seed", "1975363178"], 0),
    "identity_100000": (["identity", "--count", "100000", "--seed", "106"], 0),
    "kt_constant_2345": (["kt", "--profile", _profile("constant_2345")], 0),
    "check_constant_2345": (["check", "--profile", _profile("constant_2345")], 0),
    "check_blowup_3_1_m2_1": (["check", "--profile", _profile("blowup_3_1_m2_1")], 1),
    "model_weighted": (["model", "--spec", _spec("weighted")], 0),
    "model_blowup_p3": (["model", "--spec", _spec("blowup_p3")], 0),
}

#: the full window mixes branches, so it also pins the key order of min_margins
SUITE_CASES = {"theorem_suite_10000": (10000, 20240815)}


def render(case: str):
    """(exit code, {file name: text}) of one case, exactly as the CLI writes it."""
    if case in SUITE_CASES:
        count, seed = SUITE_CASES[case]
        return 0, {f"{case}.json": dumps(theorem_suite(count, seed=seed)) + "\n"}
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with contextlib.redirect_stdout(buf):
            code = cli_main(CLI_CASES[case][0])
        files = {f"{case}.json": buf.getvalue()}
        if os.path.exists(TRACE):
            with open(TRACE, encoding="utf-8", newline="") as fh:
                files[f"{case}.csv"] = fh.read()
    return code, files


def exit_code(case: str) -> int:
    return CLI_CASES[case][1] if case in CLI_CASES else 0


def cases():
    return [*CLI_CASES, *SUITE_CASES]


def _leaves(doc, key=""):
    """(key path, value) of every scalar in a decoded document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, doc


def _decode(text: str):
    """A golden file's values: its JSON, or a CSV trace as one dict per row."""
    try:
        return json.loads(text)
    except ValueError:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _ordinal(x: float) -> int:
    # doubles in order as integers, -0.0 and 0.0 both 0
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def moved(old_text: str, new_text: str) -> list:
    """One line per key whose value differs between two renders of a golden
    file, in the new file's key order (keys only in the old one last):
    `key: old -> new`, followed by `(k ulp)` where either value is a float."""
    old, new = dict(_leaves(_decode(old_text))), dict(_leaves(_decode(new_text)))
    lines = []
    for key in [*new, *(k for k in old if k not in new)]:
        a, b = old.get(key, "absent"), new.get(key, "absent")
        if repr(a) == repr(b):
            continue
        line = f"{key}: {a!r} -> {b!r}"
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numbers and float in (type(a), type(b)) and math.isfinite(a) and math.isfinite(b):
            line += f" ({abs(_ordinal(float(a)) - _ordinal(float(b)))} ulp)"
        lines.append(line)
    return lines


def main() -> int:
    os.makedirs(DATA, exist_ok=True)
    for case in cases():
        code, files = render(case)
        if code != exit_code(case):
            print(f"{case}: exit {code}, expected {exit_code(case)}", file=sys.stderr)
            return 1
        for name, text in files.items():
            path = os.path.join(DATA, name)
            if os.path.exists(path):
                with open(path, encoding="utf-8", newline="") as fh:
                    old = fh.read()
                changes = moved(old, text) or ([] if old == text else ["bytes only"])
                for line in changes:
                    print(f"{name}: {line}")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
