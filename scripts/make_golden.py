#!/usr/bin/env python3
"""Regenerate the golden output files that pin dhym's report bytes.

Each case is one `dhym` command line (or one suite call) with a fixed
seed; its stdout is written to tests/data/<case>.json, and a CSV trace
that `--out` writes goes to tests/data/<case>.csv.  tests/test_golden.py
asserts that the current code reproduces every file byte for byte and
exits with the code listed here.  The profile, model-spec and matrix-pair
inputs are the tests/data/profile_*.json, spec_*.json and pair_*.json
files.  Rerun this only when a change to the reports is intended.

    PYTHONPATH=src python scripts/make_golden.py
"""

import contextlib
import io
import math
import os
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
#: AVX-512 pow would change; identity_100000 spans many row blocks of the suite
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
        return 0, {f"{case}.json": dumps(theorem_suite(count, seed=seed).to_dict()) + "\n"}
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


def main() -> int:
    os.makedirs(DATA, exist_ok=True)
    for case in cases():
        code, files = render(case)
        if code != exit_code(case):
            print(f"{case}: exit {code}, expected {exit_code(case)}", file=sys.stderr)
            return 1
        for name, text in files.items():
            path = os.path.join(DATA, name)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
