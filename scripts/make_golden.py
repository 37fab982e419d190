#!/usr/bin/env python3
"""Regenerate the golden stdout files that pin dhym's report bytes.

Each case is one `dhym` command line (or one suite call) with a fixed
seed; its stdout is written to tests/data/<case>.json, and
tests/test_golden.py asserts that the current code reproduces every file
byte for byte.  Rerun this only when a change to the reports is intended.

    PYTHONPATH=src python scripts/make_golden.py
"""

import contextlib
import io
import math
import os
import sys

from dhym import theorem_suite
from dhym.cli import main as cli_main
from dhym.serialize import dumps

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data")

#: case name -> dhym argv; theta 4.0 is MID, 5.5 SUPERCRITICAL, 3*pi/2 FULL
CLI_CASES = {
    "sample_mid": ["sample", "--theta", "4.0", "--count", "1000", "--seed", "101"],
    "sample_supercritical": ["sample", "--theta", "5.5", "--count", "1000", "--seed", "102"],
    "sample_full": ["sample", "--theta", repr(1.5 * math.pi), "--count", "1000", "--seed", "103"],
    "kt": ["kt", "--count", "1000", "--seed", "104"],
}

#: the full window mixes branches, so it also pins the key order of min_margins
SUITE_CASES = {"theorem_suite_10000": (10000, 20240815)}


def render(case: str) -> str:
    """Stdout of one case, exactly as the CLI would print it."""
    if case in SUITE_CASES:
        count, seed = SUITE_CASES[case]
        return dumps(theorem_suite(count, seed=seed).to_dict()) + "\n"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(CLI_CASES[case])
    return buf.getvalue()


def cases():
    return [*CLI_CASES, *SUITE_CASES]


def main() -> int:
    os.makedirs(DATA, exist_ok=True)
    for case in cases():
        path = os.path.join(DATA, f"{case}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render(case))
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
