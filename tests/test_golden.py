"""Stdout of fixed-seed `dhym sample`/`kt` runs and a mixed-branch theorem
suite, compared byte for byte with files written by scripts/make_golden.py."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

from make_golden import DATA, cases, render  # noqa: E402


@pytest.mark.parametrize("case", cases())
def test_golden_bytes(case):
    with open(os.path.join(DATA, f"{case}.json"), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert render(case) == want
