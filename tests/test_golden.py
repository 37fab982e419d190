"""Output of fixed-seed `dhym` runs (sample, kt, path with its CSV trace,
angle, consistency, a degenerate path) and a mixed-branch theorem suite,
compared byte for byte with files written by scripts/make_golden.py."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

from make_golden import DATA, cases, exit_code, render  # noqa: E402


@pytest.mark.parametrize("case", cases())
def test_golden_bytes(case):
    code, files = render(case)
    assert code == exit_code(case)
    stored = [name for name in os.listdir(DATA) if name.rsplit(".", 1)[0] == case]
    assert sorted(files) == sorted(stored)
    for name, got in files.items():
        with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
            assert got == fh.read(), name
