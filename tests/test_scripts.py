"""Smoke runs of the scripts that read suite reports or gate refactors:
theorem_sweep.py, and the two-tree checks byte_sweep.py and ab_suites.py
(its window, sampler, origin and pair mixes), run on one tree against
itself and against a copy whose help screen differs by one character or
whose sampler returns its rows in C order; and make_golden.py's report of
the values a regeneration moves."""

import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import ab_suites  # noqa: E402
import byte_sweep  # noqa: E402
import make_golden  # noqa: E402
import theorem_sweep  # noqa: E402


def test_theorem_sweep_passes_every_bin(capsys):
    assert theorem_sweep.main(["--count", "200", "--bins", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("theta in [") and "  ok   200 samples" in line for line in lines[:2])
    assert lines[2] == "sweep: all bins pass"


def test_byte_sweep_reads_no_difference_on_one_tree(capsys):
    assert byte_sweep.main([SRC, SRC, "--argvs", "40"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["40 argvs over 8 subcommands, seed 21: 0 differ"]


def test_byte_sweep_finds_a_changed_help_screen(capsys, tmp_path):
    change = tmp_path / "src"
    shutil.copytree(
        os.path.join(SRC, "dhym"), change / "dhym", ignore=shutil.ignore_patterns("__pycache__")
    )
    cli = change / "dhym" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    description = 'description="Verification toolkit for dHYM Chern-number inequalities.",'
    assert text.count(description) == 1
    cli.write_text(text.replace(description, description.replace('.",', '.!",')), encoding="utf-8")
    assert byte_sweep.main([SRC, str(change), "--argvs", "40"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["differs: -h", "40 argvs over 8 subcommands, seed 21: 1 differ"]


def test_ab_suites_reads_every_output_byte_equal(capsys):
    assert ab_suites.main([SRC, SRC, "--rounds", "2", "--ops", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "window mix, 4 ops x 2 rounds, seed 1831; every output byte-equal"
    assert [line.split()[0] for line in out.splitlines()[2:]] == ["kt", "sample"]


def test_ab_suites_sampler_mix_reads_every_draw_byte_equal(capsys):
    assert ab_suites.main([SRC, SRC, "--mix", "sampler", "--rounds", "2", "--ops", "2"]) == 0
    out = capsys.readouterr().out
    head = "sampler mix, 2 ops x 2 rounds, seed 1831; every output byte-equal"
    assert out.splitlines()[0] == head
    assert [line.split()[0] for line in out.splitlines()[2:]] == ["sampler"]


def test_ab_suites_origin_mix_reads_every_report_byte_equal(capsys):
    assert ab_suites.main([SRC, SRC, "--mix", "origin", "--rounds", "2", "--ops", "4"]) == 0
    out = capsys.readouterr().out
    head = "origin mix, 4 ops x 2 rounds, seed 1831; every output byte-equal"
    assert out.splitlines()[0] == head
    assert [line.split()[0] for line in out.splitlines()[2:]] == ["blowup", "n4"]


def test_ab_suites_origin_op_compares_the_degenerate_message():
    # (2, 1, -4, 5) is an origin hit of the grid: no report, an error message
    pkg = ab_suites.load_tree(SRC, "dhym_origin")
    kind, _, call = ab_suites.origin_op("blowup", (2, 1, -4, 5))
    out, _ = call(pkg)
    assert kind == "blowup" and out.startswith("DegeneratePathError: ")


def test_ab_suites_pair_mix_reads_every_pair_byte_equal(capsys):
    assert ab_suites.main([SRC, SRC, "--mix", "pair", "--rounds", "2", "--ops", "4"]) == 0
    out = capsys.readouterr().out
    head = "pair mix, 4 ops x 2 rounds, seed 1831; every output byte-equal"
    assert out.splitlines()[0] == head
    assert [line.split()[0] for line in out.splitlines()[2:]] == ["pair"]


def test_ab_suites_sampler_mix_finds_a_changed_layout(tmp_path):
    # the same row bytes in C order: only the F-contiguity tells them apart
    change = tmp_path / "src"
    shutil.copytree(
        os.path.join(SRC, "dhym"), change / "dhym", ignore=shutil.ignore_patterns("__pycache__")
    )
    sampling = change / "dhym" / "sampling.py"
    text = sampling.read_text(encoding="utf-8")
    rows, c_rows = "return sort_rows(lam)\n", "return np.ascontiguousarray(sort_rows(lam))\n"
    assert text.count(rows) == 1
    sampling.write_text(text.replace(rows, c_rows), encoding="utf-8")
    with pytest.raises(SystemExit, match="outputs differ for sampler theta set 0"):
        ab_suites.main([SRC, str(change), "--mix", "sampler", "--rounds", "1", "--ops", "1"])


def test_make_golden_names_the_moved_keys_and_their_ulp():
    old = '{"count": 1000, "attempts": 12288, "m": {"k1": 0.1, "k2": 2, "z": 0.0}, "pass": true}'
    new = '{"count": 1000, "attempts": 10894, "m": {"k1": 0.10000000000000003, "k2": 2, "z": -0.0}}'
    assert make_golden.moved(old, new) == [
        "attempts: 12288 -> 10894",
        "m.k1: 0.1 -> 0.10000000000000003 (2 ulp)",
        "m.z: 0.0 -> -0.0 (0 ulp)",
        "pass: True -> 'absent'",
    ]
    assert make_golden.moved(old, old) == []
    # a list entry, a float printed as an integer, and a CSV trace's cells
    assert make_golden.moved('{"d": [1, 2.5]}', '{"d": [1.0000000000000002, 2.5]}') == [
        "d[0]: 1 -> 1.0000000000000002 (1 ulp)"
    ]
    trace = "t,re,im\n1,0.5,-1\n2,0.25,-4\n"
    assert make_golden.moved(trace, trace.replace("0.25", "0.25000000000000006")) == [
        "[1].re: 0.25 -> 0.25000000000000006 (1 ulp)"
    ]
