"""Smoke runs of the scripts that read suite reports or gate refactors:
theorem_sweep.py, and the two-tree checks byte_sweep.py and ab_suites.py
(each of its five mixes, and the perfbench workload operations they run),
run on one tree against itself and against a copy whose help screen differs
by one character or whose sampler returns its rows in C order; and
make_golden.py's report of the values a regeneration moves."""

import importlib
import os
import shutil
import sys

import numpy as np
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


#: per mix, the ops a smoke run takes and the kinds they cover
SMOKE_RUNS = {
    "window": (4, ["kt", "sample"]),
    "identity": (2, ["identity"]),
    "sampler": (2, ["sampler"]),
    "origin": (40, ["n3", "n4"]),  # origin_scan's first n4 profile is its 28th
    "pair": (4, ["pair"]),
}


@pytest.mark.parametrize("mix", SMOKE_RUNS)
def test_ab_suites_reads_every_output_byte_equal(capsys, mix):
    n_ops, kinds = SMOKE_RUNS[mix]
    argv = [SRC, SRC, "--mix", mix, "--rounds", "2", "--ops", str(n_ops)]
    assert ab_suites.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{mix} mix, {n_ops} ops x 2 rounds, seed 1831; every output byte-equal"
    assert [line.split()[0] for line in lines[2:]] == kinds


#: the perfbench workload class each mix runs the operations of
WORKLOADS = {
    "window": "McWindow",
    "identity": "IdentityBulk",
    "sampler": "IdentityBulk",
    "origin": "OriginScan",
    "pair": "PairBridge",
}


def workload_ops(mix, seed):
    """The workload behind the mix, and its operations the mix runs, in
    order, as (kind, label, operation)."""
    wl = getattr(ab_suites.workloads, WORKLOADS[mix])(seed)
    if mix == "window":
        return wl, [(op[0], " ".join(op), op) for op in wl.ops]
    if mix == "identity":
        label = "identity --count 100000 --seed {}"
        return wl, [(mix, label.format(op[1]), op) for op in wl.ops if op[0] == mix]
    if mix == "sampler":
        label = "sampler theta set {2}, seed {1}"
        return wl, [(mix, label.format(*op), op) for op in wl.ops if op[0] == mix]
    if mix == "origin":
        return wl, [(op[0][0], f"{op[0][0]} {op[0][1:]}", op) for op in wl.ops]
    return wl, [(mix, f"pair {i}, dim {len(g)}", i) for i, (g, _) in enumerate(wl.pairs)]


def call_output(out):
    """A workload's run of an operation, in the form an ab_suites op returns it."""
    if isinstance(out, np.ndarray):  # a sampler draw
        return out.tobytes(), out.flags.f_contiguous
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if hasattr(out, "to_dict"):  # a winding report
        return repr(out.to_dict())
    if len(out) == 3:  # a pair, its spectrum and its phase
        return [float(x).hex() for x in (*out[1].values, out[2])]
    return out  # a CLI call's exit code and stdout


@pytest.mark.parametrize("mix", sorted(WORKLOADS))
def test_ab_suites_mix_runs_its_workloads_first_ops(mix):
    # --seed seeds the workload; past its last operation the mix starts over
    wl, want = workload_ops(mix, 7)
    n_ops = len(want) + 3
    got = ab_suites.mix_ops(mix, n_ops, 7)
    assert [op[:2] for op in got] == [op[:2] for op in (want * 2)[:n_ops]]
    pkg = ab_suites.load_tree(SRC, "dhym_mix")
    importlib.import_module("dhym_mix.cli")
    api = ab_suites.workloads.dhym_api()
    for (_, _, call), (_, _, op) in zip(got[:2], want):
        assert call(pkg)[0] == call_output(wl.run(api, op))


def test_ab_suites_origin_op_compares_the_degenerate_message():
    # ("n3", 2, 1, -4, 5) is an origin hit of the grid: no report, an error message
    key = ("n3", 2, 1, -4, 5)
    profile = dict(ab_suites.workloads.OriginScan(1831).ops)[key]
    pkg = ab_suites.load_tree(SRC, "dhym_origin")
    kind, _, call = ab_suites.origin_op(key, profile)
    out, _ = call(pkg)
    assert kind == "n3" and out.startswith("DegeneratePathError: ")


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
