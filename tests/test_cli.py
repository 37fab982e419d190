import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dhym.cli import MAX_SAMPLES, main
from dhym.serialize import dumps, format_float, load_json, parse_pair, parse_profile

PAIR_2345 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "pair_2345.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(path, obj):
    path.write_text(dumps(obj) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def profile_2345(tmp_path, capsys):
    spec = write(tmp_path / "spec.json", {"model": "constant", "lambda": [2, 3, 4, 5]})
    out = tmp_path / "profile.json"
    assert main(["model", "--spec", spec, "--out", str(out)]) == 0
    capsys.readouterr()  # drain the fixture's stdout
    return str(out)


def test_model_materialises_profile(capsys, tmp_path):
    spec = write(tmp_path / "m.json", {"model": "constant", "lambda": [2, 3, 4, 5]})
    code, out = run_cli(capsys, "model", "--spec", spec)
    assert code == 0
    profile = json.loads(out)
    assert profile["n"] == 4
    assert profile["d"] == [1, 3.5, pytest.approx(71 / 6), 38.5, 120]


def test_model_blowup_and_weighted(capsys, tmp_path):
    spec = write(
        tmp_path / "b.json", {"model": "blowup_p3", "omega": [2, 1], "alpha": [1, 0]}
    )
    code, out = run_cli(capsys, "model", "--spec", spec)
    assert code == 0
    assert json.loads(out)["d"] == [7, 4, 2, 1]

    spec = write(
        tmp_path / "w.json",
        {
            "model": "weighted",
            "points": [
                {"w": 0.5, "lambda": [0, 0, 0, 0]},
                {"w": 0.5, "lambda": [1, 1, 1, 1]},
            ],
        },
    )
    code, out = run_cli(capsys, "model", "--spec", spec)
    assert code == 0
    data = json.loads(out)
    assert data["d"] == [1, 0.5, 0.5, 0.5, 0.5]
    assert data["synthetic"] is True


def test_check_passes_on_strict_model(capsys, profile_2345):
    code, out = run_cli(capsys, "check", "--profile", profile_2345)
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["pass"] is True
    assert report["entries"]["first"]["margin"] == 35
    assert report["entries"]["second"]["margin"] == pytest.approx(6615.0, abs=1e-6)


def test_check_boundary_exit_code(capsys, tmp_path):
    path = write(tmp_path / "ones.json", {"n": 4, "d": [1, 1, 1, 1, 1]})
    code, out = run_cli(capsys, "check", "--profile", path)
    assert code == 1
    entry = json.loads(out)["reports"][0]["entries"]["first"]
    assert entry["margin"] == 0
    assert entry["boundary"] is True


def test_check_n3(capsys, tmp_path):
    path = write(tmp_path / "n3.json", {"n": 3, "d": [1, 2, 11 / 3, 6]})
    code, out = run_cli(capsys, "check", "--profile", path)
    assert code == 0
    assert json.loads(out)["reports"][0]["label"] == "chern_n3"


def test_path_emits_csv_trace(capsys, tmp_path, profile_2345):
    csv_path = tmp_path / "trace.csv"
    code, out = run_cli(
        capsys, "path", "--profile", profile_2345, "--samples", "64", "--out", str(csv_path)
    )
    assert code == 0
    report = json.loads(out)
    assert report["winding"]["theta_alg"] == pytest.approx(5.05541292, abs=1e-8)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,re,im,arg_lift"
    # floats round-trip exactly at 17 significant digits
    for line in lines[1:]:
        for field in line.split(","):
            assert format_float(float(field)) == field
    t0 = [float(line.split(",")[0]) for line in lines[1:]]
    assert t0[0] == 1.0 and t0 == sorted(t0)
    # re/im columns are the central charge itself
    from dhym import z_of_t

    profile = parse_profile(load_json(profile_2345))
    for line in lines[1:8]:
        t, re, im, _ = (float(x) for x in line.split(","))
        z = z_of_t(profile, t)
        assert re == pytest.approx(z.real, abs=1e-12 * max(1, abs(z)))
        assert im == pytest.approx(z.imag, abs=1e-12 * max(1, abs(z)))


def test_path_degenerate_exit_2(capsys, tmp_path):
    path = write(tmp_path / "deg.json", {"n": 4, "d": [1, 1, 1, 4, 8]})
    code, out = run_cli(capsys, "path", "--profile", path)
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "degenerate-path"
    assert report["origin_hit"] == pytest.approx(2.0, abs=1e-9)


def test_angle_agreement(capsys, profile_2345):
    code, out = run_cli(capsys, "angle", "--profile", profile_2345)
    assert code == 0
    report = json.loads(out)
    assert report["analytic_angle"] == pytest.approx(report["theta_alg"], abs=1e-9)
    assert report["t_star"] == pytest.approx(math.sqrt(11), abs=1e-12)


def test_sample_suite(capsys):
    code, out = run_cli(capsys, "sample", "--theta", "5.0", "--count", "50", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["count"] == 50


def test_identity_suite_cli(capsys):
    code, out = run_cli(capsys, "identity", "--count", "2000", "--seed", "1")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_kt_profile_and_random(capsys, tmp_path):
    path = write(tmp_path / "p.json", {"n": 4, "d": [1, 2.5, 35 / 6, 12.5, 24]})
    code, out = run_cli(capsys, "kt", "--profile", path)
    assert code == 0
    labels = [r["label"] for r in json.loads(out)["reports"]]
    assert labels == ["kt_chain", "integrated_sigma_chain"]

    code, out = run_cli(capsys, "kt", "--count", "500", "--seed", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_consistency_cli(capsys):
    code, out = run_cli(capsys, "consistency", "--lambda", "2,3,4,5")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["theta_alg"] == pytest.approx(5.05541292, abs=1e-8)


def test_consistency_pair_cli(capsys):
    code, out = run_cli(capsys, "consistency", "--pair", PAIR_2345)
    assert code == 0
    report = json.loads(out)
    eigenvalues = ",".join(map(repr, report["lambda"]))
    _, by_lambda = run_cli(capsys, "consistency", "--lambda", eigenvalues)
    # the --lambda report of the pair's spectrum, then the solve's diagnostics
    assert [*json.loads(by_lambda)][:-1] == [*report][:-3]
    assert [*report][-3:] == ["residual_rel", "cond_G", "pass"]
    assert report["lambda"] == pytest.approx([2.0, 3.0, 4.0, 5.0], rel=1e-14)
    assert report["phase"] == pytest.approx(5.0554129208, abs=1e-9)
    assert report["pass"] is True
    pair = parse_pair(load_json(PAIR_2345))
    assert report["residual_rel"] == pair.eigensystem[2] <= 1e-9
    assert report["cond_G"] == np.linalg.cond(pair.G)


@pytest.mark.parametrize(
    "argv",
    [["--lambda", "2,3,4,5", "--pair", PAIR_2345], []],
    ids=["both", "neither"],
)
def test_consistency_takes_lambda_or_pair(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["consistency", *argv])
    assert exc.value.code == 2
    assert "--lambda" in capsys.readouterr().err


def _matrix(re) -> dict:
    n = len(re)
    return {"dim": n, "re": re, "im": [[0] * n for _ in range(n)]}


_EYE2 = _matrix([[1, 0], [0, 1]])
_EYE3 = _matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
#: pair file -> (error, message) of `consistency --pair`
BAD_PAIRS = {
    "indefinite-G": (
        {"G": _matrix([[1, 0], [0, -1]]), "A": _EYE2},
        ("InvalidPairError", "metric is not positive definite: Cholesky pivot 1 is -1.000000e+00"),
    ),
    "non-hermitian-A": (
        {"G": _EYE2, "A": _matrix([[1, 2], [0, 1]])},
        ("InvalidPairError", "A is not Hermitian: relative deviation 1.155e+00"),
    ),
    "empty": (
        {"G": _matrix([]), "A": _matrix([])},
        ("InvalidPairError", "G must be a non-empty square matrix, got shape (0, 0)"),
    ),
    "dim-mismatch": (
        {"G": _EYE2, "A": _EYE3},
        ("InvalidPairError", "shape mismatch: G (2, 2) vs A (3, 3)"),
    ),
    "malformed": ({"G": _EYE2}, ("DomainError", "malformed matrix pair: 'A'")),
    "subnormal-G": (
        {"G": _matrix([[1e-310, 0, 0], [0, 1e-310, 0], [0, 0, 1e-310]]), "A": _EYE3},
        ("ConvergenceError", "eigenpair residual nan exceeds 1.0e-09 * ||A||"),
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("document, error", BAD_PAIRS.values(), ids=BAD_PAIRS.keys())
def test_consistency_bad_pair_exit_2(capsys, tmp_path, document, error):
    code = main(["consistency", "--pair", write(tmp_path / "pair.json", document)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"error": error[0], "message": error[1]}
    assert captured.err == ""


def test_determinism_byte_identical(capsys):
    _, first = run_cli(capsys, "sample", "--theta", "4.2", "--count", "30", "--seed", "5")
    _, second = run_cli(capsys, "sample", "--theta", "4.2", "--count", "30", "--seed", "5")
    assert first == second
    _, third = run_cli(capsys, "sample", "--theta", "4.2", "--count", "30", "--seed", "6")
    assert first != third


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("DHYM_SEED", "5")
    _, via_env = run_cli(capsys, "sample", "--theta", "4.2", "--count", "30")
    monkeypatch.delenv("DHYM_SEED")
    _, explicit = run_cli(capsys, "sample", "--theta", "4.2", "--count", "30", "--seed", "5")
    assert via_env == explicit


@pytest.mark.parametrize("value", ["abc", "1.5", "", "-7"])
def test_env_seed_invalid_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("DHYM_SEED", value)
    code, out = run_cli(capsys, "sample", "--theta", "4.2", "--count", "30")
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "DomainError"
    assert "DHYM_SEED" in report["message"]


@pytest.mark.parametrize("command", [["identity"], ["kt"], ["sample", "--theta", "4.2"]])
def test_negative_seed_exit_2(capsys, command):
    code, out = run_cli(capsys, *command, "--count", "30", "--seed", "-1")
    assert code == 2
    report = json.loads(out)
    assert report == {"error": "DomainError", "message": "--seed must be non-negative, got -1"}


def test_profile_json_round_trip(capsys, profile_2345, tmp_path):
    code, out = run_cli(capsys, "model", "--spec", str(tmp_path / "missing.json"))
    assert code == 2  # missing spec file

    text = open(profile_2345, encoding="utf-8").read()
    parsed = json.loads(text)
    assert dumps(parsed) + "\n" == text  # emit(parse(x)) == x


def test_kt_rejects_threefold_profile(capsys, tmp_path):
    path = write(tmp_path / "n3.json", {"n": 3, "d": [1, 2, 11 / 3, 6]})
    code, out = run_cli(capsys, "kt", "--profile", path)
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("values", ["-0.5,1,2,3", "-.5,1,2,3", "-2,-1,3,4", "2,3,4,5"])
def test_consistency_lambda_forms_agree(capsys, values):
    # a leading negative eigenvalue must not be read as an option
    spaced = run_cli(capsys, "consistency", "--lambda", values)
    joined = run_cli(capsys, "consistency", f"--lambda={values}")
    assert spaced == joined
    assert spaced[0] in (0, 1)
    assert json.loads(spaced[1])["lambda"][0] == float(values.split(",")[0])


def test_consistency_rejects_malformed_lambda(capsys):
    code, out = run_cli(capsys, "consistency", "--lambda", "2,three,4,5")
    assert code == 2
    assert json.loads(out)["error"] == "DomainError"


def test_sample_outside_window_exit_2(capsys):
    code, out = run_cli(capsys, "sample", "--theta", "2.0", "--count", "10")
    assert code == 2
    assert json.loads(out)["error"] == "DomainError"


@pytest.mark.parametrize(
    "argv",
    [["sample", "--theta", "abc"], ["bogus"], []],
    ids=["non-numeric-option", "unknown-command", "no-command"],
)
def test_usage_error_exit_2_without_json(capsys, argv):
    # argparse rejects the argv before a subcommand runs: usage on stderr only
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: dhym")


def test_invalid_inputs_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out = run_cli(capsys, "check", "--profile", str(bad))
    assert code == 2
    assert "error" in json.loads(out)

    n5 = write(tmp_path / "n5.json", {"n": 5, "d": [1, 0, 0, 0, 0, 0]})
    code, _ = run_cli(capsys, "check", "--profile", str(n5))
    assert code == 2

    neg = write(tmp_path / "neg.json", {"n": 4, "d": [-1, 0, 0, 0, 0]})
    code, _ = run_cli(capsys, "check", "--profile", str(neg))
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        '{"model": "weighted", "points": [{"w": "abc", "lambda": [1, 2, 3, 4]}]}',
        '{"model": "weighted", "points": [{"w": 1, "lambda": [1, "x", 3, 4]}]}',
        '{"model": "constant", "lambda": [1, "x", 3, 4]}',
        '{"model": "blowup_p3", "omega": ["x", 1], "alpha": [1, 1]}',
        # float() takes these; the readers must not
        '{"model": "constant", "lambda": [1, true, 3, 4]}',
        '{"model": "constant", "lambda": [1, "4", 3, 4]}',
        '{"model": "weighted", "points": [{"w": true, "lambda": [1, 2, 3, 4]}]}',
        '{"model": "weighted", "points": [{"w": 1, "lambda": [1, 2, "3", 4]}]}',
        '{"model": "blowup_p3", "omega": ["2", 1], "alpha": [1, 1]}',
        '{"model": "blowup_p3", "omega": [2, 1], "alpha": [1, false]}',
    ],
    ids=[
        "weighted-w",
        "weighted-lambda",
        "constant-lambda",
        "blowup-omega",
        "constant-lambda-true",
        "constant-lambda-numeric-string",
        "weighted-w-true",
        "weighted-lambda-numeric-string",
        "blowup-omega-numeric-string",
        "blowup-alpha-false",
    ],
)
def test_model_spec_non_numeric_exit_2(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec, encoding="utf-8")
    code, out = run_cli(capsys, "model", "--spec", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "DomainError"
    assert "could not convert" in report["message"]


@pytest.mark.parametrize(
    "profile",
    [
        '{"n": 4, "d": [1, "x", 1, 1, 1]}',
        '{"n": "abc", "d": [1, 1, 1, 1, 1]}',
        '{"n": 1e999, "d": [1, 1, 1, 1, 1]}',
        '{"n": 4.9, "d": [1, 1, 1, 1, 1]}',
        '{"n": 4, "d": [1, 1, 1, 1, 1], "synthetic": "false"}',
        '{"n": 4, "d": [1, 1, 1, 1, 1], "synthetic": 1}',
        '{"n": 4, "d": ["1", "2", "3", "4", "5"]}',
        '{"n": 4, "d": [true, 2, 3, 4, 5]}',
        '{"n": 4, "d": [1, 2, null, 4, 5]}',
    ],
    ids=[
        "d-string",
        "n-string",
        "n-inf",
        "n-fraction",
        "synthetic-string",
        "synthetic-int",
        "d-numeric-strings",
        "d-true",
        "d-null",
    ],
)
def test_profile_non_numeric_exit_2(capsys, tmp_path, profile):
    path = tmp_path / "profile.json"
    path.write_text(profile, encoding="utf-8")
    code, out = run_cli(capsys, "check", "--profile", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "DomainError"
    assert report["message"].startswith("malformed profile object")


@pytest.mark.parametrize(
    "argv",
    [
        ["path", "--samples", "0"],
        ["path", "--samples", "-5"],
        ["path", "--samples", "100001"],
        ["sample", "--theta", "4.0", "--count", "1000001"],
        ["identity", "--count", "100000000"],
        ["kt", "--count", "1000001"],
    ],
    ids=["samples-0", "samples-neg", "samples-big", "sample", "identity", "kt"],
)
def test_size_bounds_exit_2(capsys, profile_2345, argv):
    if argv[0] == "path":
        argv = [argv[0], "--profile", profile_2345, *argv[1:]]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "DomainError"
    assert report["message"].startswith(("--samples must be in 2..", "--count must be at most"))


def _json_bytes(value) -> bytes:
    # the standard encoder writes NaN and Infinity, which json.load reads back
    return json.dumps(value).encode()


def _nested(depth: int) -> bytes:
    return b"[" * depth + b"]" * depth


_numbers = st.integers() | st.floats()
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(st.text(max_size=5), kids, max_size=5),
    max_leaves=12,
)
_floats = st.lists(_numbers, max_size=6)
_matrices = st.fixed_dictionaries(
    {
        "dim": st.integers(-1, 4) | _json,
        "re": st.lists(_floats, max_size=4) | _json,
        "im": st.lists(_floats, max_size=4) | _json,
    }
)
_shaped = st.one_of(
    st.fixed_dictionaries(
        {"n": st.integers(-1, 6) | _json, "d": _floats}, optional={"synthetic": _json}
    ),
    st.fixed_dictionaries({"model": st.just("constant"), "lambda": _floats | _json}),
    st.fixed_dictionaries(
        {
            "model": st.just("weighted"),
            "points": st.lists(
                st.fixed_dictionaries({"w": _numbers | _json, "lambda": _floats}), max_size=3
            ),
        }
    ),
    st.fixed_dictionaries(
        {"model": st.just("blowup_p3"), "omega": _floats | _json, "alpha": _floats | _json}
    ),
    st.fixed_dictionaries({"G": _matrices, "A": _matrices}),
)
_documents = st.one_of(
    (_json | _shaped).map(_json_bytes),
    st.binary(max_size=40),
    st.integers(1, 5000).map(_nested),
)
#: inputs that once ended in a traceback (exit 1) instead of exit 2
UNREADABLE = {
    "not-utf8": b'{"n": 4, "d": [1, 2, 3, 4, 5], "note": "\xff"}',
    "nested-200000": _nested(200_000),
    "blowup-alpha-overflow": _json_bytes(
        {"model": "blowup_p3", "omega": [2, 1], "alpha": [1e200, 1]}
    ),
    "blowup-omega-overflow": _json_bytes(
        {"model": "blowup_p3", "omega": [1e200, 1], "alpha": [1, 1]}
    ),
}
#: n = 10**4300 - 1, the largest n a JSON integer holds: n + 1 has more
#: digits than int's str() converts
HUGE_N = b'{"n": ' + b"9" * 4300 + b', "d": [1, 1, 1, 1, 1]}'
#: valid trace sizes stay small; large ones only on the rejection path
_samples = (
    st.integers(2, 200) | st.integers(max_value=1) | st.integers(min_value=MAX_SAMPLES + 1)
)
_eigenvalues = st.text(max_size=30) | st.lists(_numbers, max_size=6).map(
    lambda v: ",".join(map(repr, v))
)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_documents, _samples, _eigenvalues)
@example(UNREADABLE["not-utf8"], 129, "2,3,4,5")
@example(UNREADABLE["nested-200000"], 129, "2,3,4,5")
@example(UNREADABLE["blowup-alpha-overflow"], 129, "")
@example(UNREADABLE["blowup-omega-overflow"], 129, "")
@example(HUGE_N, 129, "1e100,1e100,1e100,1e100")
def test_outside_input_keeps_exit_code_contract(tmp_path, document, samples, eigenvalues):
    # exit code 0, 1 or 2, exactly one JSON document on stdout, an "error"
    # key with code 2, and no exception out of main
    path = tmp_path / "input.json"
    path.write_bytes(document)
    f = str(path)
    for argv in (
        ["check", "--profile", f],
        ["path", "--profile", f, "--samples", str(samples)],
        ["angle", "--profile", f],
        ["kt", "--profile", f],
        ["model", "--spec", f],
        ["consistency", f"--lambda={eigenvalues}"],
        ["consistency", "--pair", f],
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code in (0, 1, 2), argv
        report = json.loads(buf.getvalue())
        if code == 2:
            assert "error" in report, argv


@pytest.mark.parametrize("document", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_input_exit_2(capsys, tmp_path, document):
    path = tmp_path / "input.json"
    path.write_bytes(document)
    code, out = run_cli(capsys, "model", "--spec", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "DomainError"


def test_dimension_beyond_digit_limit_exit_2(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(HUGE_N)
    code, out = run_cli(capsys, "check", "--profile", str(path))
    assert code == 2
    assert json.loads(out) == {
        "error": "DomainError",
        "message": "need n + 1 intersection numbers, got 5",
    }
    path.write_bytes(b'{"n": 6, "d": [1, 1, 1, 1, 1]}')
    code, out = run_cli(capsys, "check", "--profile", str(path))
    assert json.loads(out)["message"] == "need 7 intersection numbers, got 5"


def test_overflow_prints_no_numpy_warning():
    proc = subprocess.run(
        [sys.executable, "-m", "dhym", "consistency", "--lambda=1e100,1e100,1e100,1e100"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "DomainError"
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, document",
    [
        (["angle", "--profile"], {"n": 4, "d": [2, 1.7e308, 6e266, 1.7e308, 1e-134]}),
        (["angle", "--profile"], {"n": 3, "d": [0.125, -1e200, -1.7e308, 1e28]}),
        (["check", "--profile"], {"n": 4, "d": [1, 1e200, 1e200, 1e200, 1e200]}),
        (
            ["model", "--spec"],
            {
                "model": "weighted",
                "points": [
                    {"w": 0.5, "lambda": [-3, 1e200, 1e103, 1e26]},
                    {"w": 0.5, "lambda": [1e300, 1e-147, 1e77, 1]},
                ],
            },
        ),
    ],
    ids=["angle-phase-sum", "angle-im-root", "check-margins", "weighted-sum"],
)
def test_near_double_range_warns_nothing(capsys, tmp_path, argv, document):
    code, out = run_cli(capsys, *argv, write(tmp_path / "input.json", document))
    assert code in (0, 1, 2)
    json.loads(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["path", "angle"])
def test_underflowing_leading_coefficient_keeps_exit_code(capsys, tmp_path, command):
    # the leading coefficient of d|Z|^2/dt underflows next to the others, so
    # an undivided companion matrix would hold inf
    document = {"n": 3, "d": [0.06035977986144481, 3.768920191070875e152, -1.777888278895281, 1e150]}
    argv = [command, "--profile", write(tmp_path / "input.json", document)]
    if command == "path":
        argv += ["--out", str(tmp_path / "trace.csv")]
    code, out = run_cli(capsys, *argv)
    assert code in (0, 2)
    json.loads(out)


def test_consistency_overflowing_central_charge_exit_2(capsys):
    code, out = run_cli(capsys, "consistency", "--lambda=-5e-324,-1.7e+308,1.0")
    assert code == 2
    assert json.loads(out)["error"] == "DomainError"


def test_angle_with_subnormal_volume(capsys, tmp_path):
    # |Z(1)| = 1/24; dividing by d_0 first would read it as inf and as zero
    document = {"n": 4, "d": [5e-324, 0, 0, 0, -1]}
    code, out = run_cli(capsys, "angle", "--profile", write(tmp_path / "input.json", document))
    assert code == 0
    assert json.loads(out)["analytic_angle"] == math.pi


def test_package_errors_share_one_base():
    from dhym import errors

    builtin = {
        "DomainError": ValueError,
        "PhaseOutsideBranchError": ValueError,
        "UndefinedAngleError": ValueError,
        "InvalidPairError": ValueError,
        "SamplingExhaustedError": RuntimeError,
        "DegeneratePathError": RuntimeError,
        "ConvergenceError": RuntimeError,
    }
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, Exception) and cls is not errors.DhymError
    }
    assert set(classes) == set(builtin)
    for name, cls in classes.items():
        assert issubclass(cls, errors.DhymError) and issubclass(cls, builtin[name]), name


def test_console_script_entry_point(tmp_path):
    spec = write(tmp_path / "spec.json", {"model": "constant", "lambda": [1, 1, 1, 1]})
    proc = subprocess.run(
        [sys.executable, "-m", "dhym", "model", "--spec", spec],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == [1, 1, 1, 1, 1]


#: peak RSS allowed for `dhym sample` and `dhym kt` at the largest --count;
#: the suites check their rows in blocks, so only the drawn tuples grow with
#: the count (about 180 and 120 MiB in all on x86-64 Linux)
SUITE_PEAK_RSS_MIB = 250
#: growth of `dhym identity`'s peak RSS from --count 1 to the largest
#: --count; it draws each row block as it folds it (about 2 MiB on x86-64
#: Linux, against 32 MiB when it held all 1e6 x 4 draws)
IDENTITY_RSS_GROWTH_MIB = 8


def _peak_rss_mib(argv) -> float:
    # Linux carries a process's peak RSS across exec, and a child starts as
    # a copy of its parent, so the run goes in a grandchild of a small
    # Python process that reports its children's ru_maxrss
    script = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'dhym', *sys.argv[1:]],"
        " stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, check=True
    )
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return int(proc.stdout) / (1024 * 1024 if sys.platform == "darwin" else 1024)


@pytest.mark.parametrize("command", [["sample", "--theta", "4.0"], ["kt"], ["identity"]])
def test_suite_peak_rss_at_max_count(command):
    pytest.importorskip("resource")
    mib = _peak_rss_mib([*command, "--count", "1000000", "--seed", "1"])
    if command == ["identity"]:
        growth = mib - _peak_rss_mib([*command, "--count", "1", "--seed", "1"])
        assert growth < IDENTITY_RSS_GROWTH_MIB, f"identity: peak RSS grew {growth:.0f} MiB"
    else:
        assert mib < SUITE_PEAK_RSS_MIB, f"{command[0]}: peak RSS {mib:.0f} MiB"
