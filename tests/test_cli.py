import json
import math
import subprocess
import sys

import pytest

from dhym.cli import main
from dhym.serialize import dumps, format_float


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
    from dhym import IntersectionProfile, z_of_t

    profile = IntersectionProfile.from_dict(json.loads(open(profile_2345).read()))
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


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_env_seed_invalid_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("DHYM_SEED", value)
    code, out = run_cli(capsys, "sample", "--theta", "4.2", "--count", "30")
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "DomainError"
    assert "DHYM_SEED" in report["message"]


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
    ],
    ids=["weighted-w", "weighted-lambda", "constant-lambda", "blowup-omega"],
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
    ],
    ids=["d-string", "n-string", "n-inf", "n-fraction", "synthetic-string", "synthetic-int"],
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


def test_console_script_entry_point(tmp_path):
    spec = write(tmp_path / "spec.json", {"model": "constant", "lambda": [1, 1, 1, 1]})
    proc = subprocess.run(
        [sys.executable, "-m", "dhym", "model", "--spec", spec],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == [1, 1, 1, 1, 1]
