"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line; run with `pytest -s`
(or read the captured output) for the summary.
"""

import json
import math
import time

import numpy as np
import pytest

from dhym import (
    HermitianPair,
    IntersectionProfile,
    check_chern_n3,
    check_chern_n4,
    constant_model,
    blowup_p3,
    identity_suite,
    kt_chain,
    kt_suite,
    lagrangian_phase,
    phase_of_pair,
    sample_level_set_batch,
    theorem_suite,
    winding_report,
    z_of_t,
)
from dhym.cli import main
from dhym.errors import DegeneratePathError
from dhym.serialize import dumps

TWO_PI = 2 * math.pi
SEED = 20240815


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _timed(fn, *args, **kwargs):
    """fn's result and the wall seconds of the whole call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def monte_carlo():
    return _timed(theorem_suite, 10000, seed=SEED)


def test_criterion_01_theorem_monte_carlo(monte_carlo):
    r, seconds = monte_carlo
    chern_margins = {k: v for k, v in r["min_margins"].items() if k.startswith("chern_n4.")}
    ok = (
        r["count"] == 10000
        and not r["failures"]
        and chern_margins["chern_n4.first"] > 0.0
        and chern_margins["chern_n4.second"] > 0.0
        and seconds < 10.0
    )
    _report(
        1,
        ok,
        f"10k samples, min first margin {chern_margins['chern_n4.first']:.3e}, "
        f"min second margin {chern_margins['chern_n4.second']:.3e}, "
        f"{seconds:.2f}s < 10s",
    )


def test_criterion_02_pointwise_branch_suite(monte_carlo):
    r, _ = monte_carlo
    branch_margins = {k: v for k, v in r["min_margins"].items() if k.startswith("branch_")}
    needed = [
        "branch_mid.sigma3_minus_sigma1",
        "branch_mid.sigma2_minus_sigma4_minus_1",
        "branch_mid.sigma2_minus_2",
        "branch_supercritical.min_eigenvalue",
        "branch_supercritical.min_pair_product",
    ]
    ok = all(k in branch_margins for k in needed) and all(
        v > 0.0 for v in branch_margins.values()
    )
    worst = min(branch_margins.values())
    _report(2, ok, f"all branch margins strictly positive, worst {worst:.3e}")


def test_criterion_03_identity_suite():
    r, seconds = _timed(identity_suite, 100000, seed=SEED)
    ok = (
        r["max_rel_product"] <= 1e-10
        and r["max_rel_factorization"] <= 1e-10
        and seconds < 5.0
    )
    _report(
        3,
        ok,
        f"1e5 tuples: product {r['max_rel_product']:.2e}, "
        f"factorization {r['max_rel_factorization']:.2e} (tol 1e-10), {seconds:.2f}s < 5s",
    )


def test_criterion_04_specific_values():
    p = constant_model((2, 3, 4, 5))
    w = winding_report(p)
    second = check_chern_n4(p).entry("second")
    quad = second["rhs"] - second["lhs"]
    z_star = z_of_t(p, math.sqrt(11.0))
    z_one = z_of_t(constant_model((1, 1, 1, 1)), 1.0)
    checks = [
        abs(w.t_star - math.sqrt(11.0)) <= 1e-12,
        abs(quad - (-6615.0)) <= 1e-6,
        abs(z_star - 22.5) <= 1e-9,
        abs(w.theta_alg - 5.05541292) <= 1e-8,
        abs(z_one - 1.0 / 6.0) <= 1e-12,
    ]
    _report(
        4,
        all(checks),
        f"T*={w.t_star!r}, quad={quad!r}, Z(sqrt11)={z_star!r}, "
        f"theta_alg={w.theta_alg!r}, Z(1)={z_one!r}",
    )


def test_criterion_05_angle_agreement():
    rng = np.random.default_rng(SEED + 1)
    thetas = rng.uniform(math.pi + 1e-3, TWO_PI - 0.01, size=1000)
    lam = sample_level_set_batch(thetas, seed=rng)
    worst = 0.0
    for row in lam:
        p = constant_model(tuple(row))
        delta = abs(winding_report(p).theta_alg - lagrangian_phase(tuple(row)))
        worst = max(worst, delta)
    _report(5, worst < 1e-9, f"1000 models, max |theta_alg - phase| = {worst:.3e} < 1e-9")


def test_criterion_06_tstar_sign_equivalence(monte_carlo):
    r, _ = monte_carlo
    ok = r["tstar_count"] == r["count"] and r["sign_mismatches"] == 0
    _report(
        6,
        ok,
        f"T* exists on {r['tstar_count']}/{r['count']} samples, "
        f"{r['sign_mismatches']} sign mismatches",
    )


def test_criterion_07_degenerate_path(tmp_path):
    with pytest.raises(DegeneratePathError) as err:
        winding_report(IntersectionProfile(4, (1, 1, 1, 4, 8)))
    hit = err.value.t_origin
    path = tmp_path / "deg.json"
    path.write_text(dumps({"n": 4, "d": [1, 1, 1, 4, 8]}), encoding="utf-8")
    code = main(["path", "--profile", str(path)])
    ok = abs(hit - 2.0) <= 1e-9 and code == 2
    _report(7, ok, f"origin hit at t = {hit!r} (want 2 +/- 1e-9), CLI exit {code}")


def test_criterion_08_kt_newton_suite():
    r = kt_suite(10000, seed=SEED + 2)
    equality_ok = True
    for c in (0.5, 1.0, 2.0):
        report = kt_chain(constant_model((c, c, c, c)))
        for entry in report.entries.values():
            scale = max(1.0, abs(entry["lhs"]), abs(entry["rhs"]))
            if not (entry["boundary"] and abs(entry["margin"]) <= 1e-12 * scale):
                equality_ok = False
    ok = r["pass"] and equality_ok
    _report(
        8,
        ok,
        f"10k Gamma3 models all pass; proportional c in (0.5, 1, 2) flagged "
        f"as equality within 1e-12",
    )


def test_criterion_09_chern_n3_grid():
    count = 0
    worst = math.inf
    for a in range(2, 11):
        for b in range(1, a):
            for c in range(1, 11):
                for e in range(0, c):
                    report = check_chern_n3(blowup_p3(a, b, c, e))
                    worst = min(worst, report.margin("chern3"))
                    assert report.passed, (a, b, c, e)
                    count += 1
    r123 = check_chern_n3(constant_model((1, 2, 3))).entry("chern3")
    r111 = check_chern_n3(constant_model((1, 1, 1))).entry("chern3")
    ok = (
        count == 2475
        and worst > 0.0
        and (r123["rhs"], r123["lhs"]) == (6.0, 66.0)
        and (r111["rhs"], r111["lhs"]) == (1.0, 9.0)
    )
    _report(
        9,
        ok,
        f"{count} Kaehler grid profiles pass (worst margin {worst:.3e}); "
        f"constant models give 6 < 66 and 1 < 9",
    )


def test_criterion_10_hermitian_bridge():
    rng = np.random.default_rng(SEED + 3)
    worst_res = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        g = m @ m.conj().T + dim * np.eye(dim)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pair = HermitianPair(g, 0.5 * (h + h.conj().T))
        w, u, _ = pair.eigensystem
        norm_a = np.linalg.norm(pair.A, 2)
        for i in range(dim):
            res = np.linalg.norm(pair.A @ u[:, i] - w.values[i] * (pair.G @ u[:, i]))
            worst_res = max(worst_res, res / max(norm_a, 1e-300))
    res_ok = worst_res <= 1e-9

    base = HermitianPair(np.eye(4), np.diag([2.0, 3.0, 4.0, 5.0]))
    theta = phase_of_pair(base)
    worst_phase = 0.0
    done = 0
    while done < 100:
        p = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if np.linalg.cond(p) > 1e3:
            continue
        pair = HermitianPair(p.conj().T @ base.G @ p, p.conj().T @ base.A @ p)
        worst_phase = max(worst_phase, abs(phase_of_pair(pair) - theta))
        done += 1
    phase_ok = worst_phase <= 1e-8
    _report(
        10,
        res_ok and phase_ok,
        f"100 pairs: worst residual {worst_res:.2e} <= 1e-9 ||A||; "
        f"100 congruences: worst phase delta {worst_phase:.2e} <= 1e-8",
    )


def test_criterion_11_cli_contract(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        dumps({"model": "constant", "lambda": [2, 3, 4, 5]}), encoding="utf-8"
    )
    profile = tmp_path / "profile.json"
    assert main(["model", "--spec", str(spec), "--out", str(profile)]) == 0
    capsys.readouterr()

    # byte determinism
    main(["sample", "--theta", "4.4", "--count", "40", "--seed", "9"])
    first = capsys.readouterr().out
    main(["sample", "--theta", "4.4", "--count", "40", "--seed", "9"])
    second = capsys.readouterr().out
    determinism_ok = first == second

    # JSON round-trip: emit(parse(text)) == text
    text = profile.read_text(encoding="utf-8")
    round_trip_ok = dumps(json.loads(text)) + "\n" == text

    # exit-code contract
    code_pass = main(["check", "--profile", str(profile)])
    capsys.readouterr()
    ones = tmp_path / "ones.json"
    ones.write_text(dumps({"n": 4, "d": [1, 1, 1, 1, 1]}), encoding="utf-8")
    code_violation = main(["check", "--profile", str(ones)])
    capsys.readouterr()
    deg = tmp_path / "deg.json"
    deg.write_text(dumps({"n": 4, "d": [1, 1, 1, 4, 8]}), encoding="utf-8")
    code_degenerate = main(["path", "--profile", str(deg)])
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{who goes there", encoding="utf-8")
    code_invalid = main(["check", "--profile", str(bad)])
    capsys.readouterr()
    codes_ok = (code_pass, code_violation, code_degenerate, code_invalid) == (0, 1, 2, 2)

    _report(
        11,
        determinism_ok and round_trip_ok and codes_ok,
        f"byte determinism {determinism_ok}, round-trip {round_trip_ok}, "
        f"exit codes (pass, violation, degenerate, invalid) = "
        f"{(code_pass, code_violation, code_degenerate, code_invalid)}",
    )
