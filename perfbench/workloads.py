"""The four benchmark workloads: seeded inputs, one call per operation, oracles.

Each workload turns a seed into a list of operations, runs one operation
through an `api` namespace (the dhym entry points, wrapped in spans when
traced), and checks the outcome against an oracle that does not call the
code under test.  An operation is one verdict a user would ask for; its
items are the tuples, profiles or pairs it certifies.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from types import SimpleNamespace

import numpy as np

import dhym
from dhym import cli
from dhym.errors import DegeneratePathError
from grid import blowup_grid

HERE = os.path.dirname(os.path.abspath(__file__))
TWO_PI = 2.0 * math.pi

#: the level-set phase every sampled row must reproduce
PHASE_TOL = 1e-12
#: |theta_alg - sum(arctan lambda)| allowed on n = 4 profiles
ANGLE_TOL = 1e-9
#: spectrum error allowed per unit of cond(G), relative to max|eigenvalue|
SPECTRUM_REL_PER_COND = 1e-13


def dhym_api():
    """The entry points the workloads call, unwrapped."""
    return SimpleNamespace(
        cli_main=cli.main,
        sample_level_set_batch=dhym.sample_level_set_batch,
        winding_report=dhym.winding_report,
        HermitianPair=dhym.HermitianPair,
        relative_spectrum=dhym.relative_spectrum,
        phase_of_pair=dhym.phase_of_pair,
    )


class Check:
    """Outcome of one oracle check: `ok`, the items certified, layer counters."""

    __slots__ = ("ok", "items", "counters")

    def __init__(self, ok, items, counters=None):
        self.ok = bool(ok)
        self.items = items
        self.counters = counters or {}


def _cli(api, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli_main(argv)
    return code, buf.getvalue()


def _cli_report(out, count):
    """Exit code 0 and a passing report over `count` items."""
    code, text = out
    report = json.loads(text)
    ok = code == 0 and report.get("pass") is True and report.get("count") == count
    return report, ok, {"bytes_out": len(text.encode())}


class McWindow:
    """`dhym sample --theta t --count 1000` alternating with `dhym kt --count 1000`."""

    name = "mc_window"
    kernel = "python"  # speed probe, see calibrate.py
    count = 1000
    n_ops = 512
    trace_ops = 4

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        thetas = rng.uniform(math.pi + 0.01, TWO_PI - 0.01, size=self.n_ops // 2)
        seeds = rng.integers(0, 2**31, size=self.n_ops)
        self.ops = []
        for i in range(self.n_ops):
            if i % 2 == 0:
                argv = ["sample", "--theta", repr(float(thetas[i // 2]))]
            else:
                argv = ["kt"]
            argv += ["--count", str(self.count), "--seed", str(int(seeds[i]))]
            self.ops.append(tuple(argv))

    def inputs(self):
        return self.ops

    def run(self, api, op):
        return _cli(api, list(op))

    def check(self, op, out):
        report, ok, counters = _cli_report(out, self.count)
        if op[0] == "sample":
            ok = ok and report["max_phase_error"] < PHASE_TOL
            counters["sampler_rows"] = self.count  # the suite draws `count` rows
        else:
            counters["kt_count"] = report["count"]
            counters["kt_attempts"] = report["attempts"]
        return Check(ok, self.count, counters)


class IdentityBulk:
    """`dhym identity --count 100000` alternating with 1e5-row sampler draws."""

    name = "identity_bulk"
    kernel = "array"  # speed probe, see calibrate.py
    count = 100_000
    n_ops = 512
    n_theta_sets = 4
    trace_ops = 4

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.thetas = [
            rng.uniform(-math.pi + 0.01, math.pi - 0.01, size=self.count)
            for _ in range(self.n_theta_sets)
        ]
        seeds = rng.integers(0, 2**31, size=self.n_ops)
        self.ops = []
        for i in range(self.n_ops):
            if i % 2 == 0:
                self.ops.append(("identity", int(seeds[i])))
            else:
                self.ops.append(("sampler", int(seeds[i]), (i // 2) % self.n_theta_sets))

    def inputs(self):
        return self.ops, self.thetas

    def run(self, api, op):
        if op[0] == "identity":
            return _cli(api, ["identity", "--count", str(self.count), "--seed", str(op[1])])
        return api.sample_level_set_batch(self.thetas[op[2]], seed=op[1])

    def check(self, op, out):
        if op[0] == "identity":
            _, ok, counters = _cli_report(out, self.count)
            # float64 arrays the suite builds per row: 4 eigenvalues, 5 sigmas,
            # 4 complex factors of prod(1 + i*lambda)
            counters["identity_bytes"] = self.count * (4 * 8 + 5 * 8 + 4 * 16)
            return Check(ok, self.count, counters)
        theta = self.thetas[op[2]]
        ok = (
            out.shape == (self.count, 4)
            and bool(np.all(np.isfinite(out)))
            and bool(np.all(np.diff(out, axis=1) >= 0.0))
            and float(np.max(np.abs(np.arctan(out).sum(axis=1) - theta))) < PHASE_TOL
        )
        return Check(ok, self.count, {"sampler_rows": self.count})


def level_set_tuples(rng, count, lo, hi, eps=1e-3):
    """`count` tuples tan(u) with u uniform in the clipped box and
    sum(u) in (lo, hi); drawn here, independently of dhym's sampler."""
    half = 0.5 * math.pi - eps
    rows = []
    have = 0
    while have < count:
        u = rng.uniform(-half, half, size=(8 * count, 4))
        s = u.sum(axis=1)
        keep = u[(s > lo) & (s < hi)]
        rows.append(keep)
        have += len(keep)
    return np.sort(np.tan(np.concatenate(rows)[:count]), axis=1)


def constant_profile_d(lam):
    """d_k = sigma_k(lambda) / C(4, k), the constant model of a 4-tuple."""
    e = [1.0, 0.0, 0.0, 0.0, 0.0]
    for v in lam:
        for k in range(4, 0, -1):
            e[k] += v * e[k - 1]
    return tuple(e[k] / math.comb(4, k) for k in range(5))


class OriginScan:
    """One `winding_report` per profile: the blow-up grid plus n = 4 models."""

    name = "origin_scan"
    kernel = "python"  # speed probe, see calibrate.py
    n4_count = 1024

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        lam = level_set_tuples(rng, self.n4_count, math.pi + 0.01, TWO_PI - 0.01)
        profiles = [
            (("n3",) + pair, dhym.blowup_p3(*pair)) for pair in blowup_grid()
        ]
        for row in lam:
            tup = tuple(float(v) for v in row)
            profiles.append((("n4",) + tup, dhym.IntersectionProfile(4, constant_profile_d(tup))))
        order = rng.permutation(len(profiles))
        self.ops = [profiles[i] for i in order]
        self.trace_ops = len(self.ops)
        with open(os.path.join(HERE, "origin_hits_ref.json"), encoding="utf-8") as fh:
            self.ref_hits = {tuple(h) for h in json.load(fh)["hits"]}

    def inputs(self):
        return [key for key, _ in self.ops]

    def run(self, api, op):
        try:
            return api.winding_report(op[1])
        except DegeneratePathError as exc:
            return exc

    def check(self, op, out):
        key = op[0]
        hit = isinstance(out, DegeneratePathError)
        counters = {"winding_profiles": 1, "origin_hits": int(hit)}
        if key[0] == "n3":
            ok = hit == (key[1:] in self.ref_hits)
        else:
            phase = math.fsum(math.atan(v) for v in key[1:])
            ok = not hit and abs(out.theta_alg - phase) <= ANGLE_TOL
        return Check(ok, 1, counters)


def _unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class PairBridge:
    """`HermitianPair` -> `relative_spectrum` -> `phase_of_pair` per pair."""

    name = "pair_bridge"
    kernel = "python"  # speed probe, see calibrate.py
    n_pairs = 1024
    max_log10_cond = 6.0

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 4])
        self.pairs = []
        for _ in range(self.n_pairs):
            dim = int(rng.integers(3, 5))
            cond = 10.0 ** rng.uniform(0.0, self.max_log10_cond)
            s = np.concatenate(([1.0, cond], cond ** rng.uniform(0.0, 1.0, size=dim - 2)))
            u = _unitary(rng, dim)
            g = (u * s) @ u.conj().T
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            self.pairs.append((g, 0.5 * (h + h.conj().T)))
        self.ops = list(range(self.n_pairs))
        self.trace_ops = self.n_pairs

    def inputs(self):
        return self.pairs

    def run(self, api, op):
        pair = api.HermitianPair(*self.pairs[op])
        return pair, api.relative_spectrum(pair), api.phase_of_pair(pair)

    def check(self, op, out):
        _, spectrum, phase = out
        g, a = self.pairs[op]
        low = np.linalg.cholesky(0.5 * (g + g.conj().T))
        inv = np.linalg.inv(low)
        ref = np.linalg.eigvalsh(inv @ a @ inv.conj().T)
        scale = float(np.max(np.abs(ref)))
        tol = SPECTRUM_REL_PER_COND * max(1.0, float(np.linalg.cond(g))) * scale
        err = float(np.max(np.abs(np.asarray(spectrum.values) - ref)))
        phase_err = abs(phase - math.fsum(math.atan(v) for v in ref))
        phase_tol = tol * float(np.sum(1.0 / (1.0 + ref**2))) + 1e-13
        ok = err <= tol and phase_err <= phase_tol
        return Check(ok, 1, {"pairs": 1, "max_rel_err": err / scale})


WORKLOADS = {w.name: w for w in (McWindow, IdentityBulk, OriginScan, PairBridge)}
