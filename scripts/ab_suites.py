#!/usr/bin/env python3
"""Time two dhym source trees against each other in one process.

Loads PARENT_SRC/dhym and CHANGE_SRC/dhym as two packages under different
names, then runs a seeded mix of operations through each tree's cli.main
in turn.  `--mix window` (the default) alternates
`dhym sample --theta T --count 1000` and `dhym kt --count 1000`, built as
perfbench's mc_window workload builds its operations for the same seed;
`--mix identity` runs `dhym identity --count 100000`, the CLI half of
perfbench's identity_bulk; `--mix sampler` runs its sampler half,
sample_level_set_batch on 1e5 thetas uniform in (-pi + 0.01, pi - 0.01),
which takes the rejection branch.  `--mix origin` runs winding_report, as
perfbench's origin_scan does, on blow-up profiles over its class grid (in
a seeded order) alternating with n = 4 constant models of level-set
tuples; `--mix pair` runs HermitianPair, relative_spectrum and
phase_of_pair on seeded pairs of dimension 3 or 4 with cond(G) up to 1e6,
as perfbench's pair_bridge does.  Each round runs every operation through
both trees, and the rounds alternate which tree goes first.  Every CLI
operation must print the same bytes and exit code in both trees, every
sampler draw must return the same bytes and F-contiguity, every winding
report the same fields (or the same error message) and every pair the same
spectrum and phase bits.  Prints, per operation kind, the median
microseconds per operation of each tree (the median over rounds of each
round's median), their ratio and the rounds the change was faster in.

    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --rounds 6 --ops 400
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix identity --ops 24
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix sampler --ops 40
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix origin --ops 2000
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix pair --ops 2000

In one process both trees run on the same CPU speed, which on a shared
machine drifts between separate runs by more than a 10 % change.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# the blow-up class grid of perfbench's origin_scan, walked in its order
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from grid import blowup_grid  # noqa: E402


def load_tree(src, name):
    """Import SRC/dhym as the package `name`; its relative imports stay
    inside that tree.  Any earlier package of that name is dropped with its
    submodules, so a second load in one process reads SRC.  Returns the
    package."""
    pkg = Path(src) / "dhym"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no dhym package under {src}")
    for stale in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[stale]
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cli_op(argv):
    """The op (kind, label, call) of one in-process CLI call: call(pkg)
    returns the exit code and stdout of argv on the tree `pkg`, and the
    seconds it took."""

    def call(pkg):
        cli = sys.modules[f"{pkg.__name__}.cli"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = cli.main(list(argv))
            elapsed = time.perf_counter() - start
        return (code, buf.getvalue()), elapsed

    return argv[0], " ".join(argv), call


def window_mix(n_ops, seed, count=1000):
    """n_ops CLI ops: sample at even positions, kt at odd ones."""
    rng = np.random.default_rng([seed, 1])
    thetas = rng.uniform(math.pi + 0.01, 2.0 * math.pi - 0.01, size=(n_ops + 1) // 2)
    seeds = rng.integers(0, 2**31, size=n_ops)
    ops = []
    for i in range(n_ops):
        argv = ["sample", "--theta", repr(float(thetas[i // 2]))] if i % 2 == 0 else ["kt"]
        ops.append(cli_op(argv + ["--count", str(count), "--seed", str(int(seeds[i]))]))
    return ops


def identity_mix(n_ops, seed, count=100_000):
    """n_ops `dhym identity` CLI ops with seeded --seed values."""
    seeds = np.random.default_rng([seed, 2]).integers(0, 2**31, size=n_ops)
    return [cli_op(["identity", "--count", str(count), "--seed", str(int(s))]) for s in seeds]


def sampler_op(label, thetas, seed):
    """The op (kind, label, call) of one sample_level_set_batch call:
    call(pkg) returns the rows' bytes and F-contiguity on the tree `pkg`,
    and the seconds it took."""

    def call(pkg):
        start = time.perf_counter()
        rows = pkg.sample_level_set_batch(thetas, seed=seed)
        elapsed = time.perf_counter() - start
        return (rows.tobytes(), rows.flags.f_contiguous), elapsed

    return "sampler", label, call


def sampler_mix(n_ops, seed, count=100_000, n_theta_sets=4):
    """n_ops sampler ops over n_theta_sets sets of `count` thetas in
    (-pi + 0.01, pi - 0.01), with seeded seeds."""
    rng = np.random.default_rng([seed, 2])
    thetas = [
        rng.uniform(-math.pi + 0.01, math.pi - 0.01, size=count) for _ in range(n_theta_sets)
    ]
    seeds = rng.integers(0, 2**31, size=n_ops)
    ops = []
    for i, s in enumerate(seeds):
        k = i % n_theta_sets
        ops.append(sampler_op(f"sampler theta set {k}, seed {s}", thetas[k], int(s)))
    return ops


def timed_outcome(pkg, run):
    """(run()'s result, or the message of the dhym error it raised, and the
    seconds it took) on the tree `pkg`."""
    errors = sys.modules[f"{pkg.__name__}.errors"]
    start = time.perf_counter()
    try:
        out = run()
    except errors.DhymError as exc:
        out = f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start


def origin_op(kind, key):
    """The op (kind, label, call) of one winding_report: of the blow-up
    profile of grid pair `key` (kind "blowup") or of the constant model of
    the 4-tuple `key` (kind "n4").  call(pkg) returns the report's fields,
    repr'd so that every float's bits count, or the error message, and the
    seconds winding_report took."""

    def call(pkg):
        profile = pkg.blowup_p3(*key) if kind == "blowup" else pkg.constant_model(key)
        out, elapsed = timed_outcome(pkg, lambda: pkg.winding_report(profile))
        return (out if isinstance(out, str) else repr(out.to_dict())), elapsed

    return kind, f"{kind} {key}", call


def level_set_tuples(rng, count, lo, hi, eps=1e-3):
    """`count` sorted 4-tuples tan(u), u uniform in the clipped angle box
    with sum(u) in (lo, hi), drawn without dhym's sampler."""
    half = 0.5 * math.pi - eps
    rows = [np.empty((0, 4))]
    while sum(len(r) for r in rows) < count:
        u = rng.uniform(-half, half, size=(8 * count, 4))
        s = u.sum(axis=1)
        rows.append(u[(s > lo) & (s < hi)])
    return np.sort(np.tan(np.concatenate(rows)[:count]), axis=1)


def origin_mix(n_ops, seed):
    """n_ops winding_report ops: blow-up grid pairs in a seeded order at
    even positions, n = 4 constant models of level-set tuples with phases in
    (pi + 0.01, 2*pi - 0.01) at odd ones."""
    rng = np.random.default_rng([seed, 3])
    grid = list(blowup_grid())
    pairs = [grid[i] for i in rng.permutation(len(grid))]
    lam = level_set_tuples(rng, n_ops // 2, math.pi + 0.01, 2.0 * math.pi - 0.01)
    ops = []
    for i in range(n_ops):
        if i % 2 == 0:
            ops.append(origin_op("blowup", pairs[i // 2 % len(pairs)]))
        else:
            ops.append(origin_op("n4", tuple(lam[i // 2].tolist())))
    return ops


def pair_op(label, g, a):
    """The op (kind, label, call) of HermitianPair(g, a), relative_spectrum
    and phase_of_pair: call(pkg) returns the spectrum's and the phase's
    float bits, or the error message, and the seconds the three took."""

    def call(pkg):
        def run():
            pair = pkg.HermitianPair(g, a)
            return (*pkg.relative_spectrum(pair).values, pkg.phase_of_pair(pair))

        out, elapsed = timed_outcome(pkg, run)
        return (out if isinstance(out, str) else [float(x).hex() for x in out]), elapsed

    return "pair", label, call


def pair_mix(n_ops, seed, max_log10_cond=6.0):
    """n_ops pair ops: dimension 3 or 4, G = U diag(s) U* with cond(G)
    log-uniform in [1, 10**max_log10_cond], A a random Hermitian matrix."""
    rng = np.random.default_rng([seed, 4])
    ops = []
    for i in range(n_ops):
        dim = int(rng.integers(3, 5))
        cond = 10.0 ** rng.uniform(0.0, max_log10_cond)
        s = np.concatenate(([1.0, cond], cond ** rng.uniform(0.0, 1.0, size=dim - 2)))
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ops.append(pair_op(f"pair {i}, dim {dim}", (u * s) @ u.conj().T, 0.5 * (h + h.conj().T)))
    return ops


MIXES = {
    "window": window_mix,
    "identity": identity_mix,
    "sampler": sampler_mix,
    "origin": origin_mix,
    "pair": pair_mix,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", help="src directory holding the parent's dhym package")
    ap.add_argument("change_src", help="src directory holding the change's dhym package")
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--ops", type=int, default=400, help="operations per round")
    ap.add_argument("--seed", type=int, default=1831)
    ap.add_argument(
        "--mix",
        choices=sorted(MIXES),
        default="window",
        help="window: sample and kt at --count 1000; identity: identity at --count 100000; "
        "sampler: 1e5-row level-set draws at |theta| < pi; origin: winding_report on "
        "blow-up and n = 4 profiles; pair: the Hermitian pair bridge",
    )
    args = ap.parse_args(argv)

    trees = {
        side: load_tree(src, f"dhym_{side}")
        for side, src in (("parent", args.parent_src), ("change", args.change_src))
    }
    for pkg in trees.values():
        importlib.import_module(f"{pkg.__name__}.cli")
    ops = MIXES[args.mix](args.ops, args.seed)
    for _, _, call in ops[:2]:  # warm-up: the parser cache and first-call imports
        for pkg in trees.values():
            call(pkg)

    kinds = sorted({kind for kind, _, _ in ops})
    medians = {(side, kind): [] for side in trees for kind in kinds}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        times = {key: [] for key in medians}
        for kind, label, call in ops:
            out = {}
            for side in order:
                out[side], elapsed = call(trees[side])
                times[side, kind].append(elapsed)
            if out["parent"] != out["change"]:
                raise SystemExit(f"outputs differ for {label}")
        for key, ts in times.items():
            medians[key].append(statistics.median(ts) * 1e6)

    print(
        f"{args.mix} mix, {len(ops)} ops x {args.rounds} rounds, seed {args.seed}; "
        "every output byte-equal"
    )
    print("kind     parent_us  change_us  change/parent  change_faster_rounds")
    for kind in kinds:
        parent, change = medians["parent", kind], medians["change", kind]
        p, c = statistics.median(parent), statistics.median(change)
        faster = sum(b < a for a, b in zip(parent, change))
        print(f"{kind:<8} {p:9.1f}  {c:9.1f}  {c / p:13.3f}  {faster} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
