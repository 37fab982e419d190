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
which takes the rejection branch.  Each round runs every operation through
both trees, and the rounds alternate which tree goes first.  Every CLI
operation must print the same bytes and exit code in both trees, and every
sampler draw must return the same bytes and F-contiguity.  Prints, per
operation kind, the median microseconds per operation of each tree (the
median over rounds of each round's median), their ratio and the rounds
the change was faster in.

    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --rounds 6 --ops 400
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix identity --ops 24
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix sampler --ops 40

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


MIXES = {"window": window_mix, "identity": identity_mix, "sampler": sampler_mix}


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
        "sampler: 1e5-row level-set draws at |theta| < pi",
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
