#!/usr/bin/env python3
"""Time two dhym source trees against each other in one process.

Loads PARENT_SRC/dhym and CHANGE_SRC/dhym as two packages under different
names, then runs the first `--ops` operations of one perfbench workload,
built for `--seed` by perfbench/workloads.py (cycling when it has fewer),
through each tree in turn.  `--mix window` (the default) runs mc_window's
`dhym sample` and `dhym kt` CLI calls; `--mix identity` and `--mix sampler`
run identity_bulk's `dhym identity` CLI calls and its sample_level_set_batch
draws; `--mix origin` runs origin_scan's winding_report calls, each profile
rebuilt in each tree from its (n, d); `--mix pair` runs pair_bridge's
HermitianPair, relative_spectrum and phase_of_pair.  Only the workloads'
inputs are taken; their oracles do not run.  Each round runs every
operation through both trees, and the rounds alternate which tree goes
first.  Every CLI operation must print the same bytes and exit code in both
trees, every sampler draw must return the same bytes and F-contiguity,
every winding report the same fields (or the same error message) and every
pair the same spectrum and phase bits.  Prints, per operation kind, the
median microseconds per operation of each tree (the median over rounds of
each round's median), their ratio and the rounds the change was faster in.

    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --rounds 6 --ops 400
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix identity --ops 24
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix sampler --ops 40
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix origin --ops 2000
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix pair --ops 1024

In one process both trees run on the same CPU speed, which on a shared
machine drifts between separate runs by more than a 10 % change.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from itertools import cycle, islice
from pathlib import Path

# the workloads' inputs, built as perfbench/run.py builds them: dhym from this
# checkout's src, the workload classes from perfbench
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402


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


def origin_op(key, profile):
    """The op (kind, label, call) of one winding_report of origin_scan's
    operation (key, profile), of kind key[0] ("n3" or "n4").  call(pkg)
    rebuilds the profile from its (n, d) on the tree `pkg` and returns the
    report's fields, repr'd so that every float's bits count, or the error
    message, and the seconds winding_report took."""
    n, d = profile.n, profile.d

    def call(pkg):
        tree_profile = pkg.IntersectionProfile(n, d)
        out, elapsed = timed_outcome(pkg, lambda: pkg.winding_report(tree_profile))
        return (out if isinstance(out, str) else repr(out.to_dict())), elapsed

    return key[0], f"{key[0]} {key[1:]}", call


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


def identity_bulk_ops(seed, kind):
    """The ops of identity_bulk's operations of `kind`, "identity" or
    "sampler", in the workload's order."""
    wl = workloads.IdentityBulk(seed)
    picked = [op[1:] for op in wl.ops if op[0] == kind]
    if kind == "identity":
        argv = ["identity", "--count", str(wl.count), "--seed"]
        return [cli_op(argv + [str(s)]) for (s,) in picked]
    return [sampler_op(f"sampler theta set {k}, seed {s}", wl.thetas[k], s) for s, k in picked]


#: every op of a mix for the seed, in its workload's order
MIXES = {
    "window": lambda seed: [cli_op(list(op)) for op in workloads.McWindow(seed).ops],
    "identity": lambda seed: identity_bulk_ops(seed, "identity"),
    "sampler": lambda seed: identity_bulk_ops(seed, "sampler"),
    "origin": lambda seed: [origin_op(*op) for op in workloads.OriginScan(seed).ops],
    "pair": lambda seed: [
        pair_op(f"pair {i}, dim {len(g)}", g, a)
        for i, (g, a) in enumerate(workloads.PairBridge(seed).pairs)
    ],
}


def mix_ops(mix, n_ops, seed):
    """The first n_ops ops of the mix for the seed, cycling through its workload's."""
    return list(islice(cycle(MIXES[mix](seed)), n_ops))


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
        help="the perfbench workload's ops: window: mc_window; identity and sampler: "
        "identity_bulk's identity and sampler ops; origin: origin_scan; pair: pair_bridge",
    )
    args = ap.parse_args(argv)

    trees = {
        side: load_tree(src, f"dhym_{side}")
        for side, src in (("parent", args.parent_src), ("change", args.change_src))
    }
    for pkg in trees.values():
        importlib.import_module(f"{pkg.__name__}.cli")
    ops = mix_ops(args.mix, args.ops, args.seed)
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
