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
HermitianPair, relative_spectrum and phase_of_pair.  Each round runs every
operation through both trees, and the rounds alternate which tree goes
first.  Every CLI operation must print the same bytes and exit code in both
trees, every sampler draw must return the same bytes and F-contiguity,
every winding report the same fields (or the same error message) and every
pair the same spectrum and phase bits.  With `--oracle`, a change that
moves outputs on purpose can be timed: each tree's output of each
operation must instead pass the workload's own oracle (`OriginScan.check`,
`IdentityBulk.check` and so on, a tree's DegeneratePathError read as the
workload's), checked in the first round, and the operations whose outputs
differ in bytes are counted.  Prints, per operation kind, the median
microseconds per operation of each tree (the median over rounds of each
round's median), their ratio and the rounds the change was faster in.

    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --rounds 6 --ops 400
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix identity --ops 24
    python scripts/ab_suites.py PARENT_SRC CHANGE_SRC --mix sampler --ops 40 --oracle
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


# Each op is (kind, label, call): call(pkg) runs the operation on the tree
# `pkg` and returns its output in the form both trees must print alike, the
# seconds it took, and a callable giving the workload oracle's verdict on
# that tree's result (check(op, result) of the workload `wl`).


def verdict(wl, op, result):
    """The workload oracle's verdict on one tree's result, as a callable."""
    return lambda: wl.check(op, result).ok


def refused():
    """The verdict on an error that the workload's run would not catch."""
    return False


def cli_op(argv, wl, op):
    """The op (kind, label, call) of the workload wl's operation op, one
    in-process CLI call of argv: call(pkg) returns the exit code and stdout
    on the tree `pkg`, the seconds it took and the verdict of wl.check."""

    def call(pkg):
        cli = sys.modules[f"{pkg.__name__}.cli"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = cli.main(list(argv))
            elapsed = time.perf_counter() - start
        out = (code, buf.getvalue())
        return out, elapsed, verdict(wl, op, out)

    return argv[0], " ".join(argv), call


def sampler_op(label, wl, op):
    """The op (kind, label, call) of identity_bulk's sample_level_set_batch
    operation op ("sampler", seed, theta set): call(pkg) returns the rows'
    bytes and F-contiguity on the tree `pkg`, the seconds the draw took and
    the verdict of wl.check."""

    def call(pkg):
        start = time.perf_counter()
        rows = pkg.sample_level_set_batch(wl.thetas[op[2]], seed=op[1])
        elapsed = time.perf_counter() - start
        return (rows.tobytes(), rows.flags.f_contiguous), elapsed, verdict(wl, op, rows)

    return "sampler", label, call


def timed_outcome(pkg, run):
    """(run()'s result, or the dhym error it raised, and the seconds it
    took) on the tree `pkg`."""
    errors = sys.modules[f"{pkg.__name__}.errors"]
    start = time.perf_counter()
    try:
        out = run()
    except errors.DhymError as exc:
        out = exc
    return out, time.perf_counter() - start


def message(exc):
    return f"{type(exc).__name__}: {exc}"


def origin_op(wl, op):
    """The op (kind, label, call) of one winding_report of origin_scan's
    operation op = (key, profile), of kind key[0] ("n3" or "n4").  call(pkg)
    rebuilds the profile from its (n, d) on the tree `pkg` and returns the
    report's fields, repr'd so that every float's bits count, or the error
    message, the seconds winding_report took and the verdict of wl.check,
    with the tree's DegeneratePathError read as the workload's."""
    key, profile = op

    def call(pkg):
        tree_profile = pkg.IntersectionProfile(profile.n, profile.d)
        out, elapsed = timed_outcome(pkg, lambda: pkg.winding_report(tree_profile))
        if not isinstance(out, Exception):
            return repr(out.to_dict()), elapsed, verdict(wl, op, out)
        if type(out).__name__ == "DegeneratePathError":
            hit = workloads.DegeneratePathError(out.t_origin, out.abs_z, out.threshold)
            return message(out), elapsed, verdict(wl, op, hit)
        return message(out), elapsed, refused

    return key[0], f"{key[0]} {key[1:]}", call


def pair_op(wl, i):
    """The op (kind, label, call) of pair_bridge's operation i:
    HermitianPair(g, a), relative_spectrum and phase_of_pair.  call(pkg)
    returns the spectrum's and the phase's float bits, or the error message,
    the seconds the three took and the verdict of wl.check."""
    g, a = wl.pairs[i]

    def call(pkg):
        def run():
            pair = pkg.HermitianPair(g, a)
            return pair, pkg.relative_spectrum(pair), pkg.phase_of_pair(pair)

        out, elapsed = timed_outcome(pkg, run)
        if isinstance(out, Exception):
            return message(out), elapsed, refused
        bits = [float(x).hex() for x in (*out[1].values, out[2])]
        return bits, elapsed, verdict(wl, i, out)

    return "pair", f"pair {i}, dim {len(g)}", call


def identity_bulk_ops(seed, kind):
    """The ops of identity_bulk's operations of `kind`, "identity" or
    "sampler", in the workload's order."""
    wl = workloads.IdentityBulk(seed)
    picked = [op for op in wl.ops if op[0] == kind]
    if kind == "identity":
        argv = ["identity", "--count", str(wl.count), "--seed"]
        return [cli_op(argv + [str(op[1])], wl, op) for op in picked]
    return [sampler_op(f"sampler theta set {op[2]}, seed {op[1]}", wl, op) for op in picked]


def each_op(wl, make):
    return [make(wl, op) for op in wl.ops]


#: every op of a mix for the seed, in its workload's order
MIXES = {
    "window": lambda seed: each_op(workloads.McWindow(seed), lambda wl, op: cli_op(op, wl, op)),
    "identity": lambda seed: identity_bulk_ops(seed, "identity"),
    "sampler": lambda seed: identity_bulk_ops(seed, "sampler"),
    "origin": lambda seed: each_op(workloads.OriginScan(seed), origin_op),
    "pair": lambda seed: each_op(workloads.PairBridge(seed), pair_op),
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
    ap.add_argument(
        "--oracle",
        action="store_true",
        help="require each tree's outputs to pass the workload's oracle, not to be "
        "byte-equal, and count the operations whose outputs differ in bytes",
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
    differ = set()
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        times = {key: [] for key in medians}
        for i, (kind, label, call) in enumerate(ops):
            out = {}
            for side in order:
                out[side], elapsed, ok = call(trees[side])
                times[side, kind].append(elapsed)
                if args.oracle and r == 0 and not ok():
                    raise SystemExit(f"{side} output fails the workload's oracle for {label}")
            if out["parent"] != out["change"]:
                if not args.oracle:
                    raise SystemExit(f"outputs differ for {label}")
                differ.add(i)
        for key, ts in times.items():
            medians[key].append(statistics.median(ts) * 1e6)

    if args.oracle:
        outputs = f"every output passes the oracle; {len(differ)} ops differ in bytes"
    else:
        outputs = "every output byte-equal"
    print(f"{args.mix} mix, {len(ops)} ops x {args.rounds} rounds, seed {args.seed}; {outputs}")
    print("kind     parent_us  change_us  change/parent  change_faster_rounds")
    for kind in kinds:
        parent, change = medians["parent", kind], medians["change", kind]
        p, c = statistics.median(parent), statistics.median(change)
        faster = sum(b < a for a, b in zip(parent, change))
        print(f"{kind:<8} {p:9.1f}  {c:9.1f}  {c / p:13.3f}  {faster} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
