#!/usr/bin/env python3
"""Compare the CLI output of two dhym source trees over a seeded argv corpus.

Loads PARENT_SRC/dhym and CHANGE_SRC/dhym side by side (with
scripts/ab_suites.py's load_tree) and runs each argv of a seeded corpus
through both trees' cli.main in one process.  The corpus spans all eight
subcommands: random profiles whose entries include +-0.0, +-1e300 and
subnormals, model specs, `--lambda` tuples, matrix pairs (the committed
tests/data/pair_2345.json among them), malformed and missing files,
argvs argparse rejects, the help screens, `kt` runs whose count-th kept
row is the last draw of the first draw chunk or the first of the second
(CHUNK_EDGE), three suite runs at counts the random argvs never reach
(LARGE), and `check` and `kt --profile` runs through every branch of a
check's report (REPORT_BRANCHES).  For each argv the exit code, stdout
and any file written by `--out` must be the same bytes in both trees.
Prints each argv that differs and, under it, what moved: the exit codes,
and each key of the JSON report (or cell of the CSV trace) whose value
moved, old -> new, with its distance in ulp (make_golden.moved).  Exits 1
if any argv differs, else 0.

    python scripts/byte_sweep.py PARENT_SRC CHANGE_SRC --argvs 2400 --seed 21
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from ab_suites import load_tree
from make_golden import moved

ROOT = Path(__file__).resolve().parent.parent
PAIR_2345 = ROOT / "tests" / "data" / "pair_2345.json"
SUBCOMMANDS = ("check", "path", "angle", "sample", "identity", "kt", "model", "consistency")

#: entries that sit on the edges of the double range
EDGES = (
    0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
)
#: file contents that are not a valid document of any kind
MALFORMED = (
    "", "{", "[]", "null", '"text"', '{"n": 4}', '{"n": 4, "d": [1, 2, 3]}',
    '{"n": 4, "d": [NaN, 1, 1, 1, 1]}', '{"n": 4, "d": [1, Infinity, 1, 1, 1]}',
    '{"n": "4", "d": [1, 1, 1, 1, 1]}', '{"n": 4.5, "d": [1, 1, 1, 1, 1]}',
    '{"n": 4, "d": [1, 1, 1, 1, true]}', '{"n": 4, "d": [1, 1, 1, 1, 1], "synthetic": 1}',
    '{"n": 4, "d": [1e400, 1, 1, 1, 1]}', '{"n": 1' + "0" * 5000 + ', "d": [1]}',
    '{"model": "constant"}', '{"model": "torus", "lambda": [1, 2]}',
    '{"model": "weighted", "points": [{"w": 0.5, "lambda": [1, 2, 3, 4]}]}',
    '{"model": "blowup_p3", "omega": [1, 2], "alpha": [1, 1]}',
    '{"G": {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}',
    "[" * 100000 + "]" * 100000,
)


def entry(rng):
    """One intersection number or eigenvalue: an edge, a small integer, a
    uniform real or a log-uniform magnitude of either sign."""
    kind = rng.random()
    if kind < 0.12:
        return rng.choice(EDGES)
    if kind < 0.5:
        return float(rng.randint(-9, 9))
    if kind < 0.9:
        return rng.uniform(-10.0, 10.0)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)


def volume(rng):
    if rng.random() < 0.2:
        return rng.choice((5e-324, 1e-300, 1e300))
    return rng.choice((1.0, 2.5, rng.uniform(0.1, 10.0)))


def lam(rng, n=4):
    return [entry(rng) if rng.random() < 0.3 else rng.uniform(-6.0, 6.0) for _ in range(n)]


def profile(rng):
    n = rng.choice((3, 3, 3, 4, 4, 4, 4, 4, 1, 2, 5))
    doc = {"n": n, "d": [volume(rng)] + [entry(rng) for _ in range(n)]}
    if rng.random() < 0.1:
        doc["synthetic"] = rng.random() < 0.5
    return doc


def spec(rng):
    kind = rng.choice(("constant", "weighted", "blowup_p3"))
    if kind == "constant":
        return {"model": kind, "lambda": lam(rng, rng.choice((3, 4)))}
    if kind == "weighted":
        k, n = rng.randint(1, 4), rng.choice((3, 4))
        w = [rng.random() + 0.01 for _ in range(k)]
        w = [x / sum(w) for x in w]
        return {"model": kind, "points": [{"w": x, "lambda": lam(rng, n)} for x in w]}
    a = rng.choice((rng.randint(2, 8), rng.uniform(0.5, 9.0), 1e200))
    b = rng.choice((rng.randint(1, 7), rng.uniform(0.1, 8.0), 0.0))
    return {"model": kind, "omega": [a, b], "alpha": [entry(rng), entry(rng)]}


def matrix(rows):
    return {
        "dim": len(rows),
        "re": [[z.real for z in row] for row in rows],
        "im": [[z.imag for z in row] for row in rows],
    }


def pair(rng):
    """A Hermitian pair: G = B B^H + c I (c > 0 unless indefinite is drawn)
    and a Hermitian A, at times with an edge entry or A made non-Hermitian."""
    n = rng.choice((3, 4))
    b = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
    shift = rng.choice((1.0, 1e-6, 0.0, -50.0))
    g = [
        [sum(b[i][k] * b[j][k].conjugate() for k in range(n)) + (shift if i == j else 0.0)
         for j in range(n)]
        for i in range(n)
    ]
    h = [[complex(rng.gauss(0, 3), rng.gauss(0, 3)) for _ in range(n)] for _ in range(n)]
    a = [[0.5 * (h[i][j] + h[j][i].conjugate()) for j in range(n)] for i in range(n)]
    if rng.random() < 0.15:
        i = rng.randrange(n)
        a[i][i] = complex(rng.choice(EDGES), 0.0)
    if rng.random() < 0.1:
        a[0][n - 1] += 1.0
    for m in (g, a):  # the diagonal of a Hermitian matrix is real
        for i in range(n):
            m[i][i] = complex(m[i][i].real, 0.0)
    return {"G": matrix(g), "A": matrix(a)}


class Files:
    """Documents written once into a temporary directory, shared by both trees."""

    def __init__(self, where):
        self.where, self.count = Path(where), 0

    def write(self, text):
        self.count += 1
        path = self.where / f"doc_{self.count}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def doc(self, rng, make):
        """A file holding make(rng), or at times a malformed or missing one."""
        roll = rng.random()
        if roll < 0.08:
            return self.write(rng.choice(MALFORMED))
        if roll < 0.1:
            return rng.choice((str(self.where / "missing.json"), str(self.where)))
        return self.write(json.dumps(make(rng)))


def argv_for(rng, command, files, out):
    """One argv of the subcommand; `out` is the path any --out writes to."""
    seed = ["--seed", str(rng.randint(0, 2**31))]
    if command in ("check", "angle"):
        return [command, "--profile", files.doc(rng, profile)]
    if command == "path":
        argv = [command, "--profile", files.doc(rng, profile)]
        if rng.random() < 0.5:
            argv += ["--samples", str(rng.choice((2, 3, 7, 64, 129, 500, 1000, 1, 100001)))]
        return argv + (["--out", out] if rng.random() < 0.3 else [])
    if command == "sample":
        theta = rng.choice(
            (rng.uniform(math.pi, 2.0 * math.pi),) * 20
            + (math.pi, 2.0 * math.pi, math.pi + 1e-12, 1.5 * math.pi, 7.0, -4.0, math.nan)
        )
        count = rng.choice((1, 2, 50, 200, rng.randint(1, 300), rng.randint(1, 300), 0))
        return [command, "--theta", repr(theta), "--count", str(count)] + seed
    if command == "identity":
        return [command, "--count", str(rng.choice((1, 7, 100, rng.randint(1, 400), 0)))] + seed
    if command == "kt":
        if rng.random() < 0.5:
            return [command, "--profile", files.doc(rng, profile)]
        return [command, "--count", str(rng.choice((1, 30, 200, rng.randint(1, 300), -1)))] + seed
    if command == "model":
        argv = [command, "--spec", files.doc(rng, spec)]
        return argv + (["--out", out] if rng.random() < 0.3 else [])
    if rng.random() < 0.25:
        source = str(PAIR_2345) if rng.random() < 0.3 else files.doc(rng, pair)
        return [command, "--pair", source]
    values = lam(rng, rng.choice((4, 4, 4, 3, 2)))
    text = ",".join(repr(v) for v in values)
    if rng.random() < 0.05:
        text = rng.choice(("1,2,x,4", "", "1,,2,3", "nan,1,2,3", "inf,1,2,3"))
    return [command, "--lambda", text]


#: argvs that argparse refuses before any subcommand runs
REFUSED = (
    [], ["frobnicate"], ["sample"], ["sample", "--theta", "abc"], ["identity", "--count", "1.5"],
    ["path"], ["consistency"], ["consistency", "--lambda", "1,2,3,4", "--pair", "x.json"],
)


#: the help screens, which argparse prints to stdout before exiting 0
HELP = (["-h"], *([command, "-h"] for command in SUBCOMMANDS))


#: suite runs far above the random argvs' counts of at most 400, where a
#: suite's minimum can land on a row whose margin a last-bit change moves
LARGE = (
    ["kt", "--count", "20000", "--seed", "2"],
    ["sample", "--theta", "5.0", "--count", "20000", "--seed", "3"],
    ["identity", "--count", "100000", "--seed", "5"],
)


#: `kt` runs whose 30th kept row is the last draw of the first, 435-draw
#: chunk (attempts 435) or the first draw of the second (attempts 436),
#: where an off-by-one in the chunk's draw offset shows
CHUNK_EDGE = (
    ["kt", "--count", "30", "--seed", "4184"],
    ["kt", "--count", "30", "--seed", "231"],
)


#: profiles whose reports take every branch of Margins.report, which random
#: profiles reach only by chance: `kt` with d_1 = 0 and with d_3 = 0 (no
#: `combined` entry), `kt` on a proportional profile (every kt_chain entry on
#: the boundary) and on a cancelling constant model whose `final_scaling`
#: fails by a float margin of -2.9e-11, and `check` on boundary profiles
#: with n = 3 and n = 4
REPORT_BRANCHES = (
    ("kt", {"n": 4, "d": [1, 0, 2, 3, 4]}),
    ("kt", {"n": 4, "d": [1, 2, 3, 0, 4]}),
    ("kt", {"n": 4, "d": [1, 2, 4, 8, 16]}),
    ("kt", {"n": 4, "d": [
        1.0, -1.422214826762234, -20.700545601133605, 126.23183412775268, 3145.9751130885193,
    ]}),
    ("check", {"n": 3, "d": [1, 1, 1, 9]}),
    ("check", {"n": 4, "d": [1, 1, 1, 1, 1]}),
)


def corpus(n_argvs, seed, files, out):
    rng = random.Random(seed)
    argvs = [list(a) for a in REFUSED + HELP]
    fixed = CHUNK_EDGE + LARGE
    while len(argvs) < n_argvs - len(fixed) - len(REPORT_BRANCHES):
        argvs.append(argv_for(rng, SUBCOMMANDS[len(argvs) % len(SUBCOMMANDS)], files, out))
    profiles = [[cmd, "--profile", files.write(json.dumps(doc))] for cmd, doc in REPORT_BRANCHES]
    return argvs + [list(a) for a in fixed] + profiles


def run(cli, argv, out):
    """(exit code, stdout, bytes written to `out`) of one in-process CLI
    call; stderr is dropped."""
    Path(out).unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    written = Path(out).read_bytes() if Path(out).exists() else None
    return code, buf.getvalue(), written


def differences(parent, change):
    """What moved between two runs (exit code, stdout, file written) of one
    argv, one line each: the exit codes, then each moved key of stdout and
    of the file, or `bytes only` where the text is neither JSON nor CSV or
    no value moved."""
    lines = [f"exit: {parent[0]} -> {change[0]}"] if parent[0] != change[0] else []
    for name, old, new in zip(("stdout", "out"), parent[1:], change[1:]):
        if old == new:
            continue
        old, new = (x.decode() if isinstance(x, bytes) else x or "" for x in (old, new))
        try:
            keys = moved(old, new)
        except (ValueError, TypeError):  # neither JSON nor CSV: help text, say
            keys = []
        lines += [f"{name}: {key}" for key in keys or ["bytes only"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", help="src directory holding the parent's dhym package")
    ap.add_argument("change_src", help="src directory holding the change's dhym package")
    ap.add_argument("--argvs", type=int, default=2400, help="corpus size")
    ap.add_argument("--seed", type=int, default=21)
    args = ap.parse_args(argv)

    trees = [
        importlib.import_module(f"{load_tree(src, f'dhym_{side}').__name__}.cli")
        for side, src in (("parent", args.parent_src), ("change", args.change_src))
    ]
    differ = 0
    with tempfile.TemporaryDirectory() as where:
        out = str(Path(where) / "out")
        argvs = corpus(args.argvs, args.seed, Files(where), out)
        for argv_ in argvs:
            parent, change = (run(cli, argv_, out) for cli in trees)
            if parent != change:
                differ += 1
                print(f"differs: {' '.join(argv_)}")
                for line in differences(parent, change):
                    print(f"  {line}")
    print(f"{len(argvs)} argvs over {len(SUBCOMMANDS)} subcommands, seed {args.seed}: "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
