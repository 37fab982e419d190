#!/usr/bin/env python3
"""Run every workload over several seeds and print each metric with its unit.

    python3 perfbench/summary.py --seeds 3 --seconds 10

For each seed and workload it runs perfbench/run.py once untraced (the
end-to-end metrics) and once traced (the per-layer metrics), one process
at a time.  Each run checks every operation against its oracle; the table
reports failed/attempted per workload.  Each row gives the median and the
quartiles across runs, and for end-to-end metrics the spread
(q3 - q1) / median next to the bound BENCHMARK.json allows, with `!` where
the spread exceeds a third of that bound.  The rows are also written to
perfbench/out/summary.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", type=int, default=3, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = ap.parse_args(argv)

    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    results = {(w, t): [] for w in args.workloads for t in modes}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in args.workloads:
            for t in modes:
                results[w, t].append(run_once(w, seed, args.seconds, t))
                print(f"  ran {w} seed {seed} trace {t}", file=sys.stderr)

    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    rows = []
    print(f"{'workload':14} {'metric':32} {'unit':8} {'median':>13} {'q1':>13} "
          f"{'q3':>13} {'spread':>7} {'bound':>6}  runs")
    for (w, t), runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        ok = all(r["correct"] for r in runs)
        print(f"{w:14} oracle: {'pass' if ok else 'FAIL'}, failed {failed} of "
              f"{attempted} operations ({'traced' if t else 'untraced'} runs)")
        for m in declared[t]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = "!" if bound is not None and spread > bound / 3 else " "
            print(f"{w:14} {m['name']:32} {m['unit']:8} {med:13.6g} {q1:13.6g} {q3:13.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6}{flag} {len(values)}")
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                         "median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": values, "failed": failed, "attempted": attempted})
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    return 0 if all(r["correct"] for runs in results.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
