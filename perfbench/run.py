#!/usr/bin/env python3
"""Benchmark runner for dhym: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload mc_window --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports dhym from `src/`.
One single-threaded process drives dhym in a closed loop with one client:
each operation starts when the previous one has returned and its output
has been checked against the workload's oracle.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: operation
latency and items per second over the operations' own time, set-up time
(median of seven processes that import dhym and build the inputs)
and peak resident memory.  Times are scaled to the reference processor
speed by a probe run alongside them (calibrate.py).  --trace 1 repeats a
fixed pass of operations, alternating untraced and traced, and reports
the per-layer metrics of the traced passes, unscaled.  The last line of
stdout is the result as JSON; the line before it records the machine and
the run's details (raw times included), also written to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, so BLAS starts one thread
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: at least 10 samples lie beyond the 90th percentile
MIN_OPS = 100
#: fresh processes timed for setup_s, counting the run's own set-up
SETUP_SAMPLES = 7
#: windows of the timed run; each gets its own speed factor
WINDOWS = 10
#: share of the measured time given to the speed probe
PROBE_SHARE = 0.2


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload: str, seed: int):
    """Import dhym and build the workload's inputs; returns (workload, seconds)."""
    start = perf_counter()
    if not os.path.isfile(os.path.join(SRC, "dhym", "__init__.py")):
        raise SystemExit(f"no dhym sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import dhym

    if not os.path.abspath(dhym.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported dhym from {dhym.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    return wl, perf_counter() - start


def setup_samples(workload: str, seed: int, first: float):
    """Set-up times of `first` plus SETUP_SAMPLES - 1 fresh processes."""
    times = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def merge(into: dict, counters: dict):
    for key, value in counters.items():
        if key.startswith("max_"):
            into[key] = max(into.get(key, value), value)
        else:
            into[key] = into.get(key, 0) + value


class Tally:
    """Latency and certified items of each operation, and the failures."""

    def __init__(self):
        self.latencies = []
        self.items = []
        self.busy_s = 0.0
        self.failed = 0
        self.counters = {}
        self.first_error = None

    def run(self, wl, api, op):
        self.items.append(0)
        start = perf_counter()
        try:
            out = wl.run(api, op)
        except Exception:  # an operation that raises counts as failed
            self._done(start)
            self._fail(traceback.format_exc())
            return
        self._done(start)
        try:
            check = wl.check(op, out)
        except Exception:  # so does output the oracle cannot read
            self._fail(traceback.format_exc())
            return
        if not check.ok:
            self._fail(f"oracle rejected operation {op!r:.200}")
            return
        self.items[-1] = check.items
        merge(self.counters, check.counters)

    def _done(self, start):
        took = perf_counter() - start
        self.latencies.append(took)
        self.busy_s += took

    def _fail(self, why):
        self.failed += 1
        if self.first_error is None:
            self.first_error = why

    @property
    def attempted(self):
        return len(self.latencies)


def end_to_end(wl, api, seconds):
    """Closed loop for `seconds`, split into WINDOWS equal windows.

    Between operations a speed probe (calibrate.py) takes PROBE_SHARE of
    the time, and each window's timings are scaled by its probe factor.
    Every timing is computed within each window and the median across
    windows is reported.  Returns (tally, metrics, rows), one row of
    (raw items/s, raw p50 ms, raw p90 ms, operations, factor) per window.
    """
    from calibrate import SpeedProbe

    probe = SpeedProbe(wl.kernel, PROBE_SHARE)
    tally = Tally()
    op_window = []
    kernel_ms = [[] for _ in range(WINDOWS)]
    begin = perf_counter()
    while True:
        window = int((perf_counter() - begin) / seconds * WINDOWS)
        if window >= WINDOWS and tally.attempted >= MIN_OPS:
            break
        window = min(window, WINDOWS - 1)
        op_window.append(window)
        tally.run(wl, api, wl.ops[(len(op_window) - 1) % len(wl.ops)])
        probe.keep_up(tally.busy_s, kernel_ms[window])
    per_window = [([], []) for _ in range(WINDOWS)]
    for w, lat, items in zip(op_window, tally.latencies, tally.items):
        per_window[w][0].append(1e3 * lat)
        per_window[w][1].append(items)
    rows = [
        (1e3 * sum(items) / sum(lat), statistics.median(lat),
         statistics.quantiles(lat, n=10)[8], len(lat), probe.factor(ms))
        for (lat, items), ms in zip(per_window, kernel_ms)
        if len(lat) >= 2 and ms
    ]
    metrics = {
        "items_per_s": statistics.median(r[0] / r[4] for r in rows),
        "op_p50_ms": statistics.median(r[1] * r[4] for r in rows),
        "op_p90_ms": statistics.median(r[2] * r[4] for r in rows),
    }
    return tally, metrics, rows


def layer_metrics(totals, counters, plain_s, traced_s):
    """Per-layer metrics of one traced pass (see BENCHMARK.json per_layer)."""
    winding = ("charge.winding_report",)
    chern = ("charge.check_chern_n4", "charge.check_chern_n3")
    winding_calls = totals.labels_calls(*winding)
    sampling_self = totals.layer_self("sampling")
    pairs = counters.get("pairs", 0)
    profiles = counters.get("winding_profiles", 0)
    attempts = counters.get("kt_attempts", 0)
    return {
        "eigen.calls": totals.layer_calls("eigen"),
        "eigen.self_s": totals.layer_self("eigen"),
        "models.calls": totals.layer_calls("models"),
        "models.self_s": totals.layer_self("models"),
        "reports.calls": totals.layer_calls("reports"),
        "charge.chern_calls": totals.labels_calls(*chern),
        "charge.chern_self_s": totals.labels_self(*chern),
        "suites.self_s": totals.layer_self("suites"),
        "suites.kt_acceptance": counters.get("kt_count", 0) / attempts if attempts else 0.0,
        "suites.identity_bytes_computed": counters.get("identity_bytes", 0),
        "sampling.calls": totals.layer_calls("sampling"),
        "sampling.self_s": sampling_self,
        "sampling.rows_per_s": (
            counters.get("sampler_rows", 0) / sampling_self if sampling_self else 0.0
        ),
        "charge.winding_calls": winding_calls,
        "charge.winding_self_s": totals.labels_self(*winding),
        "charge.winding_us_per_profile": (
            1e6 * totals.labels_total(*winding) / winding_calls if winding_calls else 0.0
        ),
        "charge.origin_hits": counters.get("origin_hits", 0),
        "charge.origin_hit_ratio": counters.get("origin_hits", 0) / profiles if profiles else 0.0,
        "hermitian.calls": totals.layer_calls("hermitian"),
        "hermitian.self_s": totals.layer_self("hermitian"),
        "hermitian.us_per_pair": 1e6 * totals.root_s["hermitian"] / pairs if pairs else 0.0,
        "hermitian.max_rel_err": counters.get("max_rel_err", 0.0),
        "serialize.self_s": totals.layer_self("serialize"),
        "serialize.bytes_out": counters.get("bytes_out", 0),
        "cli.self_s": totals.layer_self("cli"),
        "trace.overhead_ratio": traced_s / plain_s,
    }


def traced(wl, api, seconds, seed):
    """Alternate untraced and traced passes over wl.ops[:wl.trace_ops]."""
    import dhym
    from spans import SpanTotals, Tracer

    tracer = Tracer(dhym)
    traced_api = type(api)(**{k: tracer.wrap(v) for k, v in vars(api).items()})
    ops = wl.ops[: wl.trace_ops]
    passes = []
    total = Tally()
    first_spans = None
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        plain = Tally()
        for op in ops:
            plain.run(wl, api, op)
        tally = Tally()
        with tracer.installed():
            for i, op in enumerate(ops):
                tracer.op = i
                tally.run(wl, traced_api, op)
        passes.append(
            layer_metrics(SpanTotals(tracer.spans), tally.counters, plain.busy_s, tally.busy_s)
        )
        if first_spans is None:
            first_spans = list(tracer.spans)
        tracer.spans.clear()
        for t in (plain, tally):
            total.latencies += t.latencies
            total.busy_s += t.busy_s
            total.items += t.items
            total.failed += t.failed
            total.first_error = total.first_error or t.first_error
    metrics = {k: statistics.median_low(p[k] for p in passes) for k in passes[0]}
    write_spans(wl.name, seed, first_spans)
    return total, metrics, {"passes": len(passes), "pass_ops": len(ops)}


def write_spans(workload, seed, spans):
    os.makedirs(OUT_DIR, exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for label, start, end, parent, op in spans:
            fh.write(json.dumps({"name": label, "start": start - t0, "end": end - t0,
                                 "parent": parent, "op": op}) + "\n")


def environment():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    from workloads import dhym_api

    api = dhym_api()
    detail = {}
    if args.trace:
        tally, metrics, detail = traced(wl, api, args.seconds, args.seed)
        declared = spec["per_layer"]
    else:
        setups = setup_samples(args.workload, args.seed, setup_s)
        tally, metrics, windows = end_to_end(wl, api, args.seconds)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail["setup_samples_s"] = setups
        detail["windows"] = {
            "columns": ["raw_items_per_s", "raw_op_p50_ms", "raw_op_p90_ms", "operations",
                        "speed_factor"],
            "rows": windows,
        }
        declared = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    if tally.first_error:
        print(tally.first_error, file=sys.stderr)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_fraction": tally.failed / tally.attempted,
        "items": sum(tally.items),
        "latency_samples": tally.attempted,
        "environment": environment(),
        **detail,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"context": context, "result": result}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
