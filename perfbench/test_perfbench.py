"""Self-test of the benchmark: seeded inputs and exact counters repeat.

    python3 -m pytest perfbench/test_perfbench.py -q

Not part of the repository's test suite (pytest's testpaths is `tests`);
it takes about a minute, because each workload runs one traced pass twice.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from workloads import WORKLOADS  # noqa: E402

#: per-layer metrics that count work; they must not depend on timing
EXACT = (
    "eigen.calls",
    "models.calls",
    "reports.calls",
    "charge.chern_calls",
    "suites.kt_acceptance",
    "suites.identity_bytes_computed",
    "sampling.calls",
    "charge.winding_calls",
    "charge.origin_hits",
    "charge.origin_hit_ratio",
    "hermitian.calls",
    "serialize.bytes_out",
)


def digest(obj) -> str:
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr((x.dtype.str, x.shape)).encode())
            h.update(x.tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    cls = WORKLOADS[name]
    first = digest(cls(7).inputs())
    assert digest(cls(7).inputs()) == first
    assert digest(cls(8).inputs()) != first


def traced_run(name, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counters_repeat(name):
    first = traced_run(name, 3)
    second = traced_run(name, 3)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    if name == "origin_scan":
        assert first["charge.origin_hits"] == 10  # the reference hits, once each
