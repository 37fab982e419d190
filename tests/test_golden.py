"""Output of fixed-seed `dhym` runs (sample, identity, kt, check, model,
path with its CSV trace, angle, consistency of eigenvalues and of a matrix
pair, a degenerate path) and a mixed-branch theorem suite, compared byte
for byte with files written by scripts/make_golden.py."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
sys.path.insert(0, SCRIPTS)

from make_golden import DATA, cases, exit_code, render  # noqa: E402

#: numpy's AVX-512 kernels switched off, as on a CPU without them
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

#: the cases whose bytes must not depend on numpy's SIMD dispatch; the
#: sampler behind `sample` and the theorem suite still takes np.tan, and a
#: matrix pair's spectrum comes from LAPACK, whose kernels may depend on the CPU
PORTABLE = [
    c
    for c in cases()
    if c.startswith(("path_", "angle_", "consistency_", "identity", "kt", "check_", "model_"))
    and not c.startswith("consistency_pair_")
]


def stored(case):
    names = [name for name in os.listdir(DATA) if name.rsplit(".", 1)[0] == case]
    out = {}
    for name in names:
        with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("case", cases())
def test_golden_bytes(case):
    code, files = render(case)
    assert code == exit_code(case)
    assert files == stored(case)


def test_winding_golden_bytes_without_avx512():
    env = {**os.environ, **NO_AVX512}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), SCRIPTS, env.get("PYTHONPATH", "")]
    )
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy does not start with {NO_AVX512}: {probe.stderr[-200:]!r}")
    script = (
        "import json, sys\n"
        "from make_golden import render\n"
        "json.dump({c: render(c) for c in sys.argv[1:]}, sys.stdout)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *PORTABLE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    got = json.loads(proc.stdout)
    assert sorted(got) == sorted(PORTABLE)
    for case in PORTABLE:
        code, files = got[case]
        assert code == exit_code(case), case
        assert files == stored(case), case
