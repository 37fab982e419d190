"""Output of fixed-seed `dhym` runs (sample, identity, kt, check, model,
path with its CSV trace, angle, consistency of eigenvalues and of a matrix
pair, a degenerate path) and a mixed-branch theorem suite, compared byte
for byte with files written by scripts/make_golden.py."""

import contextlib
import io
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
#: sampler behind `sample` and the theorem suite still takes np.tan and, in
#: its corner draw, numpy's SIMD pow for a cube root, and a matrix pair's
#: spectrum comes from LAPACK, whose kernels may depend on the CPU
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


#: seeded rows of every magnitude, built by division only so that they
#: have the same bits with or without AVX-512, and the digest of their phases
PHASE_DIGEST = (
    "import hashlib, numpy as np\n"
    "from dhym.eigen import phase_rows\n"
    "rng = np.random.default_rng(28)\n"
    "lam = rng.uniform(-1.0, 1.0, (100000, 4)) / rng.uniform(0.0, 1.0, (100000, 4))\n"
    "print(hashlib.sha256(lam.tobytes()).hexdigest())\n"
    "print(hashlib.sha256(phase_rows(lam).tobytes()).hexdigest())\n"
)


def test_phase_rows_bytes_without_avx512():
    # the arctangents of phase_rows are +, -, *, / and copysign, which every
    # SIMD level rounds alike; a transcendental ufunc would show here
    env = {**os.environ, **NO_AVX512}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy does not start with {NO_AVX512}: {probe.stderr[-200:]!r}")
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(PHASE_DIGEST, {})
    proc = subprocess.run(
        [sys.executable, "-c", PHASE_DIGEST], env=env, capture_output=True, text=True, check=True
    )
    rows, phases = proc.stdout.split()
    assert [rows, phases] == here.getvalue().split()


#: the band rows' angles (before np.tan) of seeded mid, edge and mixed
#: batches, and their digest; the mixed batch's corner rows take numpy's
#: SIMD pow, so only its band rows |theta| < 2a are hashed
BAND_DIGEST = (
    "import hashlib, math, numpy as np\n"
    "from dhym.sampling import _half_width, _level_set_angles\n"
    "rng = np.random.default_rng(35)\n"
    "switch = 2.0 * _half_width()\n"
    "batches = [\n"
    "    rng.uniform(-math.pi + 0.01, math.pi - 0.01, 100000),\n"
    "    rng.uniform(switch - 0.05, switch, 100000) * rng.choice((-1.0, 1.0), 100000),\n"
    "    rng.uniform(-2 * math.pi + 0.01, 2 * math.pi - 0.01, 100000),\n"
    "]\n"
    "for seed, thetas in enumerate(batches):\n"
    "    u = _level_set_angles(thetas, np.random.default_rng(seed))\n"
    "    band = np.abs(thetas) < switch\n"
    "    print(band.sum(), hashlib.sha256(u[band].tobytes()).hexdigest())\n"
)


def test_band_angle_rows_bytes_without_avx512():
    # the band's simplex draw is +, -, *, min, max and compares, which every
    # SIMD level rounds alike; a pow or cbrt in it would show here
    env = {**os.environ, **NO_AVX512}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy does not start with {NO_AVX512}: {probe.stderr[-200:]!r}")
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(BAND_DIGEST, {})
    proc = subprocess.run(
        [sys.executable, "-c", BAND_DIGEST], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == here.getvalue().split()
