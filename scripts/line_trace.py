#!/usr/bin/env python3
"""List the src/dhym lines that the tier-1 test run never executes.

Runs the tier-1 command (`python -m pytest -q --continue-on-collection-errors`
from the repository root, with src on PYTHONPATH) under a line tracer.  The
tracer lives in a sitecustomize.py that this script writes to a temporary
directory at the front of PYTHONPATH, so every Python process of the run
loads it: pytest itself and the `python -m dhym` subprocesses the tests
start.  It installs sys.settrace (and threading.settrace), follows only
frames whose code lies under src/dhym, and at exit writes the lines it saw
to one file per process.

A line counts as a statement when dis.findlinestarts reports it for some
code object compiled from a src/dhym file.  Prints each statement line no
process executed, as `src/dhym/FILE.py:LINE: source`, and exits 1 if there
is any, 0 if there is none, and 2 if the test run itself fails.  Extra
arguments go to pytest after the tier-1 ones, to trace a subset:

    python scripts/line_trace.py
    python scripts/line_trace.py tests/test_cli.py
"""

import dis
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "dhym"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]

#: the tracer each process loads at startup; {package} and {out} are filled in
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PACKAGE = {package!r} + os.sep
_SEEN = set()


def _local(frame, event, arg):
    if event == "line":
        _SEEN.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PACKAGE):
        return None
    _SEEN.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _dump():
    sys.settrace(None)
    path = os.path.join({out!r}, f"{{os.getpid()}}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for name, line in _SEEN:
            fh.write(f"{{os.path.realpath(name)}}\\t{{line}}\\n")


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def statement_lines(path: Path) -> set:
    """Every line dis.findlinestarts reports for a code object of the file."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_traced(pytest_args) -> tuple[int, set]:
    """Exit code of the traced tier-1 run and the (file, line) pairs it ran."""
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        text = SITECUSTOMIZE.format(package=str(PACKAGE), out=str(out))
        (site / "sitecustomize.py").write_text(text, encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(site), str(SRC), env.get("PYTHONPATH")) if p
        )
        code = subprocess.run([sys.executable, *TIER1, *pytest_args], cwd=ROOT, env=env).returncode
        seen = set()
        for dump in out.iterdir():
            for row in dump.read_text(encoding="utf-8").splitlines():
                name, line = row.split("\t")
                seen.add((name, int(line)))
    return code, seen


def main(argv=None) -> int:
    code, seen = run_traced(sys.argv[1:] if argv is None else argv)
    if code != 0:
        print(f"line_trace: the test run exited {code}", file=sys.stderr)
        return 2
    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statement_lines(path)
        total += len(lines)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - {n for name, n in seen if name == str(path)}):
            missed.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    if missed:
        print("\n".join(missed))
    print(f"line_trace: {total - len(missed)} of {total} statement lines ran", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
