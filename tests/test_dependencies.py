"""Every third-party module the tests import is declared in pyproject.toml,
so `pip install -e '.[test]'` is enough to collect the suite."""

import ast
import os
import re
import sys
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _top_level_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _local_modules():
    """dhym and the scripts the tests put on sys.path."""
    names = set(os.listdir(os.path.join(ROOT, "src")))
    for folder in ("scripts", "tests"):
        names |= {n[:-3] for n in os.listdir(os.path.join(ROOT, folder)) if n.endswith(".py")}
    return names


def test_test_imports_are_declared_dependencies():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower() for req in requirements}
    tests = os.path.join(ROOT, "tests")
    imported = {
        name
        for file in os.listdir(tests)
        if file.endswith(".py")
        for name in _top_level_imports(os.path.join(tests, file))
    }
    third_party = imported - set(sys.stdlib_module_names) - _local_modules()
    assert third_party, "the tests import numpy, pytest and more"
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"
