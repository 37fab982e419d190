"""The public API is a pinned list, and every dhym name that the benchmark
(perfbench/) and the scripts use resolves.  The suite does not collect
perfbench/, so without this a removal that breaks the benchmark would show
only when the benchmark runs."""

import ast
import importlib
import os

import dhym

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: sorted(dhym.__all__); adding or removing a public name edits this list
PUBLIC_API = [
    "Branch",
    "ConvergenceError",
    "DegeneratePathError",
    "DhymError",
    "DomainError",
    "EigenTuple",
    "HermitianPair",
    "InequalityReport",
    "IntersectionProfile",
    "InvalidPairError",
    "PhaseOutsideBranchError",
    "SamplingExhaustedError",
    "UndefinedAngleError",
    "WindingReport",
    "analytic_angle_from_integrals",
    "blowup_p3",
    "branch_check",
    "branch_for_phase",
    "check_chern_n3",
    "check_chern_n4",
    "compare",
    "consistency_suite",
    "constant_model",
    "factorization_identity",
    "gamma_cone",
    "identity_suite",
    "integrated_sigma_chain",
    "kt_chain",
    "kt_suite",
    "lagrangian_phase",
    "path_polynomials",
    "phase_components",
    "phase_of_pair",
    "relative_spectrum",
    "sample_level_set_batch",
    "sigma",
    "theorem_suite",
    "weighted_model",
    "winding_report",
    "winding_trace",
    "z_of_t",
]


def test_public_api_is_pinned():
    assert sorted(dhym.__all__) == PUBLIC_API


def _sources(*folders):
    for folder in folders:
        for file in sorted(os.listdir(os.path.join(ROOT, folder))):
            if file.endswith(".py"):
                yield f"{folder}/{file}"


def _dhym_uses(path):
    """Dotted dhym names the file uses: each `import dhym...`, each
    `from dhym... import X`, and each attribute read off a name those bind."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    bound, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dhym":
                    uses.add(alias.name)
                    bound[alias.asname or "dhym"] = alias.name if alias.asname else "dhym"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "dhym":
                for alias in node.names:
                    uses.add(f"{node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                uses.add(f"{bound[node.value.id]}.{node.attr}")
    return uses


def _resolves(dotted) -> bool:
    head, *rest = dotted.split(".")
    obj = importlib.import_module(head)
    for i, part in enumerate(rest, 1):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:  # a submodule that nothing has imported yet
            obj = importlib.import_module(".".join([head, *rest[:i]]))
        except ImportError:
            return False
    return True


def test_benchmark_and_script_names_resolve():
    uses = {(path, name) for path in _sources("perfbench", "scripts") for name in _dhym_uses(path)}
    found = {name for _, name in uses}
    # the entry points the benchmark drives, so an empty parse cannot pass
    assert {"dhym.cli.main", "dhym.sample_level_set_batch", "dhym.theorem_suite"} <= found
    assert sorted(u for u in uses if not _resolves(u[1])) == []

