"""The package's top-level names, its module layers and the README's library quick start."""

import ast
import graphlib
import os
import re
import subprocess
import sys
from pathlib import Path

import spps

ROOT = Path(__file__).resolve().parent.parent

# what the README quick start and the demos import from ``spps``; building
# blocks such as SppsBasis are imported from their modules
TOP_LEVEL = [
    "BoundaryCondition", "EigenvalueRecord", "InputError", "Interval", "ParticularPiece",
    "Piece", "Problem", "SampledFunction", "SolverConfig", "SolverError", "SppsError",
    "__version__", "assemble_characteristic", "build_basis", "build_mesh",
    "build_seed_solution", "characteristic_at", "compute_formal_powers",
    "count_zeros", "evaluate_solution", "fixture_path", "indefinite_integral",
    "load_problem", "parse_problem", "roots_of", "sample_coefficients", "sample_problem",
    "shift_basis", "sweep_eigenvalues",
]


def test_top_level_names():
    assert sorted(spps.__all__) == TOP_LEVEL
    namespace = {}
    exec("from spps import *", namespace)
    assert set(TOP_LEVEL) <= namespace.keys()


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split()[0] for row in rows] == ["0", "1", "2", "3", "4", "5"]


def test_module_imports_are_layered():
    """No relative import inside a function, and the module imports form no cycle."""
    package = ROOT / "src" / "spps"
    modules = {path.stem for path in package.glob("*.py")}
    assert {"problems", "spectral"} <= modules
    graph, nested = {}, []
    for name in sorted(modules):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        in_functions = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in ast.walk(fn)
        }
        graph[name] = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if id(node) in in_functions:
                nested.append(f"{name}.py:{node.lineno}")
                continue
            # ``from . import x`` names a module or something of the package's own
            targets = [node.module] if node.module else [a.name for a in node.names]
            graph[name] |= {t if t in modules else "__init__" for t in targets}
    assert nested == []
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def _attributes_read(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_only_basis_reads_power_rows():
    """``.tilde``/``.plain`` are read where rows are made or printed, and in ``basis``."""
    package = ROOT / "src" / "spps"
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")
    }
    readers = {name for name, tree in trees.items() if {"tilde", "plain"} & _attributes_read(tree)}
    assert readers <= {"powers", "basis", "cli"}
    spectral = trees["spectral"]
    assert "powers" not in _attributes_read(spectral)
    imported = {
        alias.name for node in ast.walk(spectral) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "build_basis" not in imported
