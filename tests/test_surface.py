"""The package's top-level names, its module layers and the README's library quick start."""

import ast
import graphlib
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import spps

ROOT = Path(__file__).resolve().parent.parent

# the package's entry points (the README quick start and the demos import
# 9 of them); building blocks such as SppsBasis are imported from their modules
TOP_LEVEL = [
    "BoundaryCondition", "EigenvalueRecord", "InputError", "Interval", "ParticularPiece",
    "Piece", "Problem", "SampledFunction", "SolverConfig", "SolverError", "SppsError",
    "__version__", "assemble_characteristic", "build_mesh",
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


def _module_trees():
    package = ROOT / "src" / "spps"
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")
    }


def _attributes_read(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_only_basis_reads_power_rows():
    """``.tilde``/``.plain`` are read where rows are made or printed, and in ``basis``."""
    trees = _module_trees()
    readers = {name for name, tree in trees.items() if {"tilde", "plain"} & _attributes_read(tree)}
    assert readers <= {"powers", "basis", "cli"}
    assert "powers" not in _attributes_read(trees["spectral"])


def _reads(node, name):
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute) and n.attr == name
    ]


def test_only_verify_particular_reads_the_nonvanishing_threshold():
    """``EPS_F_FACTOR`` is compared in one place: ``basis.verify_particular``."""
    trees = _module_trees()
    (verify,) = [
        fn for fn in ast.walk(trees["basis"])
        if isinstance(fn, ast.FunctionDef) and fn.name == "verify_particular"
    ]
    everywhere = sum(len(_reads(tree, "EPS_F_FACTOR")) for tree in trees.values())
    assert everywhere == len(_reads(verify, "EPS_F_FACTOR")) == 1


def test_every_public_name_is_named_outside_its_module():
    """A name in a module's ``__all__`` is used by another module of the package,
    a demo, the README or perfbench; what only tests use is private."""
    package = ROOT / "src" / "spps"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    elsewhere = [ROOT / "README.md", *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    outside = [path.read_text(encoding="utf-8") for path in elsewhere]
    unused = []
    for name in sorted(sources.keys() - {"__init__"}):
        texts = outside + [text for other, text in sources.items() if other != name]
        for symbol in getattr(importlib.import_module(f"spps.{name}"), "__all__", []):
            word = re.compile(rf"\b{re.escape(symbol)}\b")
            if not any(word.search(text) for text in texts):
                unused.append(f"{name}.{symbol}")
    assert unused == []


def _enclosing_functions(tree):
    """``{id(node): "Class.method" or "function"}`` for every node inside a def."""
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                for inner in ast.walk(child):
                    if not isinstance(child, ast.ClassDef):
                        owner[id(inner)] = qualname
                visit(child, qualname + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return owner


def test_only_shift_basis_constructs_and_only_grow_raises_an_order():
    """In ``basis``, ``SppsBasis(...)`` is called only by ``shift_basis``, and
    ``.n_terms`` is assigned only by ``SppsBasis.__init__`` and ``SppsBasis.grow``."""
    tree = _module_trees()["basis"]
    owner = _enclosing_functions(tree)
    constructs = [
        owner.get(id(node)) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "SppsBasis"
    ]
    assert constructs == ["shift_basis"]
    assigned = [
        owner.get(id(target)) for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for part in ast.walk(target)
        if isinstance(part, ast.Attribute) and part.attr == "n_terms"
    ]
    assert sorted(assigned) == ["SppsBasis.__init__", "SppsBasis.grow"]


def test_only_next_center_reads_the_policy():
    """Inside ``spectral``, ``.policy`` is read only by ``_next_center``: the
    sweep compares centers, never policy names."""
    tree = _module_trees()["spectral"]
    owner = _enclosing_functions(tree)
    readers = [
        owner.get(id(node)) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "policy"
    ]
    assert readers and set(readers) == {"_next_center"}


def _grow_calls(tree):
    """``(enclosing function, receiver)`` of every ``receiver.grow(...)`` call."""
    owner = _enclosing_functions(tree)
    return [
        (owner.get(id(node)), ast.unparse(node.func.value)) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "grow"
    ]


def test_only_the_sweep_loop_grows_the_main_basis():
    """``shift_basis`` grows nothing: it reads its source at the source's own
    order.  Inside ``spectral``, only ``sweep_eigenvalues`` grows ``basis``."""
    trees = _module_trees()
    assert [call for call in _grow_calls(trees["basis"]) if call[0] == "shift_basis"] == []
    growers = [owner for owner, receiver in _grow_calls(trees["spectral"]) if receiver == "basis"]
    assert growers == ["sweep_eigenvalues"]
