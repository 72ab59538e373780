"""The package's top-level names and the README's library quick start."""

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
