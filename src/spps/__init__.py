"""Sturm-Liouville eigensolver built on spectral parameter power series.

Solves (p u')' + q u = lambda r u on a finite interval with
piecewise-continuous (possibly complex) coefficients and
lambda-polynomial two-point boundary conditions.  Solutions are
represented as power series in the spectral parameter whose coefficient
functions are recursively computed iterated integrals; eigenvalues are
roots of a truncated characteristic polynomial, refined and validated by
recentring the series (spectral shift).
"""

from .basis import build_seed_solution, evaluate_solution, shift_basis
from .errors import InputError, SolverError, SppsError
from .mesh import (
    Interval,
    Piece,
    SampledFunction,
    build_mesh,
    sample_coefficients,
)
from .powers import compute_formal_powers
from .problems import (
    BoundaryCondition,
    ParticularPiece,
    Problem,
    SolverConfig,
    fixture_path,
    load_problem,
    parse_problem,
    sample_problem,
)
from .quadrature import indefinite_integral
from .spectral import (
    EigenvalueRecord,
    assemble_characteristic,
    characteristic_at,
    count_zeros,
    roots_of,
    sweep_eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Interval",
    "Piece",
    "SampledFunction",
    "build_mesh",
    "sample_coefficients",
    "indefinite_integral",
    "compute_formal_powers",
    "build_seed_solution",
    "evaluate_solution",
    "shift_basis",
    "BoundaryCondition",
    "EigenvalueRecord",
    "assemble_characteristic",
    "roots_of",
    "count_zeros",
    "sweep_eigenvalues",
    "characteristic_at",
    "Problem",
    "SolverConfig",
    "ParticularPiece",
    "parse_problem",
    "load_problem",
    "sample_problem",
    "fixture_path",
    "SppsError",
    "InputError",
    "SolverError",
]
