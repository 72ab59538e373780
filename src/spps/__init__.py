"""Sturm-Liouville eigensolver built on spectral parameter power series.

Solves (p u')' + q u = lambda r u on a finite interval with
piecewise-continuous (possibly complex) coefficients and
lambda-polynomial two-point boundary conditions.  Solutions are
represented as power series in the spectral parameter whose coefficient
functions are recursively computed iterated integrals; eigenvalues are
roots of a truncated characteristic polynomial, refined and validated by
recentring the series (spectral shift).
"""

from .basis import (
    ParticularSolution,
    SppsBasis,
    build_basis,
    build_seed_solution,
    evaluate_solution,
    shift_basis,
)
from .errors import (
    InputError,
    SolverError,
    SppsError,
)
from .mesh import (
    Interval,
    Mesh,
    Piece,
    ProblemSamples,
    SampledFunction,
    build_mesh,
    sample_coefficients,
)
from .powers import (
    FormalPowerSet,
    check_bounds,
    compute_formal_powers,
)
from .problems import (
    ParticularPiece,
    Problem,
    SolverConfig,
    fixture_path,
    load_problem,
    parse_problem,
    sample_problem,
)
from .quadrature import (
    derive_partial_weights,
    indefinite_integral,
    l1_norm,
)
from .spectral import (
    BoundaryCondition,
    CharacteristicPolynomial,
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
    "Mesh",
    "SampledFunction",
    "ProblemSamples",
    "build_mesh",
    "sample_coefficients",
    "derive_partial_weights",
    "indefinite_integral",
    "l1_norm",
    "FormalPowerSet",
    "compute_formal_powers",
    "check_bounds",
    "ParticularSolution",
    "SppsBasis",
    "build_seed_solution",
    "build_basis",
    "evaluate_solution",
    "shift_basis",
    "BoundaryCondition",
    "CharacteristicPolynomial",
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
