"""Exception types raised by the solver.

Input problems (bad files, bad expressions, bad meshes) derive from
:class:`InputError`; numerical failures discovered while solving derive
from :class:`SolverError`.  The CLI maps the former to exit code 2 and
the latter to exit code 3.
"""


class SppsError(Exception):
    """Base class for all package errors."""


class InputError(SppsError):
    """The problem description itself is invalid."""


class ProblemFormatError(InputError):
    """Problem or reference file does not follow the documented schema."""


class ExpressionError(InputError):
    """Base for expression parsing/evaluation errors."""


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name, position):
        super().__init__(f"unknown identifier {name!r} (at offset {position})")
        self.name = name
        self.position = position


class EvaluationError(ExpressionError):
    """Expression could not be evaluated (division by zero, ...)."""

    def __init__(self, message, node=None, x=None):
        detail = message
        if node is not None:
            detail += f" in {node}"
        if x is not None:
            detail += f" at x={x}"
        super().__init__(detail)
        self.node = node
        self.x = x


class MeshError(InputError):
    """Pieces do not tile the interval, or the resolution request is invalid."""


class CoefficientError(InputError):
    """A coefficient cannot be sampled (evaluation failure or p=0 at a node)."""


class SolverError(SppsError):
    """Numerical failure while running the method.

    Raised from ``sweep_eigenvalues``, ``records`` holds the eigenvalues
    accepted before the failure, ordered as the sweep returns them (empty
    when none was).
    """

    records = ()


class NonvanishingError(SolverError):
    """The particular solution vanishes (or nearly vanishes) at a node."""


class ParticularResidualError(SolverError):
    """A claimed particular solution does not satisfy its equation."""


class SeedFailureError(SolverError):
    """No pair of the 45-pair pool mixes the seed series into a usable solution."""


class ShiftFailureError(SolverError):
    """A spectral shift could not produce a usable recentred basis."""


class ConfigurationError(SolverError):
    """An operation was invoked with an unsupported configuration."""


class DegeneratePolynomialError(SolverError):
    """The characteristic coefficients are all zero, or not all finite."""


class ContourError(SolverError):
    """Zero counting on a contour could not be completed reliably."""


class SweepStalledError(SolverError):
    """The eigenvalue sweep could not validate any further candidate roots."""

