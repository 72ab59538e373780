"""Problem input: the problem model, boundary conditions included, and the file formats.

A problem file is line-oriented text with ``[section]`` headers and
``key = value`` lines.  ``#`` starts a comment, blank lines are ignored,
and sections may repeat where that makes sense (one ``[piece]`` per
coefficient piece).  Expressions are double-quoted strings in the
expression grammar; scalars accept the complex literal form ``a+bi``.

    [interval]
    a = -1
    b = 1

    [piece]                  # repeated, in left-to-right order
    from = -1
    to = 0
    p = "-1"
    q = "-1"
    r = "1"
    f = "cos(x)"             # optional particular solution (all pieces or none)
    f_prime = "-sin(x)"      # or pf_prime = "..."; pieces may mix the two

    [bc_left]                # lambda-polynomial boundary condition
    alpha = 0, 1             # coefficients, lowest degree first
    beta = 1
    derivative = u_prime     # or p_u_prime

    [bc_right]
    alpha = 0, 1
    beta = -1
    derivative = u_prime

    [solver]
    n_powers = 60            # series truncation N
    mesh = 50000             # requested subinterval count M
    delta = 0                # center displacement per step
    policy = always_previous # or previous_if_upper_half, fixed_center
    max_eigenvalues = 11
    accept_threshold = 1e-8

Bundled fixtures for the reference problems live under
``spps/fixtures`` and can be located with :func:`fixture_path`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import expressions
from .basis import build_seed_solution, particular_from_samples, verify_particular
from .errors import ExpressionError, MeshError, ProblemFormatError
from .mesh import Interval, Piece, ProblemSamples, build_mesh, sample_coefficients, sample_piecewise

__all__ = [
    "BoundaryCondition",
    "SolverConfig",
    "ParticularPiece",
    "Problem",
    "parse_problem",
    "load_problem",
    "sample_problem",
    "particular_for",
    "prepare",
    "with_overrides",
    "fixture_path",
    "load_reference",
    "match_reference",
    "parse_complex",
    "format_complex",
]


# the most complex128 samples one numpy array can hold: its byte size is an np.intp
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize

POLICIES = ("always_previous", "previous_if_upper_half", "fixed_center")


@dataclass(frozen=True, eq=False)
class BoundaryCondition:
    """alpha(lambda) * u + beta(lambda) * derivative = 0 at one endpoint.

    ``alpha`` and ``beta`` are polynomial coefficient arrays in lambda,
    lowest degree first.  ``derivative_form`` selects whether beta
    multiplies u' or the quasi-derivative p*u'.
    """

    endpoint: str  # "left" | "right"
    alpha: np.ndarray
    beta: np.ndarray
    derivative_form: str = "u_prime"

    def __post_init__(self):
        if self.endpoint not in ("left", "right"):
            raise ProblemFormatError(f"endpoint must be 'left' or 'right', got {self.endpoint!r}")
        if self.derivative_form not in ("u_prime", "p_u_prime"):
            raise ProblemFormatError(f"unknown derivative_form {self.derivative_form!r}")
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=np.complex128))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=np.complex128))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        alpha.flags.writeable = False
        beta.flags.writeable = False
        if not (np.any(alpha != 0) or np.any(beta != 0)):
            raise ProblemFormatError("alpha and beta cannot both be identically zero")
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise ProblemFormatError("alpha and beta must be finite")

    @property
    def degree(self):
        return max(_poly_degree(self.alpha), _poly_degree(self.beta))


def _poly_degree(coeffs):
    nz = np.flatnonzero(coeffs != 0)
    return int(nz[-1]) if nz.size else 0


@dataclass(frozen=True)
class SolverConfig:
    n_terms: int = 40
    mesh_m: int = 2000
    delta: complex = 0.0
    policy: str = "always_previous"
    max_eigenvalues: int = 10
    accept_threshold: float = 1e-8

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ProblemFormatError(f"unknown policy {self.policy!r}; pick one of {POLICIES}")
        if self.n_terms < 0:
            raise ProblemFormatError("n_powers must be nonnegative")
        if self.max_eigenvalues < 1:
            raise ProblemFormatError("max_eigenvalues must be at least 1")
        if not cmath.isfinite(self.delta):
            raise ProblemFormatError(f"delta must be finite, got {self.delta}")
        if not self.accept_threshold > 0:  # also catches NaN
            raise ProblemFormatError("accept_threshold must be positive")
        if not self.accept_threshold < 1:  # the residual |c0|/max|c_k| never exceeds 1
            raise ProblemFormatError("accept_threshold must be below 1")
        # the power set: two families of 2N+2 rows over at least M+1 nodes
        samples = 2 * (2 * self.n_terms + 2) * (self.mesh_m + 1)
        if samples > _MAX_SAMPLES:
            raise ProblemFormatError(
                f"n_powers = {self.n_terms} and mesh = {self.mesh_m} need {samples} "
                f"power samples; numpy can index at most {_MAX_SAMPLES}"
            )


@dataclass(frozen=True)
class ParticularPiece:
    """Per-piece expressions for a user-supplied particular solution."""

    f: expressions.Expression
    f_prime: expressions.Expression | None = None
    pf_prime: expressions.Expression | None = None

    def __post_init__(self):
        if (self.f_prime is None) == (self.pf_prime is None):
            raise ProblemFormatError(
                "give exactly one of f_prime or pf_prime with a particular solution"
            )


@dataclass(frozen=True)
class Problem:
    interval: Interval
    pieces: tuple
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    particular: tuple | None = None
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if self.particular is not None and len(self.particular) != len(self.pieces):
            raise ProblemFormatError(
                "particular solution needs one expression set per piece"
            )


# ---------------------------------------------------------------------------
# Complex token helpers


def parse_complex(text):
    """Parse a scalar like ``-0.5``, ``1e-3``, ``2i`` or ``0.47+0.34i``."""
    try:
        expr = expressions.parse(text)
        return expressions.const_value(expr)
    except ExpressionError as exc:
        raise ProblemFormatError(f"bad numeric value {text!r}: {exc}") from exc


def format_complex(z):
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    if z.real == 0.0:
        return f"{z.imag:.17g}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def _parse_real(text, what):
    z = parse_complex(text)
    if z.imag != 0.0:
        raise ProblemFormatError(f"{what} must be real, got {text!r}")
    return z.real


def _parse_count(text, what):
    value = _parse_real(text, what)
    if not value.is_integer():  # also false for inf and NaN
        raise ProblemFormatError(f"{what} must be a whole number, got {text!r}")
    return int(value)


# ---------------------------------------------------------------------------
# File parsing


def _split_sections(text):
    sections = []
    current = None
    for lineno, line, raw in _content_lines(text):
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip().lower(), [])
            sections.append(current)
            continue
        if current is None:
            raise ProblemFormatError(f"line {lineno}: content before any [section]")
        if "=" not in line:
            raise ProblemFormatError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        current[1].append((lineno, key.strip().lower(), value.strip()))
    return sections


def _section(where, items, required, optional=()):
    """The ``key = value`` lines of ``[where]`` as a dict, keys checked."""
    data = {}
    for lineno, key, value in items:
        if key in data:
            raise ProblemFormatError(f"line {lineno}: duplicate key {key!r} in [{where}]")
        data[key] = value
    missing = set(required) - data.keys()
    if missing:
        raise ProblemFormatError(f"[{where}] missing key(s): {', '.join(sorted(missing))}")
    unknown = data.keys() - set(required) - set(optional)
    if unknown:
        raise ProblemFormatError(f"[{where}] unknown key(s): {', '.join(sorted(unknown))}")
    return data


def _quoted_expression(value, where):
    value = value.strip()
    if len(value) < 2 or value[0] != '"' or value[-1] != '"':
        raise ProblemFormatError(f"{where}: expressions must be double-quoted, got {value!r}")
    try:
        return expressions.parse(value[1:-1])
    except ExpressionError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def _coeff_list(value, where):
    try:
        return np.array([parse_complex(tok) for tok in value.split(",")], dtype=np.complex128)
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


# [solver] key -> (SolverConfig field, reader); read in this order
_SOLVER_KEYS = {
    "n_powers": ("n_terms", _parse_count),
    "mesh": ("mesh_m", _parse_count),
    "max_eigenvalues": ("max_eigenvalues", _parse_count),
    "delta": ("delta", lambda text, key: parse_complex(text)),
    "policy": ("policy", lambda text, key: text),
    "accept_threshold": ("accept_threshold", _parse_real),
}
_PIECE_EXPRESSIONS = ("p", "q", "r", "f", "f_prime", "pf_prime")


def parse_problem(text):
    """Parse problem-file text into a :class:`Problem`."""
    sections = _split_sections(text)
    names = [name for name, _ in sections]
    for required in ("interval", "piece", "bc_left", "bc_right"):
        if required not in names:
            raise ProblemFormatError(f"missing [{required}] section")

    interval = None
    pieces = []
    particulars = []
    bcs = {}
    solver_kwargs = {}

    for name, items in sections:
        if name == "interval":
            data = _section(name, items, ("a", "b"))
            interval = Interval(_parse_real(data["a"], "a"), _parse_real(data["b"], "b"))
        elif name == "piece":
            where = f"piece {len(pieces)}"
            data = _section(where, items, ("from", "to", "p", "q", "r"), _PIECE_EXPRESSIONS[3:])
            lo, hi = _parse_real(data["from"], "from"), _parse_real(data["to"], "to")
            exprs = {
                key: _quoted_expression(data[key], f"{where} {key}")
                for key in _PIECE_EXPRESSIONS
                if key in data
            }
            pieces.append(Piece(lo, hi, *(exprs.pop(key) for key in "pqr")))
            # what is left is the particular solution: f and one derivative
            if exprs and "f" not in exprs:
                raise ProblemFormatError(f"{where}: f_prime/pf_prime without f")
            particulars.append(ParticularPiece(**exprs) if exprs else None)
        elif name in ("bc_left", "bc_right"):
            if name in bcs:
                raise ProblemFormatError(f"duplicate [{name}] section")
            data = _section(name, items, ("alpha", "beta"), ("derivative",))
            alpha = _coeff_list(data["alpha"], f"{name} alpha")
            beta = _coeff_list(data["beta"], f"{name} beta")
            try:
                bcs[name] = BoundaryCondition(
                    name.removeprefix("bc_"), alpha, beta, data.get("derivative", "u_prime")
                )
            except ProblemFormatError as exc:
                raise ProblemFormatError(f"[{name}]: {exc}") from exc
        elif name == "solver":
            data = _section(name, items, (), _SOLVER_KEYS)
            for key, (field, read) in _SOLVER_KEYS.items():
                if key in data:
                    solver_kwargs[field] = read(data[key], key)
        else:
            raise ProblemFormatError(f"unknown section [{name}]")

    have_particular = [p is not None for p in particulars]
    if any(have_particular) and not all(have_particular):
        raise ProblemFormatError("particular solution must cover all pieces or none")

    return Problem(
        interval=interval,
        pieces=tuple(pieces),
        bc_left=bcs["bc_left"],
        bc_right=bcs["bc_right"],
        particular=tuple(particulars) if all(have_particular) else None,
        solver=SolverConfig(**solver_kwargs),
    )


def load_problem(path):
    return parse_problem(_read_text(path))


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc


def _content_lines(text):
    """(line number, text before any ``#``, stripped; raw line) of each nonblank line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, raw


# ---------------------------------------------------------------------------
# Sampling and solver preparation


def sample_problem(problem, m=None):
    """Mesh the problem and sample its coefficient triple."""
    m = problem.solver.mesh_m if m is None else m
    mesh = build_mesh(problem.interval, problem.pieces, m)
    p, q, r = sample_coefficients(problem.pieces, mesh)
    return ProblemSamples(mesh=mesh, p=p, q=q, r=r)


def particular_for(problem, samples):
    """The user-supplied particular solution sampled on the mesh, or None."""
    if problem.particular is None:
        return None
    pf_prime = [
        pp.pf_prime if pp.pf_prime is not None else expressions.Bin("*", piece.p, pp.f_prime)
        for piece, pp in zip(problem.pieces, problem.particular)
    ]
    f = sample_piecewise([pp.f for pp in problem.particular], samples.mesh)
    return particular_from_samples(samples, f, sample_piecewise(pf_prime, samples.mesh))


def prepare(problem, config=None, particular=None):
    """Resolve config, sample coefficients, and obtain a verified starting solution.

    ``particular`` overrides both the problem file's expressions and the
    seed construction (used by tests exercising scaling invariance); it
    must be sampled on the mesh that ``config.mesh_m`` gives.  Each start is
    verified here, once (the file's f and the seed as they are built), so
    callers build on it with ``SppsBasis`` and check nothing again.
    """
    config = problem.solver if config is None else config
    samples = sample_problem(problem, config.mesh_m)
    start = particular
    if start is None:
        start = particular_for(problem, samples)
    elif (start.f.mesh.piece_bounds, start.f.mesh.piece_nsub) != (
        samples.mesh.piece_bounds,
        samples.mesh.piece_nsub,
    ):
        raise MeshError(
            f"particular solution is sampled on another mesh (M = "
            f"{start.f.mesh.n_subintervals}) than the problem (M = {samples.mesh.n_subintervals})"
        )
    else:
        verify_particular(samples, start)
    if start is None:
        start = build_seed_solution(samples, config.n_terms)
    return config, samples, problem.bc_left, problem.bc_right, start


def with_overrides(problem, **overrides):
    """Copy of the problem with solver fields replaced."""
    return replace(problem, solver=replace(problem.solver, **overrides))


def fixture_path(name):
    """Filesystem path of a bundled fixture (e.g. ``example1.prob``)."""
    return Path(str(resources.files("spps") / "fixtures" / name))


# ---------------------------------------------------------------------------
# Reference tables (used by the verify command and the acceptance suite)


def load_reference(path):
    """Rows (n, value, tolerance) from a reference table file."""
    rows = []
    for lineno, line, raw in _content_lines(_read_text(path)):
        parts = [tok.strip() for tok in line.split(",")]
        if len(parts) != 3:
            raise ProblemFormatError(
                f"{path}:{lineno}: expected 'n,value,tolerance', got {raw!r}"
            )
        try:
            rows.append((int(parts[0]), parse_complex(parts[1]), float(parts[2])))
        except (ValueError, ProblemFormatError) as exc:
            raise ProblemFormatError(f"{path}:{lineno}: {exc}") from exc
        if not 0.0 <= rows[-1][2] < math.inf:  # also catches NaN
            raise ProblemFormatError(
                f"{path}:{lineno}: tolerance must be finite and nonnegative, got {parts[2]!r}"
            )
    if not rows:
        raise ProblemFormatError(f"{path}: reference file has no rows")
    return rows


def match_reference(computed, rows):
    """Match eigenvalues to a reference table by value proximity.

    Returns (index, reference, best_match, error, tolerance, passed) per
    row.  Proximity matching tolerates tables with index gaps and sweeps
    that discover eigenvalues a table does not list.
    """
    if not computed:
        raise ValueError("no computed eigenvalues to match")
    report = []
    for n_ref, value, tol in rows:
        best = min(computed, key=lambda lam: abs(lam - value))
        err = abs(best - value)
        report.append((n_ref, value, best, err, tol, err <= tol))
    return report
