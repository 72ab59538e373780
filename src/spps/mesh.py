"""Interval, piecewise coefficients, and the sampling mesh.

Coefficients live on an *expanded* grid: each piece contributes its own
closed node range, so an interior breakpoint occupies two consecutive
slots (left-side value, right-side value).  Indefinite integrals carry the
running value across that pair, which is how piecewise-continuous
integrands become continuous antiderivatives.

Every piece gets a uniform spacing and a subinterval count that is a
multiple of 5, so that 6-point quadrature panels never straddle a
discontinuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expressions
from .errors import CoefficientError, EvaluationError, MeshError

__all__ = [
    "Interval",
    "Piece",
    "Mesh",
    "SampledFunction",
    "ProblemSamples",
    "build_mesh",
    "subinterval_counts",
    "sample_coefficients",
    "sample_piecewise",
    "constant_function",
]

_TILE_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise MeshError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise MeshError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self):
        return self.b - self.a


@dataclass(frozen=True)
class Piece:
    """One smooth piece of the coefficient triple (p, q, r)."""

    lo: float
    hi: float
    p: expressions.Expression
    q: expressions.Expression
    r: expressions.Expression

    def __post_init__(self):
        if not self.lo < self.hi:
            raise MeshError(f"piece requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Mesh:
    """Panel-aligned sampling grid over a tiled interval.

    Attributes:
        interval: the underlying interval [a, b].
        piece_bounds: (lo, hi) per piece.
        piece_nsub: subinterval count per piece (each a positive multiple of 5).
        offsets: slot index of each piece's first node in the expanded grid.
        xs: expanded node coordinates; interior breakpoints appear twice.
        breakpoint_slots: (left_slot, right_slot) pairs for interior breakpoints.
    """

    interval: Interval
    piece_bounds: tuple
    piece_nsub: tuple
    offsets: tuple
    xs: np.ndarray
    breakpoint_slots: tuple
    panel_index: np.ndarray = field(repr=False)
    panel_h: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.xs.flags.writeable = False
        self.panel_index.flags.writeable = False
        self.panel_h.flags.writeable = False

    @property
    def n_slots(self):
        return self.xs.size

    @property
    def n_subintervals(self):
        """Effective M: total subinterval count across all pieces."""
        return int(sum(self.piece_nsub))

    def piece_slice(self, i):
        """Slot slice covering piece ``i`` (both endpoints included)."""
        start = self.offsets[i]
        return slice(start, start + self.piece_nsub[i] + 1)

    def slot_of(self, x):
        """Slot index of the mesh node at coordinate ``x`` (left slot if doubled)."""
        k = int(np.argmin(np.abs(self.xs - x)))
        # scaled by the node, not by x, so an infinite or NaN x fails too
        if not abs(self.xs[k] - x) <= 1e-9 * (1.0 + abs(self.xs[k])):
            raise MeshError(f"x={x} is not a mesh node")
        return k


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on the expanded grid of a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.mesh.n_slots,):
            raise ValueError(
                f"expected {self.mesh.n_slots} values, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)
        values.flags.writeable = False

    @property
    def at_a(self):
        return complex(self.values[0])

    @property
    def at_b(self):
        return complex(self.values[-1])


@dataclass(frozen=True)
class ProblemSamples:
    """The coefficient triple sampled on a common mesh."""

    mesh: Mesh
    p: SampledFunction
    q: SampledFunction
    r: SampledFunction


def build_mesh(interval, pieces, m):
    """Build the panel-aligned mesh for ``pieces`` tiling ``interval``.

    ``m`` is the requested total subinterval count, split over the pieces
    by ``subinterval_counts``.  The effective total is available as
    ``mesh.n_subintervals`` and is always >= m.
    """
    _check_tiling(interval, pieces)
    nsub = subinterval_counts(interval, pieces, m)

    bounds = tuple((p.lo, p.hi) for p in pieces)
    offsets = []
    xs_parts = []
    pos = 0
    for (lo, hi), count in zip(bounds, nsub):
        offsets.append(pos)
        xs_parts.append(np.linspace(lo, hi, count + 1))
        pos += count + 1

    xs = np.concatenate(xs_parts)
    breakpoint_slots = tuple(
        (offsets[i] + nsub[i], offsets[i + 1]) for i in range(len(pieces) - 1)
    )

    panel_rows = []
    panel_h = []
    for i, count in enumerate(nsub):
        base = offsets[i] + 5 * np.arange(count // 5)
        panel_rows.append(base[:, None] + np.arange(6)[None, :])
        panel_h.append(np.full(count // 5, (bounds[i][1] - bounds[i][0]) / count))

    return Mesh(
        interval=interval,
        piece_bounds=bounds,
        piece_nsub=nsub,
        offsets=tuple(offsets),
        xs=xs,
        breakpoint_slots=breakpoint_slots,
        panel_index=np.concatenate(panel_rows, axis=0),
        panel_h=np.concatenate(panel_h),
    )


def subinterval_counts(interval, pieces, m):
    """Per-piece subinterval counts of the mesh ``build_mesh`` would build.

    Each piece's share of ``m`` is proportional to its length, rounded up
    to a multiple of 5 and at least 5, so a 6-point panel never straddles
    a breakpoint.  No node arrays are allocated.
    """
    if m < 1:
        raise MeshError(f"resolution m={m} must be positive")
    total = interval.length
    return tuple(max(5, 5 * math.ceil(m * (pc.hi - pc.lo) / total / 5.0)) for pc in pieces)


def _check_tiling(interval, pieces):
    if not pieces:
        raise MeshError("at least one piece is required")
    scale = max(1.0, abs(interval.a), abs(interval.b))
    tol = _TILE_TOL * scale
    if abs(pieces[0].lo - interval.a) > tol:
        raise MeshError(
            f"pieces do not start at a={interval.a}: first piece starts at {pieces[0].lo}"
        )
    for left, right in zip(pieces, pieces[1:]):
        if abs(left.hi - right.lo) > tol:
            kind = "gap" if right.lo > left.hi else "overlap"
            raise MeshError(
                f"{kind} between pieces at x={left.hi} (next piece starts at {right.lo})"
            )
    if abs(pieces[-1].hi - interval.b) > tol:
        raise MeshError(
            f"pieces do not end at b={interval.b}: last piece ends at {pieces[-1].hi}"
        )


def sample_piecewise(exprs, mesh):
    """Sample one expression per piece on the expanded grid.

    Breakpoint slots get their value from the piece that owns the side.
    Every sample must be finite.
    """
    if len(exprs) != len(mesh.piece_bounds):
        raise ValueError(
            f"need {len(mesh.piece_bounds)} expressions, got {len(exprs)}"
        )
    out = np.empty(mesh.n_slots, dtype=np.complex128)
    for i, expr in enumerate(exprs):
        sl = mesh.piece_slice(i)
        lo, hi = mesh.piece_bounds[i]
        try:
            out[sl] = expressions.evaluate(expr, mesh.xs[sl].astype(float))
        except EvaluationError as exc:
            raise CoefficientError(
                f"cannot sample {expressions.to_string(expr)!r} on piece [{lo}, {hi}]: {exc}"
            ) from exc
        finite = np.isfinite(out[sl])
        if not finite.all():
            raise CoefficientError(
                f"{expressions.to_string(expr)!r} is not finite at "
                f"x={mesh.xs[sl][np.argmin(finite)]} on piece [{lo}, {hi}]"
            )
    return SampledFunction(mesh, out)


def sample_coefficients(pieces, mesh):
    """Sample the coefficient triple; p must be nonzero at every node."""
    p = sample_piecewise([pc.p for pc in pieces], mesh)
    q = sample_piecewise([pc.q for pc in pieces], mesh)
    r = sample_piecewise([pc.r for pc in pieces], mesh)
    zero = np.flatnonzero(p.values == 0)
    if zero.size:
        x_bad = mesh.xs[zero[0]]
        raise CoefficientError(
            f"p vanishes at mesh node x={x_bad}; singular problems are not supported"
        )
    return p, q, r


def constant_function(mesh, value):
    return SampledFunction(mesh, np.full(mesh.n_slots, value, dtype=np.complex128))
