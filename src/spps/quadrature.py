"""Indefinite integration on panel-aligned meshes.

The rule is the 6-point closed Newton-Cotes formula, extended to produce
values at interior panel nodes: the degree-5 interpolant of the six
samples is integrated exactly from the panel start to each node.  That
keeps the per-panel error at O(h^7) while yielding a cumulative integral
at every mesh node.

Panels never cross a coefficient breakpoint.  Across a breakpoint the
running value is carried from the left slot to the right slot, which makes
the antiderivative continuous even when the integrand jumps.

``indefinite_integral(g)`` allocates its result and scratch blocks.  A
caller that integrates many rows on one mesh passes ``out=`` (the row to
write, which must not overlap ``g.values``) and ``work=`` (one
``_workspace(mesh)`` shared by all its calls); the samples are the same
bits either way.  The result then wraps ``out``, so nothing is copied.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .mesh import SampledFunction

__all__ = ["indefinite_integral", "l1_norm"]


def _derive_partial_weights():
    """Integration weights on the unit-spaced nodes 0..5, read-only (5, 6).

    Row ``j-1`` holds the exact integrals from 0 to j of the six Lagrange
    basis polynomials, derived in rational arithmetic; the last row is the
    closed rule over the whole panel.  Multiply by the step h at use time.
    """
    rows = []
    for j in range(1, 6):
        row = []
        for k in range(6):
            coeffs = _lagrange_coeffs(k)
            row.append(sum(c * Fraction(j) ** (m + 1) / (m + 1) for m, c in enumerate(coeffs)))
        rows.append(row)
    partial = np.array([[float(w) for w in row] for row in rows])
    partial.flags.writeable = False
    return partial


def _lagrange_coeffs(k):
    # ascending coefficients of prod_{j != k} (t - j) / (k - j) on nodes 0..5
    num = [Fraction(1)]
    den = Fraction(1)
    for j in range(6):
        if j == k:
            continue
        shifted = [Fraction(0)] * (len(num) + 1)
        for m, c in enumerate(num):
            shifted[m + 1] += c
            shifted[m] -= c * j
        num = shifted
        den *= k - j
    return [c / den for c in num]


# (6, 5), contiguous and complex, so the matmul casts nothing per call
_PW_T = _derive_partial_weights().T.astype(np.complex128)


def _workspace(mesh):
    """Scratch blocks for integrals on ``mesh``: panel samples, panel integrals, starts.

    One workspace serves any number of integrals on the same mesh, so a
    caller that integrates many rows allocates these blocks once.
    """
    n_panels = mesh.panel_h.size
    return (
        np.empty((n_panels, 6), dtype=np.complex128),
        np.empty((n_panels, 5), dtype=np.complex128),
        np.empty(n_panels, dtype=np.complex128),
    )


def _cumulative_from_a(mesh, values, out=None, work=None):
    """Antiderivative samples anchored at the left endpoint (value 0 there)."""
    if out is None:
        out = np.empty(mesh.n_slots, dtype=np.complex128)
    panels, seg, starts = _workspace(mesh) if work is None else work
    # the indices are in range; "clip" writes straight into ``panels``,
    # where the default mode would fill a temporary and copy it
    np.take(values, mesh.panel_index, out=panels, mode="clip")
    np.matmul(panels, _PW_T, out=seg)
    seg *= mesh.panel_h[:, None]
    starts[0] = 0.0
    np.cumsum(seg[:-1, -1], out=starts[1:])
    seg += starts[:, None]
    out[0] = 0.0
    # a piece's panels tile its slots after the first node in order
    first = 0
    for offset, count in zip(mesh.offsets, mesh.piece_nsub):
        last = first + count // 5
        out[offset + 1 : offset + count + 1] = seg[first:last].reshape(-1)
        first = last
    for left, right in mesh.breakpoint_slots:
        out[right] = out[left]
    return out


def indefinite_integral(g, *, out=None, work=None):
    """Cumulative integral of ``g`` from the left endpoint a.

    The result is exactly zero at a and continuous across breakpoints by
    construction.  ``out`` (a writable complex128 row on the mesh, not
    overlapping ``g.values``) receives the samples, and the result wraps
    it, which leaves that array read-only.  ``work`` is a ``_workspace``
    of the same mesh, reused across calls.  Both are optional and change
    no bit of the result.
    """
    return SampledFunction(g.mesh, _cumulative_from_a(g.mesh, g.values, out, work))


def l1_norm(g):
    """Integral of |g| over the whole interval."""
    out = _cumulative_from_a(g.mesh, np.abs(g.values).astype(np.complex128))
    return float(out[-1].real)
