"""Indefinite integration on panel-aligned meshes.

The rule is the 6-point closed Newton-Cotes formula, extended to produce
values at interior panel nodes: the degree-5 interpolant of the six
samples is integrated exactly from the panel start to each node.  That
keeps the per-panel error at O(h^7) while yielding a cumulative integral
at every mesh node.

Panels never cross a coefficient breakpoint.  Across a breakpoint the
running value is carried from the left slot to the right slot, which makes
the antiderivative continuous even when the integrand jumps.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .mesh import SampledFunction

__all__ = ["derive_partial_weights", "indefinite_integral", "l1_norm"]


def derive_partial_weights():
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


_PW_T = derive_partial_weights().T.copy()  # (6, 5), contiguous for the matmul


def _cumulative_from_a(mesh, values):
    """Antiderivative samples anchored at the left endpoint (value 0 there)."""
    seg = (values[mesh.panel_index] @ _PW_T) * mesh.panel_h[:, None]
    starts = np.empty(seg.shape[0], dtype=np.complex128)
    starts[0] = 0.0
    np.cumsum(seg[:-1, -1], out=starts[1:])
    out = np.empty(mesh.n_slots, dtype=np.complex128)
    out[0] = 0.0
    out[mesh.panel_index[:, 1:]] = starts[:, None] + seg
    for left, right in mesh.breakpoint_slots:
        out[right] = out[left]
    return out


def indefinite_integral(g):
    """Cumulative integral of ``g`` from the left endpoint a.

    The result is exactly zero at a and continuous across breakpoints by
    construction.
    """
    return SampledFunction(g.mesh, _cumulative_from_a(g.mesh, g.values))


def l1_norm(g):
    """Integral of |g| over the whole interval."""
    out = _cumulative_from_a(g.mesh, np.abs(g.values).astype(np.complex128))
    return float(out[-1].real)
