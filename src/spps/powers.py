"""The two interleaved families of formal powers.

Starting from the constant 1, members are produced by alternately
integrating against the weights r*f^2 and 1/(p*f^2), anchored at a.  The
first family starts with the r-weight on odd indices; the second family
starts with the 1/p-weight.  These functions are the lambda-series
coefficients of the two basis solutions.

``check_bounds`` verifies the factorial growth estimates

    |X~(2n)|, |X(2n)|   <= (C1*C2)^n / (n!)^2
    |X(2n-1)|           <= C1^n/n! * C2^(n-1)/(n-1)!
    |X~(2n-1)|          <= C1^(n-1)/(n-1)! * C2^n/n!

with C1 = ||1/(p f^2)||_L1 and C2 = ||r f^2||_L1.  A violation signals a
quadrature or recursion defect, so it raises rather than returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundViolationError, NonvanishingError
from .mesh import Mesh, SampledFunction
from .quadrature import _workspace, indefinite_integral, l1_norm

__all__ = [
    "FormalPowerSet",
    "compute_formal_powers",
    "check_bounds",
]


@dataclass(frozen=True)
class FormalPowerSet:
    """Stacked samples of both families, indices n = 0 .. 2N+1.

    ``tilde[n]`` and ``plain[n]`` hold the n-th member of each family on
    the expanded mesh grid.  The weight samples used by the recursion are
    kept for bound checks and reuse.
    """

    mesh: Mesh
    tilde: np.ndarray = field(repr=False)
    plain: np.ndarray = field(repr=False)
    n_max: int
    weight_r: np.ndarray = field(repr=False)
    weight_p: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.tilde, self.plain, self.weight_r, self.weight_p):
            arr.flags.writeable = False

    @property
    def n_terms(self):
        """N: the truncation order the set was built for (n_max = 2N+1)."""
        return (self.n_max - 1) // 2


def compute_formal_powers(f, p, r, n_terms):
    """Build both families up to index 2*n_terms + 1.

    ``f`` must be nonvanishing at every node, otherwise 1/(p f^2) blows up.
    """
    if n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    mesh = f.mesh
    fv = f.values
    small = np.abs(fv) == 0.0
    if np.any(small):
        k = int(np.flatnonzero(small)[0])
        raise NonvanishingError(
            f"particular solution vanishes at mesh node x={mesh.xs[k]}; "
            "choose a different f or shift the spectral center"
        )

    f2 = fv * fv
    weight_r = r.values * f2
    weight_p = 1.0 / (p.values * f2)

    n_max = 2 * n_terms + 1
    shape = (n_max + 1, mesh.n_slots)
    tilde = np.empty(shape, dtype=np.complex128)
    plain = np.empty(shape, dtype=np.complex128)
    tilde[0] = 1.0
    plain[0] = 1.0
    # each integral is written straight into its row; the product row and
    # the quadrature workspace are shared by all 2(2N+1) integrals
    prod = np.empty(mesh.n_slots, dtype=np.complex128)
    work = _workspace(mesh)
    for n in range(1, n_max + 1):
        wt, wp = (weight_r, weight_p) if n % 2 == 1 else (weight_p, weight_r)
        for fam, weight in ((tilde, wt), (plain, wp)):
            np.multiply(fam[n - 1], weight, out=prod)
            # a fresh view each time: SampledFunction marks its array read-only
            indefinite_integral(SampledFunction(mesh, prod[:]), out=fam[n], work=work)

    return FormalPowerSet(
        mesh=mesh,
        tilde=tilde,
        plain=plain,
        n_max=n_max,
        weight_r=weight_r,
        weight_p=weight_p,
    )


def check_bounds(fp):
    """Verify the factorial growth estimates at every node.

    Returns the L1 constants (C1, C2).  Raises BoundViolationError when a
    computed power exceeds its bound by more than a relative 1e-8
    (roundoff allowance).
    """
    c1 = l1_norm(SampledFunction(fp.mesh, fp.weight_p))
    c2 = l1_norm(SampledFunction(fp.mesh, fp.weight_r))
    allow = 1.0 + 1e-8

    tilde_abs = np.abs(fp.tilde).max(axis=1)
    plain_abs = np.abs(fp.plain).max(axis=1)

    # below this, the bound itself is at the edge of double precision and the
    # comparison is meaningless
    floor = 1e-290

    even_bound = 1.0  # (c1 c2)^n / (n! n!)
    for n in range(fp.n_terms + 1):
        if n > 0:
            even_bound *= c1 * c2 / (n * n)
        if even_bound < floor:
            break
        for fam, name in ((tilde_abs, "tilde"), (plain_abs, "plain")):
            if fam[2 * n] > even_bound * allow:
                raise BoundViolationError(
                    f"{name}[{2 * n}] = {fam[2 * n]:.6e} exceeds bound {even_bound:.6e}; "
                    "quadrature or recursion defect"
                )

    plain_odd = 1.0  # c1^n/n! * c2^(n-1)/(n-1)!
    tilde_odd = 1.0  # c1^(n-1)/(n-1)! * c2^n/n!
    for n in range(1, fp.n_terms + 2):  # last odd index 2N+1 belongs to n = N+1
        plain_odd *= c1 / n * (c2 / (n - 1) if n > 1 else 1.0)
        tilde_odd *= c2 / n * (c1 / (n - 1) if n > 1 else 1.0)
        idx = 2 * n - 1
        if max(plain_odd, tilde_odd) < floor:
            break
        if plain_abs[idx] > plain_odd * allow and plain_odd >= floor:
            raise BoundViolationError(
                f"plain[{idx}] = {plain_abs[idx]:.6e} exceeds bound {plain_odd:.6e}"
            )
        if tilde_abs[idx] > tilde_odd * allow and tilde_odd >= floor:
            raise BoundViolationError(
                f"tilde[{idx}] = {tilde_abs[idx]:.6e} exceeds bound {tilde_odd:.6e}"
            )

    return c1, c2
