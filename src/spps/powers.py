"""The two interleaved families of formal powers.

Starting from the constant 1, members are produced by alternately
integrating against the weights r*f^2 and 1/(p*f^2), anchored at a.  The
first family starts with the r-weight on odd indices; the second family
starts with the 1/p-weight.  These functions are the lambda-series
coefficients of the two basis solutions.

The members obey the factorial growth estimates

    |X~(2n)|, |X(2n)|   <= (C1*C2)^n / (n!)^2
    |X(2n-1)|           <= C1^n/n! * C2^(n-1)/(n-1)!
    |X~(2n-1)|          <= C1^(n-1)/(n-1)! * C2^n/n!

with C1 = ||1/(p f^2)||_L1 and C2 = ||r f^2||_L1 (Kravchenko & Porter,
Math. Methods Appl. Sci. 33 (2010) 459-468); ``_growth_bounds`` yields
their right-hand sides.

The two families share only the two weights, so ``compute_formal_powers``
builds them as two independent loops, each with its own scratch rows.
``_in_pair`` runs the two on two threads when the mesh has at least
_PAIRED_MIN_SLOTS slots and the process may use two CPUs (numpy releases
the interpreter lock inside each row operation), and inline otherwise.
Every row is the same bits either way.  ``basis.evaluate_solution`` sums
its two series through the same helper.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NonvanishingError
from .mesh import Mesh, SampledFunction
from .quadrature import _workspace, indefinite_integral

__all__ = [
    "FormalPowerSet",
    "compute_formal_powers",
]

# rows at least this long are worth a second thread: below it, starting and
# joining one costs more than the half it takes off (about 8000 slots is
# even at N = 40)
_PAIRED_MIN_SLOTS = 16384


# the CPUs this process may run on (its affinity set, where the platform has one)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _in_pair(mesh, first, second):
    """Run ``first()`` and ``second()``; return both results, in that order.

    On a mesh of at least _PAIRED_MIN_SLOTS slots, with two CPUs or more to
    run on, ``first`` runs on a thread started for this call and ``second``
    on the caller's, and the thread is joined before this returns.  The two
    must share no array they write.  An exception from either is raised
    only after both have ended, ``first``'s before ``second``'s, as inline.
    Anything else runs both inline.
    """
    if mesh.n_slots < _PAIRED_MIN_SLOTS or _CPUS < 2:
        return first(), second()
    result, error = [None], []

    def target():
        try:
            result[0] = first()
        except BaseException as exc:  # handed to the caller, which re-raises it
            error.append(exc)

    worker = threading.Thread(target=target, name="spps-pair", daemon=True)
    worker.start()
    try:
        other = second()
    finally:
        worker.join()
        if error:
            raise error[0]
    return result[0], other


@dataclass(frozen=True)
class FormalPowerSet:
    """Stacked samples of both families, indices n = 0 .. 2N+1.

    ``tilde[n]`` and ``plain[n]`` hold the n-th member of each family on
    the expanded mesh grid.
    """

    mesh: Mesh
    tilde: np.ndarray = field(repr=False)
    plain: np.ndarray = field(repr=False)
    n_max: int

    def __post_init__(self):
        for arr in (self.tilde, self.plain):
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
    # one block for both families: glibc maps a block this large on its own
    # and returns it to the OS when freed, where two halves of 32 MiB or
    # less would come from the heap and stay resident
    tilde, plain = np.empty((2, n_max + 1, mesh.n_slots), dtype=np.complex128)

    def run(fam, w_odd, w_even):
        # each integral is written straight into its row; the product row and
        # the quadrature workspace belong to this family alone, so the two
        # families can run on two threads
        fam[0] = 1.0
        prod = np.empty(mesh.n_slots, dtype=np.complex128)
        work = _workspace(mesh)
        for n in range(1, n_max + 1):
            np.multiply(fam[n - 1], w_odd if n % 2 == 1 else w_even, out=prod)
            # a fresh view each time: SampledFunction marks its array read-only
            indefinite_integral(SampledFunction(mesh, prod[:]), out=fam[n], work=work)

    _in_pair(
        mesh,
        lambda: run(tilde, weight_r, weight_p),
        lambda: run(plain, weight_p, weight_r),
    )
    return FormalPowerSet(mesh=mesh, tilde=tilde, plain=plain, n_max=n_max)


def _growth_bounds(c1, c2):
    """Yield the growth bounds (even, plain_odd, tilde_odd) for n = 0, 1, 2, ...

    ``even`` bounds both families at index 2n, ``plain_odd`` and
    ``tilde_odd`` bound X(2n-1) and X~(2n-1); there is no index -1, so both
    are 0 at n = 0.  Once n^2 > c1*c2 no bound grows any more.
    """
    even, plain_odd, tilde_odd = 1.0, 0.0, 0.0
    for n in itertools.count(1):
        yield even, plain_odd, tilde_odd
        # index 2n-1 has one factor c1/n or c2/n more than index 2n-2
        plain_odd, tilde_odd = even * c1 / n, even * c2 / n
        even *= c1 * c2 / (n * n)
