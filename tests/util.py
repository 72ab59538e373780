"""Shared problem builders for the test suite.

Small, fast configurations of the bundled reference problems; the
full-resolution settings live in the fixture files and are exercised by
the acceptance tests.
"""

import math
import weakref

import numpy as np

import spps.basis
from spps.basis import ParticularSolution, SppsBasis, build_basis, evaluate_solution
from spps.expressions import parse
from spps.mesh import (
    Interval,
    Piece,
    ProblemSamples,
    SampledFunction,
    build_mesh,
    sample_coefficients,
)
from spps.powers import FormalPowerSet, _growth_bounds
from spps.problems import BoundaryCondition, ParticularPiece, Problem, SolverConfig
from spps.quadrature import indefinite_integral, l1_norm


def step_potential_problem(n_terms=40, m=2000, max_eigs=5, with_particular=True,
                           delta=0.0):
    """-u'' + q u = lam u, q = (-1, -2) split at 0, lambda-dependent conditions."""
    particular = (
        ParticularPiece(f=parse("cos(x)"), f_prime=parse("-sin(x)")),
        ParticularPiece(f=parse("cos(sqrt(2)*x)"), f_prime=parse("-sqrt(2)*sin(sqrt(2)*x)")),
    ) if with_particular else None
    return Problem(
        interval=Interval(-1.0, 1.0),
        pieces=(
            Piece(-1.0, 0.0, parse("-1"), parse("-1"), parse("1")),
            Piece(0.0, 1.0, parse("-1"), parse("-2"), parse("1")),
        ),
        bc_left=BoundaryCondition("left", [0, 1], [1], "u_prime"),
        bc_right=BoundaryCondition("right", [0, 1], [-1], "u_prime"),
        particular=particular,
        solver=SolverConfig(n_terms=n_terms, mesh_m=m, delta=delta,
                            max_eigenvalues=max_eigs),
    )


def layered_problem(complex_params=False, n_terms=60, m=3000, max_eigs=4, delta=0.5,
                    policy="always_previous"):
    """Three constant layers with Dirichlet ends (heat-conduction example)."""
    if complex_params:
        p_vals = ["-11-1i", "-0.5-2i", "-22-1i"]
        r_vals = ["3+2i", "7+1i", "1-2i"]
    else:
        p_vals = ["-11", "-0.5", "-22"]
        r_vals = ["3", "7", "1"]
    bps = [-4.0, -2.0, 0.0, 2.0]
    pieces = tuple(
        Piece(bps[i], bps[i + 1], parse(p), parse("0"), parse(r))
        for i, (p, r) in enumerate(zip(p_vals, r_vals))
    )
    return Problem(
        interval=Interval(-4.0, 2.0),
        pieces=pieces,
        bc_left=BoundaryCondition("left", [1], [0], "p_u_prime"),
        bc_right=BoundaryCondition("right", [1], [0], "p_u_prime"),
        solver=SolverConfig(n_terms=n_terms, mesh_m=m, delta=delta, policy=policy,
                            max_eigenvalues=max_eigs),
    )


def three_piece_problem(max_eigs=3):
    """Piecewise-constant p, q, r on three pieces of [-1, 1], at the default mesh and order."""
    values = (
        (-1.0, -0.3, "-1", "0.5", "1"),
        (-0.3, 0.4, "-1.5", "-2", "2"),
        (0.4, 1.0, "-0.7", "3", "0.6"),
    )
    return Problem(
        interval=Interval(-1.0, 1.0),
        pieces=tuple(Piece(lo, hi, parse(p), parse(q), parse(r)) for lo, hi, p, q, r in values),
        bc_left=BoundaryCondition("left", [1], [0], "p_u_prime"),
        bc_right=BoundaryCondition("right", [1], [0.5], "p_u_prime"),
        solver=SolverConfig(max_eigenvalues=max_eigs),
    )


def vanishing_weight_problem(n_terms=40, m=3000, max_eigs=3):
    """-u'' + u = lam r u with r = 0 on the left half, Dirichlet ends."""
    return Problem(
        interval=Interval(0.0, 1.0),
        pieces=(
            Piece(0.0, 0.5, parse("-1"), parse("1"), parse("0")),
            Piece(0.5, 1.0, parse("-1"), parse("1"), parse("1")),
        ),
        bc_left=BoundaryCondition("left", [1], [0], "p_u_prime"),
        bc_right=BoundaryCondition("right", [1], [0], "p_u_prime"),
        solver=SolverConfig(n_terms=n_terms, mesh_m=m, max_eigenvalues=max_eigs),
    )


def plain_problem(n_terms=20, m=200):
    """u'' = lam u on [0,1] with Dirichlet ends and unit coefficients."""
    return Problem(
        interval=Interval(0.0, 1.0),
        pieces=(Piece(0.0, 1.0, parse("1"), parse("0"), parse("1")),),
        bc_left=BoundaryCondition("left", [1], [0], "p_u_prime"),
        bc_right=BoundaryCondition("right", [1], [0], "p_u_prime"),
        particular=(ParticularPiece(f=parse("1"), f_prime=parse("0")),),
        solver=SolverConfig(n_terms=n_terms, mesh_m=m, max_eigenvalues=2),
    )


def unit_samples(m=200, a=0.0, b=1.0):
    """Samples of p = q... = 1, q = 0, r = 1 on a single piece."""
    piece = Piece(a, b, parse("1"), parse("0"), parse("1"))
    mesh = build_mesh(Interval(a, b), [piece], m)
    p, q, r = sample_coefficients([piece], mesh)
    return ProblemSamples(mesh=mesh, p=p, q=q, r=r)


def identity_shift(basis):
    """The basis rebuilt at its own center on its first solution, (c1, c2) = (1, 0).

    At the center u1 = f and p u1' = p f', so the rebuilt powers should
    reproduce the original ones up to roundoff.
    """
    u1, pu1, _, _, _ = evaluate_solution(basis, basis.center)
    mesh = basis.samples.mesh
    ps = ParticularSolution(
        f=SampledFunction(mesh, u1),
        pf_prime=SampledFunction(mesh, pu1),
        lambda_star=basis.center,
    )
    return build_basis(ps, basis.samples, basis.n_terms)


def track_power_sets(monkeypatch):
    """``(n_terms, orders of the sets alive, how)`` for each power build.

    Every ``FormalPowerSet`` is followed by a weak reference, and each call
    of ``compute_formal_powers`` records the orders of those alive as it
    starts and how the build was made: ``"new"`` by the ``SppsBasis``
    constructor, ``"grow"`` by ``SppsBasis.grow``, ``"reread"`` when a
    released basis rebuilds its rows on a read.
    """
    builds, alive, making = [], [], []
    original_init = FormalPowerSet.__init__
    original_powers = spps.basis.compute_formal_powers

    def tracked_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        alive.append(weakref.ref(self))

    def recording(f, p, r, n_terms):
        live = [fp.n_terms for fp in (ref() for ref in alive) if fp is not None]
        builds.append((n_terms, live, making[-1] if making else "reread"))
        return original_powers(f, p, r, n_terms)

    def flagged(method, how):
        def wrapper(*args, **kwargs):
            making.append(how)
            try:
                return method(*args, **kwargs)
            finally:
                making.pop()

        return wrapper

    monkeypatch.setattr(FormalPowerSet, "__init__", tracked_init)
    monkeypatch.setattr(spps.basis, "compute_formal_powers", recording)
    monkeypatch.setattr(SppsBasis, "__init__", flagged(SppsBasis.__init__, "new"))
    monkeypatch.setattr(SppsBasis, "grow", flagged(SppsBasis.grow, "grow"))
    return builds


def truncation_residual(basis, lam, which="first"):
    """Integrated-equation residual of the N-term partial sum.

    With u_N and u_{N-1} the partial sums with N and N-1 terms, the exact
    identity (p u_N')' = mu r u_{N-1} - (q - center r) u_N holds term by
    term, so the integrated residual vanishes up to quadrature error plus
    the single dropped term.  u_{N-1} is u_N less its last term,
    f mu^N T(2N) for the first solution and f mu^N P(2N+1) for the second.
    """
    n = basis.n_terms
    u1, pu1, u2, pu2, _ = evaluate_solution(basis, lam)
    u, pu = (u1, pu1) if which == "first" else (u2, pu2)
    mu = complex(lam) - basis.center
    fp = basis.powers
    last = fp.tilde[2 * n] if which == "first" else fp.plain[2 * n + 1]
    u_prev = u - basis.particular.f.values * mu**n * last
    samples = basis.samples
    integrand = mu * samples.r.values * u_prev - (
        samples.q.values - basis.center * samples.r.values
    ) * u
    acc = indefinite_integral(SampledFunction(samples.mesh, integrand))
    res = pu - pu[0] - acc.values
    return float(np.abs(res).max())


class BoundViolationError(AssertionError):
    """Computed powers exceed their growth bounds: a quadrature or recursion defect."""


def check_bounds(fp, f, p, r):
    """Check the growth estimates of ``fp``, built on ``f``, ``p``, ``r``, at every node.

    Recomputes the weights r f^2 and 1/(p f^2) and returns their L1 norms
    (C1, C2).  Raises BoundViolationError when a power exceeds its bound by
    more than a relative 1e-8 (roundoff allowance).  Bounds below 1e-290 sit
    at the edge of double precision and are not compared.
    """
    f2 = f.values * f.values
    c1 = l1_norm(SampledFunction(fp.mesh, 1.0 / (p.values * f2)))
    c2 = l1_norm(SampledFunction(fp.mesh, r.values * f2))
    peaks = {"tilde": np.abs(fp.tilde).max(axis=1), "plain": np.abs(fp.plain).max(axis=1)}
    # the last odd index 2N+1 belongs to n = N+1
    for n, (even, plain_odd, tilde_odd) in zip(range(fp.n_terms + 2), _growth_bounds(c1, c2)):
        checks = [("plain", 2 * n - 1, plain_odd), ("tilde", 2 * n - 1, tilde_odd)] if n else []
        if n <= fp.n_terms:
            checks += [("tilde", 2 * n, even), ("plain", 2 * n, even)]
        for name, idx, bound in checks:
            if bound >= 1e-290 and peaks[name][idx] > bound * (1.0 + 1e-8):
                raise BoundViolationError(
                    f"{name}[{idx}] = {peaks[name][idx]:.6e} exceeds bound {bound:.6e}; "
                    "quadrature or recursion defect"
                )
    return c1, c2


TABLE1 = np.array([
    -0.8838501773806790, 0.33593977069858758, 3.18616750501251774,
    10.4888366560518901, 22.7582649977549487, 40.0145357092335736,
    62.2048900366600122, 89.3430782636483577, 121.412971555997595,
    158.423147639717927, 200.365776764230126,
])

TABLE2 = np.array([
    0.1537166881459068, 0.6040510821002027, 1.3001446415922297,
    2.1131346987303714, 3.0657222557870770, 4.3891432656424323,
    6.0755689904595746, 8.0532227313898138, 10.263818816222202,
    12.662474776451201, 15.226226392993377,
])

TABLE3 = np.array([
    0.469982057297078 + 0.337010475999479j,
    1.453180135224583 + 0.455435050626238j,
    1.931066258100073 + 1.957548941283227j,
    2.769261458131468 + 4.456326784352162j,
    3.315488435122103 + 8.156636278096363j,
    4.745130735885916 + 11.83858259923195j,
])

# example2_complex.prob in closed form, one (from, to, p, r) per layer, q = 0
COMPLEX_LAYERS = (
    (-4.0, -2.0, -11 - 1j, 3 + 2j),
    (-2.0, 0.0, -0.5 - 2j, 7 + 1j),
    (0.0, 2.0, -22 - 1j, 1 - 2j),
)

# The eigenvalue of COMPLEX_LAYERS that TABLE3's source skips, from a 30-digit
# (mpmath) transfer-matrix solve; modulus 44.3227, so it lies in |lambda| <= 45.
COMPLEX_LAYERS_TWELFTH = 20.4516765761616737 + 39.3221104118227379j


def layered_dirichlet_mismatch(lam):
    """u(2) of the COMPLEX_LAYERS solution with u(-4) = 0, (p u')(-4) = 1, lam != 0.

    On a constant layer with q = 0, p u'' = lam r u, so (u, p u') crosses it by
    the exact transfer matrix built from cosh(s h) and sinh(s h)/s with
    s^2 = lam r / p.  Both are even in s, so the branch of the square root does
    not matter.  Zero exactly at the Dirichlet eigenvalues; numpy only.
    """
    lam = np.asarray(lam, dtype=np.complex128)
    u = np.zeros_like(lam)
    pu = np.ones_like(lam)
    for lo, hi, p, r in COMPLEX_LAYERS:
        h = hi - lo
        s = np.sqrt(lam * r / p)
        c = np.cosh(s * h)
        sinc = np.sinh(s * h) / s
        u, pu = c * u + sinc / p * pu, lam * r * sinc * u + c * pu
    return u


def winding_count(fn, center, radius, samples=4096):
    """Winding number of fn on |lam - center| = radius and its largest phase step.

    The winding is the sum of principal-branch phase increments over 2 pi; it
    counts the zeros inside only when every increment is well below pi.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    vals = fn(center + radius * np.exp(1j * theta))
    incr = np.angle(np.roll(vals, -1) / vals)
    return float(incr.sum()) / (2.0 * math.pi), float(np.abs(incr).max())


def newton_root(fn, lam, steps=60):
    """Newton on a scalar analytic fn with a central-difference slope."""
    lam = complex(lam)
    for _ in range(steps):
        h = 1e-6 * (1.0 + abs(lam))
        step = complex(fn(lam) / ((fn(lam + h) - fn(lam - h)) / (2.0 * h)))
        lam -= step
        if abs(step) <= 1e-15 * (1.0 + abs(lam)):
            break
    return lam


TABLE4 = np.array([
    -1.00143294415521698407, 2.4057972392439196797808, 9.1124600099908036194275,
    21.519631798576724032730, 38.723530941627280094388, 60.956434348891755464346,
])

TABLE5 = np.array([
    17.89793137541756, 98.16027543604447, 256.2710801437674,
    493.2013196148296, 809.0540168683802, 1203.851208314645,
])
