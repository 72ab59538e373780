import cmath
import importlib.util
import math

import numpy as np
import pytest

import spps
from spps.expressions import parse
from spps.mesh import Interval, Piece
from spps.problems import Problem, SolverConfig
from spps.spectral import BoundaryCondition

from shooting import refine_root, shoot
from util import TABLE1, step_potential_problem, vanishing_weight_problem


def harmonic_problem():
    # -u'' = lam u on [0, pi], Dirichlet: eigenvalues k^2
    return Problem(
        interval=Interval(0.0, math.pi),
        pieces=(Piece(0.0, math.pi, parse("-1"), parse("0"), parse("1")),),
        bc_left=BoundaryCondition("left", [1], [0], "p_u_prime"),
        bc_right=BoundaryCondition("right", [1], [0], "p_u_prime"),
        solver=SolverConfig(),
    )


def test_harmonic_mismatch_tracks_sine():
    problem = harmonic_problem()
    # the propagated solution is sin(sqrt(lam) x)/sqrt(lam), so the mismatch
    # vanishes with sin(sqrt(lam) pi); confirm the constant of
    # proportionality once the 1/sqrt(lam) normalization is divided out
    lams = [0.5, 1.3, 2.0, 3.7]
    ratios = []
    for lam in lams:
        mism = shoot(problem, lam, steps_per_piece=2000)
        ratios.append(mism * cmath.sqrt(lam) / cmath.sin(cmath.sqrt(lam) * math.pi))
    assert np.allclose(ratios, ratios[0], rtol=1e-8)


def test_harmonic_zero_at_one():
    problem = harmonic_problem()
    mismatch = shoot(problem, 1.0, steps_per_piece=10000)
    # scale of the mismatch function is O(1); the zero must be resolved
    assert abs(mismatch) <= 1e-10


def test_harmonic_refine_from_nearby_guess():
    problem = harmonic_problem()
    root = refine_root(problem, 0.9, steps_per_piece=2000)
    assert abs(root - 1.0) <= 1e-10


def test_fourth_order_convergence():
    problem = step_potential_problem()
    lam = 5.0
    reference = shoot(problem, lam, steps_per_piece=12800)
    errors = [abs(shoot(problem, lam, steps_per_piece=n) - reference)
              for n in (200, 400, 800)]
    assert 12 < errors[0] / errors[1] < 20
    assert 12 < errors[1] / errors[2] < 20


def test_step_problem_first_positive_eigenvalue():
    problem = step_potential_problem()
    root = refine_root(problem, 0.3, steps_per_piece=3000)
    assert abs(root - TABLE1[1]) <= 1e-9


def test_vanishing_weight_bracket():
    problem = vanishing_weight_problem()
    lo = shoot(problem, 17.0, steps_per_piece=1000).real
    hi = shoot(problem, 19.0, steps_per_piece=1000).real
    assert lo * hi < 0  # sign change brackets the first eigenvalue near 17.9


def test_lambda_dependent_conditions_in_mismatch():
    # the step-potential problem has lambda-polynomial conditions; the
    # mismatch of its first eigenvalue must vanish
    problem = step_potential_problem()
    root = refine_root(problem, TABLE1[0], steps_per_piece=3000)
    assert abs(root - TABLE1[0]) <= 1e-9


def test_step_floor_enforced():
    with pytest.raises(ValueError):
        shoot(harmonic_problem(), 1.0, steps_per_piece=50)


def test_refine_no_convergence_raises():
    problem = harmonic_problem()
    with pytest.raises(AssertionError):
        refine_root(problem, 0.5, steps_per_piece=200, max_iter=2)


def test_package_ships_no_oracle():
    assert importlib.util.find_spec("spps.shooting") is None
    assert not hasattr(spps, "shoot")
