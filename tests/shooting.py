"""Shooting oracle for the tests, independent of the series machinery.

The pair (u, p u') is propagated from a to b by classical fixed-step RK4,
piece by piece, with the state carried unchanged across breakpoints (the
quasi-derivative is the continuous object).  The initial state annihilates
the left boundary condition; the returned mismatch is the right condition
applied at b, so eigenvalues are its zeros.

Coefficients are evaluated from the piece expressions directly (never from
the solver's mesh samples), which keeps this path independent of the
quadrature code it is used to check.
"""

from __future__ import annotations

import numpy as np

from spps import expressions


def _poly_at(coeffs, lam):
    acc = 0.0 + 0.0j
    for c in coeffs[::-1]:
        acc = acc * lam + c
    return complex(acc)


def _bc_pair(bc, lam, p_end):
    """(coefficient of u, coefficient of p u') for the condition at lambda."""
    alpha = _poly_at(bc.alpha, lam)
    beta = _poly_at(bc.beta, lam)
    if bc.derivative_form == "u_prime":
        beta = beta / p_end
    return alpha, beta


def shoot(problem, lam, steps_per_piece=1000):
    """Right-endpoint boundary mismatch of the left-satisfying solution."""
    if steps_per_piece < 100:
        raise ValueError("steps_per_piece must be at least 100")
    lam = complex(lam)

    p_at_a = complex(expressions.evaluate(problem.pieces[0].p, problem.interval.a))
    a_l, b_l = _bc_pair(problem.bc_left, lam, p_at_a)
    # state annihilating alpha*u + beta*(pu'): (u, pu') = (beta, -alpha)
    u = b_l
    v = -a_l

    for piece in problem.pieces:
        n = int(steps_per_piece)
        h = (piece.hi - piece.lo) / n
        xs = piece.lo + 0.5 * h * np.arange(2 * n + 1)
        pv = expressions.evaluate(piece.p, xs)
        qv = expressions.evaluate(piece.q, xs)
        rv = expressions.evaluate(piece.r, xs)
        # plain python complex scalars keep the stepping loop fast
        coeff = (lam * rv - qv).tolist()  # (pu')' = (lambda r - q) u
        inv_p = (1.0 / pv).tolist()
        h2 = 0.5 * h
        h6 = h / 6.0
        for k in range(n):
            i0 = 2 * k
            ip0 = inv_p[i0]
            c0 = coeff[i0]
            ipm = inv_p[i0 + 1]
            cm = coeff[i0 + 1]
            ip1 = inv_p[i0 + 2]
            c1 = coeff[i0 + 2]

            k1u = v * ip0
            k1v = c0 * u
            u2 = u + h2 * k1u
            v2 = v + h2 * k1v
            k2u = v2 * ipm
            k2v = cm * u2
            u3 = u + h2 * k2u
            v3 = v + h2 * k2v
            k3u = v3 * ipm
            k3v = cm * u3
            u4 = u + h * k3u
            v4 = v + h * k3v
            k4u = v4 * ip1
            k4v = c1 * u4
            u = u + h6 * (k1u + 2.0 * (k2u + k3u) + k4u)
            v = v + h6 * (k1v + 2.0 * (k2v + k3v) + k4v)

    p_at_b = complex(expressions.evaluate(problem.pieces[-1].p, problem.interval.b))
    a_r, b_r = _bc_pair(problem.bc_right, lam, p_at_b)
    return a_r * u + b_r * v


def refine_root(problem, lam_guess, steps_per_piece=1000, tol=1e-12, max_iter=50):
    """Secant iteration on the shooting mismatch from ``lam_guess``."""
    x0 = complex(lam_guess)
    x1 = x0 + 1e-4 * (1.0 + abs(x0))
    f0 = shoot(problem, x0, steps_per_piece)
    f1 = shoot(problem, x1, steps_per_piece)
    for _ in range(max_iter):
        if f1 == 0:
            return x1
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if abs(x2 - x1) <= tol * (1.0 + abs(x2)):
            return x2
        x0, f0 = x1, f1
        x1 = x2
        f1 = shoot(problem, x1, steps_per_piece)
    raise AssertionError(
        f"secant iteration from {lam_guess} did not converge in {max_iter} steps"
    )
