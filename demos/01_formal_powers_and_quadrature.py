"""Building blocks: panel meshes, indefinite integration, power functions.

The solver represents everything on a mesh whose panels never straddle a
coefficient jump, integrates with a 6-point rule that yields values at
every node, and builds the series coefficient functions by iterated
integration.  This script walks through those pieces on small examples.
"""

import math

import numpy as np

from spps import (
    Interval,
    Piece,
    build_mesh,
    compute_formal_powers,
    indefinite_integral,
    sample_coefficients,
)
from spps.expressions import parse
from spps.mesh import SampledFunction, constant_function
from spps.quadrature import l1_norm

print("=" * 70)
print("1. A mesh over [-1, 1] with a coefficient jump at 0")
print("=" * 70)

pieces = [
    Piece(-1.0, 0.0, parse("1"), parse("0"), parse("1")),
    Piece(0.0, 1.0, parse("1"), parse("0"), parse("1")),
]
mesh = build_mesh(Interval(-1.0, 1.0), pieces, 20)
print(f"requested 20 subintervals, effective {mesh.n_subintervals}")
print(f"{mesh.n_subintervals + 1} distinct nodes, {mesh.n_slots} storage slots")
print("the breakpoint at 0 owns two slots (left-side and right-side value):",
      mesh.breakpoint_slots)

print()
print("=" * 70)
print("2. Indefinite integration of a discontinuous integrand")
print("=" * 70)

# integrand jumps from 0 to 1 at x = 0; its antiderivative is continuous
step = np.where(np.arange(mesh.n_slots) <= mesh.breakpoint_slots[0][0], 0.0, 1.0)
anti = indefinite_integral(SampledFunction(mesh, step.astype(complex)))
left, right = mesh.breakpoint_slots[0]
print(f"antiderivative at the jump: left slot {anti.values[left].real:.6f}, "
      f"right slot {anti.values[right].real:.6f} (identical)")
print(f"value at 1 (area of the step): {anti.values[-1].real:.6f}")

print()
print("=" * 70)
print("3. Power functions generalize x^n/n!")
print("=" * 70)

mesh1 = build_mesh(Interval(0.0, 1.0), [Piece(0.0, 1.0, parse("1"), parse("0"), parse("1"))], 100)
p, q, r = sample_coefficients([Piece(0.0, 1.0, parse("1"), parse("0"), parse("1"))], mesh1)
ones = constant_function(mesh1, 1.0)
powers = compute_formal_powers(ones, p, r, 6)
print("with unit coefficients and f == 1 both families collapse to x^n/n!:")
for n in range(0, 7, 2):
    err = np.abs(powers.tilde[n] - mesh1.xs**n / math.factorial(n)).max()
    print(f"  n = {n}: max deviation from x^{n}/{n}! = {err:.2e}")

print()
print("summing the even family at the endpoint reproduces cosh(1):")
total = powers.tilde[0::2].sum(axis=0)[-1].real
print(f"  sum = {total:.15f}, cosh(1) = {math.cosh(1.0):.15f}")

print()
print("=" * 70)
print("4. Factorial growth bounds")
print("=" * 70)

# the weights are r f^2 and 1/(p f^2); here f == 1
c1 = l1_norm(SampledFunction(mesh1, 1.0 / p.values))
c2 = l1_norm(r)
print(f"L1 weight norms: C1 = {c1:.6f}, C2 = {c2:.6f}")
print("every even power stays below (C1 C2)^n / (n!)^2:")
for n in range(4):
    peak = np.abs(powers.tilde[2 * n]).max()
    bound = (c1 * c2) ** n / math.factorial(n) ** 2
    print(f"  n = {n}: max|X(2n)| = {peak:.6e} <= {bound:.6e}")
print("a computed power above its bound would mean a quadrature or")
print("recursion defect, not a user error.")
