"""Complex eigenvalues of a layered medium, counted and mapped.

With complex layer constants the spectrum leaves the real axis.  Two tools
make it navigable: the argument principle counts zeros of the
characteristic function inside a disk before any root hunting, and the
height map -log|Phi| turns each eigenvalue into a visible peak.

This demo runs the three-layer problem with complex p and r at a reduced
mesh, counts the zeros inside |lambda| <= 13, sweeps the first few
eigenvalues, and writes the landscape over that disk as CSV for any
external plotter.
"""

import numpy as np

from spps import load_problem, sweep_eigenvalues
from spps.problems import fixture_path, with_overrides
from spps.spectral import characteristic_at, count_zeros, landscape_of

problem = with_overrides(
    load_problem(fixture_path("example2_complex.prob")),
    mesh_m=10000,         # demo speed; fixture uses 120000
    max_eigenvalues=3,    # chained recentring needs the full mesh for more
)

print("layers (p, r):")
for piece in problem.pieces:
    print(f"  [{piece.lo:+.0f}, {piece.hi:+.0f}]  p = {piece.p}, r = {piece.r}")
print()

phi = characteristic_at(problem)

n_inside = count_zeros(phi.evaluate, 0.0, 13.0, samples=512)
print(f"argument principle: {n_inside} eigenvalues inside |lambda| <= 13")
print()

records = sweep_eigenvalues(problem)
print(f"first {len(records)} eigenvalues by the shift schedule "
      f"(delta = {problem.solver.delta}, policy = {problem.solver.policy}):")
for rec in records:
    print(f"  {rec.lam.real:+.12f} {rec.lam.imag:+.12f}i   "
          f"residual {rec.validation_residual:.1e}")
print()

height, meta = landscape_of(phi, 0.0, 13.0, 161)
out = "landscape_complex_layers.csv"
header = (f"center={meta['center']} radius={meta['radius']} grid={meta['grid']} "
          f"trust_radius={meta['trust_radius']:.3f}")
np.savetxt(out, height, delimiter=",", header=header)
print(f"wrote -log|Phi| on a {meta['grid']}x{meta['grid']} grid to {out}")
print("rows run from the top of the disk downward; peaks mark eigenvalues")
peak = np.unravel_index(np.argmax(height), height.shape)
xs = np.linspace(-13, 13, meta["grid"])
ys = np.linspace(13, -13, meta["grid"])
print(f"tallest peak near lambda = {xs[peak[1]]:+.3f} {ys[peak[0]]:+.3f}i")
