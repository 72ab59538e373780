"""Acceptance suite: the bundled reference problems at full resolution.

Each test prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``
to see them; the whole module takes a few minutes because the fixtures use
their production mesh sizes.
"""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spps.basis import (
    ParticularSolution,
    build_basis,
    evaluate_solution,
)
from spps.mesh import SampledFunction
from spps.problems import (
    fixture_path,
    load_reference,
    match_reference,
    prepare,
    with_overrides,
)
from spps.spectral import assemble_characteristic, count_zeros, sweep_eigenvalues

from shooting import refine_root
from util import (
    COMPLEX_LAYERS_TWELFTH,
    TABLE1,
    TABLE2,
    TABLE3,
    TABLE4,
    TABLE5,
    check_bounds,
    identity_shift,
    layered_dirichlet_mismatch,
    newton_root,
    step_potential_problem,
    truncation_residual,
    winding_count,
)

# reduced meshes for the property checks; the properties hold at any
# resolution, so there is no need to pay for the production meshes twice
PROPERTY_MESH = {
    "example1": 3000,
    "example2_real": 3000,
    "example2_complex": 3000,
    "example3": 3000,
    "example4": 3000,
}

# sampling radius for the Wronskian check: within the radius each fixture's
# own shift schedule actually uses.  The layered problem's series amplify
# roundoff as exp(tau sqrt|mu|) with a large tau, so wide sampling is
# ill-conditioned there by nature, not by defect.
WRONSKIAN_RADIUS = {
    "example1": 2.0,
    "example2_real": 0.5,
    "example2_complex": 0.5,
    "example3": 2.0,
    "example4": 2.0,
}

ORACLE_STEPS = {
    "example1": 3000,
    "example2_real": 4000,
    "example2_complex": 4000,
    "example3": 3000,
    "example4": 6000,
}


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def _reference_report(records, ref_name):
    rows = load_reference(fixture_path(ref_name))
    report = match_reference([rec.lam for rec in records], rows)
    return report, all(entry[-1] for entry in report)


def test_criterion_1_step_potential_table(sweep_cache):
    records, elapsed = sweep_cache("example1")
    errors = [abs(rec.lam - ref) for rec, ref in zip(records, TABLE1)]
    worst = max(errors)
    ref_report, ref_ok = _reference_report(records, "table1.ref")
    ok = len(records) == 11 and worst <= 1e-9 and elapsed <= 60.0 and ref_ok
    _report(
        "1 (step-potential eigenvalues)",
        ok,
        f"worst |error| {worst:.2e} (gate 1e-9), runtime {elapsed:.1f}s (gate 60s)",
    )
    assert len(records) == 11
    assert worst <= 1e-9
    assert elapsed <= 60.0
    assert ref_ok


def test_criterion_2_layered_real_table(sweep_cache):
    records, _ = sweep_cache("example2_real")
    errors = [abs(rec.lam - ref) for rec, ref in zip(records, TABLE2)]
    worst = max(errors)
    _, ref_ok = _reference_report(records, "table2.ref")
    ok = len(records) == 11 and worst <= 1e-7 and ref_ok
    _report("2 (layered real eigenvalues)", ok, f"worst |error| {worst:.2e} (gate 1e-7)")
    assert len(records) == 11
    assert worst <= 1e-7
    assert ref_ok


def test_criterion_3_layered_complex_table(sweep_cache):
    records, _ = sweep_cache("example2_complex")
    computed = [rec.lam for rec in records]
    # match by value proximity: the reference table has index gaps, and the
    # sweep may legitimately discover eigenvalues the table does not list
    errors = [min(abs(lam - ref) for lam in computed) for ref in TABLE3]
    worst = max(errors)
    _, ref_ok = _reference_report(records, "table3.ref")
    ok = worst <= 1e-7 and ref_ok
    _report("3 (layered complex eigenvalues)", ok, f"worst |error| {worst:.2e} (gate 1e-7)")
    assert worst <= 1e-7
    assert ref_ok


def test_criterion_4_zero_count_disk_45(bundled_problem):
    problem = bundled_problem("example2_complex")
    config, samples, bcl, bcr, start = prepare(problem, None, None)
    basis = build_basis(start, samples, config.n_terms)
    phi = assemble_characteristic(basis, bcl, bcr)
    count = count_zeros(phi.evaluate, 0.0, 45.0, samples=512)

    # independent of spps: closed-form transfer matrices of the three layers
    winding, max_step = winding_count(layered_dirichlet_mismatch, 0.0, 45.0)
    oracle_count = round(winding)
    twelfth = newton_root(layered_dirichlet_mismatch, COMPLEX_LAYERS_TWELFTH)
    near = complex(20.4517, 39.3221)
    count_near = count_zeros(phi.evaluate, near, 0.5, samples=512)

    ok = oracle_count == 12 and count == oracle_count and count_near == 1
    _report(
        "4 (argument-principle count, |lambda| <= 45)",
        ok,
        f"counted {count}, closed-form oracle {winding:.6f} (largest phase step "
        f"{max_step:.2f} rad); the stated 11 comes from a table that skips "
        f"indices and omits the eigenvalue {twelfth:.10f} (modulus "
        f"{abs(twelfth):.4f}), counted {count_near} in |lambda - {near}| <= 0.5",
    )
    # The stated criterion says 11, quoted from a published table that skips
    # indices and so omits the eigenvalue near 20.4517+39.3221i.  The test
    # asserts the true count, 12, taken from the closed-form oracle and
    # pinned, and locates the omitted eigenvalue with both methods.
    assert max_step < math.pi / 4
    assert abs(winding - oracle_count) < 1e-9
    assert oracle_count == 12
    assert count == oracle_count
    assert abs(twelfth - COMPLEX_LAYERS_TWELFTH) <= 1e-10 * abs(COMPLEX_LAYERS_TWELFTH)
    assert abs(layered_dirichlet_mismatch(twelfth)) <= 1e-10
    assert abs(twelfth) < 45.0 and abs(twelfth - near) < 0.5
    assert count_near == 1


def test_criterion_5_airy_conditions_table(sweep_cache):
    records, _ = sweep_cache("example3")
    computed = [rec.lam for rec in records]
    errors = [min(abs(lam - ref) for lam in computed) for ref in TABLE4]
    worst = max(errors)
    _, ref_ok = _reference_report(records, "table4.ref")
    ok = worst <= 1e-7 and ref_ok
    _report("5 (lambda-dependent conditions)", ok, f"worst |error| {worst:.2e} (gate 1e-7)")
    assert worst <= 1e-7
    assert ref_ok


def test_criterion_6_vanishing_weight_table(sweep_cache):
    records, _ = sweep_cache("example4")
    errors = [abs(rec.lam - ref) for rec, ref in zip(records, TABLE5)]
    worst = max(errors)
    closed = []
    for rec in records:
        s = cmath.sqrt(rec.lam - 1.0)
        closed.append(abs(cmath.tan(s / 2.0) + s * cmath.tanh(0.5)))
    worst_closed = max(closed)
    _, ref_ok = _reference_report(records, "table5.ref")
    ok = len(records) == 6 and worst <= 1e-8 and worst_closed <= 1e-8 and ref_ok
    _report(
        "6 (vanishing weight)",
        ok,
        f"worst |error| {worst:.2e} (gate 1e-8), closed-form residual {worst_closed:.2e}",
    )
    assert len(records) == 6
    assert worst <= 1e-8
    assert worst_closed <= 1e-8
    assert ref_ok


def test_criterion_7_property_suite(bundled_problem):
    rng = np.random.default_rng(2024)
    details = []

    # quadrature degree-5 exactness
    from spps.expressions import parse
    from spps.mesh import Interval, Piece, build_mesh
    from spps.quadrature import indefinite_integral

    mesh = build_mesh(
        Interval(-1.0, 1.0),
        [Piece(-1.0, 0.2, parse("1"), parse("0"), parse("1")),
         Piece(0.2, 1.0, parse("1"), parse("0"), parse("1"))],
        60,
    )
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    vals = sum(c * mesh.xs**k for k, c in enumerate(coeffs))
    got = indefinite_integral(SampledFunction(mesh, vals)).values
    anti = sum(
        c * (mesh.xs ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)
    )
    quad_err = float(np.abs(got - anti).max() / np.abs(anti).max())
    assert quad_err <= 1e-13
    details.append(f"quadrature {quad_err:.1e}")

    fixture_names = ["example1", "example2_real", "example2_complex", "example3", "example4"]
    worst_wronskian = 0.0
    worst_identity = 0.0
    worst_truncation = 0.0
    for name in fixture_names:
        problem = with_overrides(bundled_problem(name), mesh_m=PROPERTY_MESH[name])
        config, samples, bcl, bcr, start = prepare(problem, None, None)
        basis = build_basis(start, samples, config.n_terms)

        # anchor zeros are exact at every order
        assert np.all(basis.powers.tilde[1:, 0] == 0.0)
        assert np.all(basis.powers.plain[1:, 0] == 0.0)

        # growth bounds hold for every computed power
        check_bounds(basis.powers, start.f, samples.p, samples.r)

        # Wronskian identity at 10 random lambda near the center
        radius = WRONSKIAN_RADIUS[name]
        for _ in range(10):
            lam = basis.center + complex(
                rng.uniform(-radius, radius), rng.uniform(-radius, radius)
            )
            u1, pu1, u2, pu2, _ = evaluate_solution(basis, lam)
            w = u1 * pu2 - u2 * pu1
            worst_wronskian = max(worst_wronskian, float(np.abs(w - 1.0).max()))

        # identity shift reproduces the powers
        shifted = identity_shift(basis)
        scale_t = float(np.abs(basis.powers.tilde).max())
        dev = float(np.abs(shifted.powers.tilde - basis.powers.tilde).max()) / scale_t
        worst_identity = max(worst_identity, dev)

        # truncation residual at the center is pure quadrature error
        _, pu1, _, pu2, _ = evaluate_solution(basis, basis.center)
        for which, pu in (("first", pu1), ("second", pu2)):
            res = truncation_residual(basis, basis.center, which)
            scale = float(np.abs(pu).max())
            worst_truncation = max(worst_truncation, res / max(scale, 1e-300))

    assert worst_wronskian <= 1e-9
    assert worst_identity <= 1e-13
    assert worst_truncation <= 1e-9
    details.append(f"wronskian {worst_wronskian:.1e}")
    details.append(f"identity-shift {worst_identity:.1e}")
    details.append(f"truncation {worst_truncation:.1e}")

    # f-scaling leaves the accepted eigenvalue set invariant
    problem = step_potential_problem(n_terms=40, m=2000, max_eigs=5)
    config, samples, bcl, bcr, start = prepare(problem, None, None)
    base_records = sweep_eigenvalues(problem, particular=start)
    scaled = ParticularSolution(
        f=SampledFunction(samples.mesh, 2.0 * start.f.values),
        pf_prime=SampledFunction(samples.mesh, 2.0 * start.pf_prime.values),
        lambda_star=start.lambda_star,
    )
    scaled_records = sweep_eigenvalues(problem, particular=scaled)
    scaling_dev = max(
        abs(a.lam - b.lam) for a, b in zip(base_records, scaled_records)
    )
    assert scaling_dev <= 1e-10
    details.append(f"f-scaling {scaling_dev:.1e}")

    _report("7 (property suite)", True, ", ".join(details))


def test_criterion_8_oracle_cross_validation(bundled_problem, sweep_cache):
    worst = 0.0
    for name, steps in ORACLE_STEPS.items():
        problem = bundled_problem(name)
        records, _ = sweep_cache(name)
        for rec in records:
            if rec.index > 10:
                continue
            oracle = refine_root(problem, rec.lam, steps_per_piece=steps)
            gap = abs(rec.lam - oracle) / (1.0 + abs(rec.lam))
            worst = max(worst, gap)
            assert gap <= 1e-7, f"{name} n={rec.index}: spps {rec.lam} vs oracle {oracle}"
    _report("8 (shooting-oracle agreement)", True, f"worst relative gap {worst:.2e} (gate 1e-7)")


# drift gate: the float.hex of every eigenvalue the six bundled fixtures
# give.  A change may move one by at most 1e-12 relative (absolute below
# |lambda| = 1); one that needs more regenerates the table and states the
# drift and its cause in CHANGES.md.
DRIFT_TABLE = json.loads((Path(__file__).parent / "data" / "eigenvalues.json").read_text())


@pytest.mark.parametrize("name", list(DRIFT_TABLE))
def test_drift_gate_eigenvalues(sweep_cache, name):
    records, _ = sweep_cache(name)
    expected = [complex(float.fromhex(re), float.fromhex(im)) for re, im in DRIFT_TABLE[name]]
    got = [rec.lam for rec in records]
    assert len(got) == len(expected)
    drift = max(abs(lam - ref) / max(1.0, abs(ref)) for lam, ref in zip(got, expected))
    _report(f"drift gate ({name})", drift <= 1e-12, f"max relative drift {drift:.2e}")
    for k, (lam, ref) in enumerate(zip(got, expected)):
        assert abs(lam - ref) <= 1e-12 * max(1.0, abs(ref)), (k, lam, ref)
