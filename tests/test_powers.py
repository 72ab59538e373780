import math

import numpy as np
import pytest
from dataclasses import replace

from spps.errors import NonvanishingError
from spps.expressions import parse
from spps.mesh import (
    Interval,
    Piece,
    SampledFunction,
    build_mesh,
    constant_function,
    sample_coefficients,
)
from spps.powers import compute_formal_powers

from util import BoundViolationError, check_bounds, unit_samples


def _unit_powers(n_terms, m=200):
    s = unit_samples(m)
    ones = constant_function(s.mesh, 1.0)
    return s, compute_formal_powers(ones, s.p, s.r, n_terms)


def test_unit_problem_powers_are_monomials():
    s, fp = _unit_powers(2)
    x = s.mesh.xs
    for n in range(fp.n_max + 1):
        expect = x**n / math.factorial(n)
        assert np.abs(fp.tilde[n] - expect).max() <= 1e-13
        assert np.abs(fp.plain[n] - expect).max() <= 1e-13


def test_anchor_zeros_are_exact():
    _, fp = _unit_powers(4)
    for n in range(1, fp.n_max + 1):
        assert fp.tilde[n][0] == 0.0
        assert fp.plain[n][0] == 0.0


def test_even_series_sums_to_cosh():
    _, fp = _unit_powers(12)
    got = fp.tilde[0::2].sum(axis=0)[-1]  # sum of lambda^k terms at lambda = 1, x = 1
    assert abs(got - math.cosh(1.0)) <= 1e-12


def test_scaling_covariance():
    s = unit_samples(120)
    base = compute_formal_powers(constant_function(s.mesh, 1.0), s.p, s.r, 4)
    for c in (2.0, 1j):
        scaled = compute_formal_powers(constant_function(s.mesh, c), s.p, s.r, 4)
        for n in range(0, base.n_max + 1, 2):
            assert np.abs(scaled.tilde[n] - base.tilde[n]).max() <= 1e-13
            assert np.abs(scaled.plain[n] - base.plain[n]).max() <= 1e-13
        for n in range(1, base.n_max + 1, 2):
            ref_t = np.abs(base.tilde[n]).max()
            ref_p = np.abs(base.plain[n]).max()
            assert np.abs(scaled.tilde[n] - c**2 * base.tilde[n]).max() <= 1e-13 * max(1, abs(c**2) * ref_t)
            assert np.abs(scaled.plain[n] - base.plain[n] / c**2).max() <= 1e-13 * max(1, ref_p)


def test_interleaving_identity():
    # with f == 1, swapping r <-> 1/p swaps the two families
    interval = Interval(0.0, 1.0)
    pieces_a = [Piece(0.0, 1.0, parse("1/(2 + x)"), parse("0"), parse("1 + x^2"))]
    pieces_b = [Piece(0.0, 1.0, parse("1/(1 + x^2)"), parse("0"), parse("2 + x"))]
    mesh = build_mesh(interval, pieces_a, 100)
    ones = constant_function(mesh, 1.0)
    pa, _, ra = sample_coefficients(pieces_a, mesh)
    pb, _, rb = sample_coefficients(pieces_b, build_mesh(interval, pieces_b, 100))
    pb = SampledFunction(mesh, pb.values)
    rb = SampledFunction(mesh, rb.values)
    fa = compute_formal_powers(ones, pa, ra, 3)
    fb = compute_formal_powers(ones, pb, rb, 3)
    assert np.abs(fa.tilde - fb.plain).max() <= 1e-14
    assert np.abs(fa.plain - fb.tilde).max() <= 1e-14


def test_rows_are_written_in_place(monkeypatch):
    # each integral lands in its own row of tilde/plain, with no copy after
    import spps.powers

    results = []
    original = spps.powers.indefinite_integral

    def recording(g, **kwargs):
        results.append(original(g, **kwargs))
        return results[-1]

    monkeypatch.setattr(spps.powers, "indefinite_integral", recording)
    s = unit_samples(200)
    f = SampledFunction(s.mesh, 2.0 + s.mesh.xs**2)
    fp = compute_formal_powers(f, s.p, s.r, 3)
    assert len(results) == 2 * (2 * 3 + 1)
    for n in range(1, fp.n_max + 1):
        assert np.shares_memory(results[2 * (n - 1)].values, fp.tilde[n])
        assert np.shares_memory(results[2 * n - 1].values, fp.plain[n])


def test_vanishing_f_rejected_with_location():
    s = unit_samples(50)
    f_vals = s.mesh.xs - 0.5  # zero at the node 0.5
    f = SampledFunction(s.mesh, f_vals.astype(complex))
    with pytest.raises(NonvanishingError, match="x=0.5"):
        compute_formal_powers(f, s.p, s.r, 2)


def test_negative_order_rejected():
    s = unit_samples(50)
    ones = constant_function(s.mesh, 1.0)
    with pytest.raises(ValueError):
        compute_formal_powers(ones, s.p, s.r, -1)


def test_bounds_unit_problem():
    s, fp = _unit_powers(10)
    c1, c2 = check_bounds(fp, constant_function(s.mesh, 1.0), s.p, s.r)
    assert c1 == pytest.approx(1.0, rel=1e-13)
    assert c2 == pytest.approx(1.0, rel=1e-13)


def test_bounds_order_zero_equality():
    s, fp = _unit_powers(0)
    check_bounds(fp, constant_function(s.mesh, 1.0), s.p, s.r)  # |X^(0)| = 1 <= 1 with slack


def test_bounds_layered_problem():
    from util import layered_problem
    from spps.problems import prepare
    from spps.basis import build_basis

    config, samples, _, _, start = prepare(layered_problem(n_terms=30, m=600), None, None)
    basis = build_basis(start, samples, 30)
    c1, c2 = check_bounds(basis.powers, start.f, samples.p, samples.r)
    assert c1 > 0 and c2 > 0 and np.isfinite(c1 + c2)


def test_bounds_catch_corruption():
    s, fp = _unit_powers(6)
    tampered = fp.tilde.copy()
    tampered[8] = tampered[8] * 500.0  # x^8/8! * 500 exceeds the 1/(4!)^2 bound
    bad = replace(fp, tilde=tampered)
    with pytest.raises(BoundViolationError, match=r"tilde\[8\]"):
        check_bounds(bad, constant_function(s.mesh, 1.0), s.p, s.r)


def test_power_set_accessors():
    s, fp = _unit_powers(3)
    assert fp.n_terms == 3
    assert fp.n_max == 7
    assert fp.mesh is s.mesh
    assert fp.tilde.shape == fp.plain.shape == (8, s.mesh.n_slots)
