import math

import numpy as np
import pytest

from spps.expressions import parse
from spps.mesh import Interval, Piece, SampledFunction, build_mesh, constant_function
from spps.quadrature import _workspace, derive_partial_weights, indefinite_integral, l1_norm


def _mesh(breaks, m):
    pieces = [Piece(lo, hi, parse("1"), parse("0"), parse("1"))
              for lo, hi in zip(breaks[:-1], breaks[1:])]
    return build_mesh(Interval(breaks[0], breaks[-1]), pieces, m)


def test_weights_exact_fractions():
    w = derive_partial_weights()
    expect_full = np.array([95 / 288, 125 / 96, 125 / 144, 125 / 144, 125 / 96, 95 / 288])
    assert w.shape == (5, 6)
    assert not w.flags.writeable
    assert np.array_equal(w[-1], expect_full)


def test_weights_integrate_constants():
    w = derive_partial_weights()
    sums = w.sum(axis=1)
    assert np.allclose(sums, [1, 2, 3, 4, 5], rtol=0, atol=1e-15)


def test_weights_degree_five_exact():
    w = derive_partial_weights()
    t = np.arange(6.0)
    for j in range(1, 6):
        got = w[j - 1] @ (t**5)
        assert got == pytest.approx(j**6 / 6.0, rel=1e-14)


def test_panel_error_order_seven():
    # integral of t^6 over a single panel [0, 5h]: error should drop ~2^7
    # when the step halves
    errors = []
    for h in (0.2, 0.1):
        mesh = _mesh([0.0, 5 * h], 5)
        g = SampledFunction(mesh, mesh.xs.astype(complex) ** 6)
        got = indefinite_integral(g).values[-1].real
        errors.append(abs(got - (5 * h) ** 7 / 7.0))
    ratio = errors[0] / errors[1]
    assert 100 < ratio < 160  # 2^7 = 128


def test_indefinite_constant():
    mesh = _mesh([-1.0, 1.0], 20)
    g = constant_function(mesh, 1.0)
    got = indefinite_integral(g)
    assert np.abs(got.values - (mesh.xs + 1.0)).max() <= 1e-15
    assert got.values[0] == 0.0


def test_indefinite_piecewise_constant_weight():
    # weight 0 on [0, 1/2] then 1: integral is 0 then x - 1/2
    mesh = _mesh([0.0, 0.5, 1.0], 20)
    vals = np.where(mesh.xs <= 0.5, 0.0, 1.0).astype(complex)
    left, right = mesh.breakpoint_slots[0]
    vals[left] = 0.0
    vals[right] = 1.0
    got = indefinite_integral(SampledFunction(mesh, vals))
    expect = np.where(mesh.xs <= 0.5, 0.0, mesh.xs - 0.5)
    assert np.abs(got.values - expect).max() <= 1e-15
    assert got.values[left] == got.values[right]


def test_indefinite_cos_squared_piecewise():
    # f^2 weight of the step-potential problem: cos^2 x then cos^2(sqrt2 x),
    # against the closed-form antiderivatives joined continuously at 0
    mesh = _mesh([-1.0, 0.0, 1.0], 10000)
    x = mesh.xs.real
    left_mask = np.arange(mesh.n_slots) <= mesh.breakpoint_slots[0][0]
    vals = np.where(left_mask, np.cos(x) ** 2, np.cos(math.sqrt(2) * x) ** 2)
    got = indefinite_integral(SampledFunction(mesh, vals.astype(complex)))

    def anti_left(t):  # int cos^2 = t/2 + sin(2t)/4
        return t / 2 + np.sin(2 * t) / 4

    def anti_right(t):  # int cos^2(sqrt2 t) = t/2 + sin(2 sqrt2 t)/(4 sqrt2)
        return t / 2 + np.sin(2 * math.sqrt(2) * t) / (4 * math.sqrt(2))

    expect = np.where(
        left_mask,
        anti_left(x) - anti_left(-1.0),
        anti_left(0.0) - anti_left(-1.0) + anti_right(x),
    )
    assert np.abs(got.values - expect).max() <= 1e-12


def test_degree_five_polynomial_exact_on_random_mesh():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    mesh = _mesh([-1.0, -0.3, 0.4, 1.0], 55)
    x = mesh.xs
    vals = sum(c * x**k for k, c in enumerate(coeffs))
    got = indefinite_integral(SampledFunction(mesh, vals))
    anti = sum(c * (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
    scale = np.abs(anti).max()
    assert np.abs(got.values - anti).max() <= 1e-13 * scale


def test_linearity():
    rng = np.random.default_rng(11)
    mesh = _mesh([0.0, 0.5, 1.0], 30)
    g = SampledFunction(mesh, rng.normal(size=mesh.n_slots) + 1j * rng.normal(size=mesh.n_slots))
    h = SampledFunction(mesh, rng.normal(size=mesh.n_slots) + 1j * rng.normal(size=mesh.n_slots))
    a, b = 2.0 - 1.0j, -0.5 + 0.25j
    combo = SampledFunction(mesh, a * g.values + b * h.values)
    lhs = indefinite_integral(combo).values
    rhs = a * indefinite_integral(g).values + b * indefinite_integral(h).values
    assert np.abs(lhs - rhs).max() <= 1e-13 * max(1.0, np.abs(rhs).max())


def test_breakpoint_continuity_is_exact():
    rng = np.random.default_rng(5)
    mesh = _mesh([0.0, 0.3, 0.7, 1.0], 45)
    g = SampledFunction(mesh, rng.normal(size=mesh.n_slots).astype(complex))
    got = indefinite_integral(g)
    for left, right in mesh.breakpoint_slots:
        assert got.values[left] == got.values[right]


def test_in_place_integral_is_bit_identical():
    # three pieces of 20, 70 and 30 subintervals: each piece's panels must
    # land in its own slots when the result is written into a given row
    mesh = _mesh([-1.0, -0.7, 0.5, 1.0], 115)
    assert mesh.piece_nsub == (20, 70, 30)
    x = mesh.xs
    piece = np.repeat(np.arange(3), [n + 1 for n in mesh.piece_nsub])
    integrands = {
        "smooth": np.exp(x) * np.cos(3.0 * x),
        "jumping": np.choose(piece, [1.0, -2.0, 0.5]) * (1.0 + x**2),
        "complex": np.choose(piece, [1.0 + 2.0j, -0.5j, 3.0]) * np.sin(x) + 1j * x**3,
    }
    shared = _workspace(mesh)
    for name, vals in integrands.items():
        g = SampledFunction(mesh, vals.astype(complex))
        expect = indefinite_integral(g).values
        row = np.full(mesh.n_slots, np.nan, dtype=complex)
        got = indefinite_integral(g, out=row, work=shared).values
        fresh = indefinite_integral(g, out=np.empty_like(row), work=_workspace(mesh)).values
        assert np.shares_memory(got, row), name
        assert np.array_equal(got, expect), name
        assert got.tobytes() == expect.tobytes() == fresh.tobytes(), name
        assert got[0] == 0.0 and not np.signbit(got[0].real) and not np.signbit(got[0].imag)
        for left, right in mesh.breakpoint_slots:
            assert got[left : left + 1].tobytes() == got[right : right + 1].tobytes(), name


def test_l1_norm_examples():
    mesh = _mesh([0.0, 1.0], 20)
    assert l1_norm(constant_function(mesh, -2.0)) == pytest.approx(2.0, rel=1e-14)
    assert l1_norm(constant_function(mesh, 0.0)) == 0.0


def test_l1_norm_weight_of_step_problem():
    # |r f^2| with r = 1 and f = cos x / cos(sqrt2 x)
    mesh = _mesh([-1.0, 0.0, 1.0], 2000)
    x = mesh.xs.real
    left_mask = np.arange(mesh.n_slots) <= mesh.breakpoint_slots[0][0]
    vals = np.where(left_mask, np.cos(x) ** 2, np.cos(math.sqrt(2) * x) ** 2)
    got = l1_norm(SampledFunction(mesh, vals.astype(complex)))
    expect = (0.5 + math.sin(2.0) / 4) + (0.5 + math.sin(2 * math.sqrt(2)) / (4 * math.sqrt(2)))
    assert got == pytest.approx(expect, rel=1e-12)
    assert got > 0
