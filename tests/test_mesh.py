import numpy as np
import pytest

from spps.errors import CoefficientError, MeshError
from spps.expressions import evaluate, parse
from spps.mesh import Interval, Piece, build_mesh, sample_coefficients, sample_piecewise


def _pieces(breaks, p="1", q="0", r="1"):
    return [
        Piece(lo, hi, parse(p), parse(q), parse(r))
        for lo, hi in zip(breaks[:-1], breaks[1:])
    ]


def test_symmetric_halves_rounding():
    mesh = build_mesh(Interval(-1, 1), _pieces([-1.0, 0.0, 1.0]), 20)
    assert mesh.piece_nsub == (10, 10)
    assert np.unique(mesh.xs).size == 21
    assert mesh.n_slots == 22  # node 0 doubled for two-sided values
    assert mesh.breakpoint_slots == ((10, 11),)


def test_round_up_to_multiple_of_five():
    mesh = build_mesh(Interval(0, 1), _pieces([0.0, 1.0]), 7)
    assert mesh.piece_nsub == (10,)
    assert np.unique(mesh.xs).size == 11


def test_nonpositive_resolution_rejected():
    with pytest.raises(MeshError):
        build_mesh(Interval(0, 1), _pieces([0.0, 1.0]), 0)


def test_three_layer_geometry():
    mesh = build_mesh(Interval(-4, 2), _pieces([-4.0, -2.0, 0.0, 2.0]), 30)
    assert mesh.piece_nsub == (10, 10, 10)
    assert mesh.n_subintervals == 30
    assert np.unique(mesh.xs).size == 31
    assert mesh.n_slots == 33
    assert mesh.breakpoint_slots == ((10, 11), (21, 22))
    for x in (-2.0, 0.0):
        assert np.count_nonzero(mesh.xs == x) == 2


def test_effective_m_and_multiples():
    mesh = build_mesh(Interval(0, 1), _pieces([0.0, 0.37, 1.0]), 57)
    assert mesh.n_subintervals >= 57
    assert all(n % 5 == 0 and n >= 5 for n in mesh.piece_nsub)


def test_short_piece_still_gets_five():
    mesh = build_mesh(Interval(0, 1), _pieces([0.0, 0.001, 1.0]), 20)
    assert mesh.piece_nsub[0] == 5


def test_uniform_spacing_within_pieces():
    mesh = build_mesh(Interval(-1, 1), _pieces([-1.0, 0.25, 1.0]), 40)
    for i in range(2):
        xs = mesh.xs[mesh.piece_slice(i)]
        steps = np.diff(xs)
        assert np.allclose(steps, steps[0], rtol=1e-13)
    assert mesh.xs[0] == -1.0 and mesh.xs[-1] == 1.0
    assert 0.25 in mesh.xs


def test_tiling_gap_and_overlap_rejected():
    gap = [Piece(0.0, 0.4, parse("1"), parse("0"), parse("1")),
           Piece(0.5, 1.0, parse("1"), parse("0"), parse("1"))]
    with pytest.raises(MeshError, match="gap"):
        build_mesh(Interval(0, 1), gap, 30)
    overlap = [Piece(0.0, 0.6, parse("1"), parse("0"), parse("1")),
               Piece(0.5, 1.0, parse("1"), parse("0"), parse("1"))]
    with pytest.raises(MeshError, match="overlap"):
        build_mesh(Interval(0, 1), overlap, 30)
    with pytest.raises(MeshError):
        build_mesh(Interval(0, 1), _pieces([0.1, 1.0]), 30)
    with pytest.raises(MeshError):
        build_mesh(Interval(0, 1), _pieces([0.0, 0.9]), 30)


def test_step_potential_sampling_two_sided():
    pieces = [
        Piece(-1.0, 0.0, parse("-1"), parse("-1"), parse("1")),
        Piece(0.0, 1.0, parse("-1"), parse("-2"), parse("1")),
    ]
    mesh = build_mesh(Interval(-1, 1), pieces, 20)
    p, q, r = sample_coefficients(pieces, mesh)
    left, right = mesh.breakpoint_slots[0]
    assert q.values[left] == -1.0 and q.values[right] == -2.0
    assert np.all(p.values == -1.0)
    assert np.all(r.values == 1.0)
    # interior values match the owning side's one-sided limit
    assert np.all(q.values[: left + 1] == -1.0)
    assert np.all(q.values[right:] == -2.0)


def test_constant_sampling():
    pieces = _pieces([0.0, 1.0], p="1", q="0", r="1")
    mesh = build_mesh(Interval(0, 1), pieces, 10)
    p, q, r = sample_coefficients(pieces, mesh)
    assert np.all(p.values == 1.0)
    assert np.all(q.values == 0.0)
    assert np.all(r.values == 1.0)


def test_vanishing_weight_sampling():
    pieces = [
        Piece(0.0, 0.5, parse("-1"), parse("1"), parse("0")),
        Piece(0.5, 1.0, parse("-1"), parse("1"), parse("1")),
    ]
    mesh = build_mesh(Interval(0, 1), pieces, 20)
    _, _, r = sample_coefficients(pieces, mesh)
    left, right = mesh.breakpoint_slots[0]
    assert r.values[left] == 0.0 and r.values[right] == 1.0


def test_sampling_reproduces_expression_exactly():
    pieces = [
        Piece(-1.0, 0.2, parse("cos(x)"), parse("x^2"), parse("exp(x)")),
        Piece(0.2, 1.0, parse("sin(x)+2"), parse("1/(x+3)"), parse("x")),
    ]
    mesh = build_mesh(Interval(-1, 1), pieces, 40)
    p, q, r = sample_coefficients(pieces, mesh)
    rng = np.random.default_rng(7)
    for _ in range(20):
        i = int(rng.integers(0, 2))
        sl = mesh.piece_slice(i)
        k = int(rng.integers(sl.start, sl.stop))
        x = np.array([float(mesh.xs[k].real)])
        assert p.values[k] == evaluate(pieces[i].p, x)[0]
        assert q.values[k] == evaluate(pieces[i].q, x)[0]
        assert r.values[k] == evaluate(pieces[i].r, x)[0]


def test_p_zero_at_node_rejected():
    pieces = _pieces([0.0, 1.0], p="x - 0.5")  # vanishes at the node 0.5
    mesh = build_mesh(Interval(0, 1), pieces, 10)
    with pytest.raises(CoefficientError, match="singular"):
        sample_coefficients(pieces, mesh)


def test_expression_failure_names_piece():
    pieces = _pieces([0.0, 1.0], q="1/(x - 0.5)")
    mesh = build_mesh(Interval(0, 1), pieces, 10)
    with pytest.raises(CoefficientError, match=r"piece \[0.0, 1.0\]"):
        sample_coefficients(pieces, mesh)


def test_sample_piecewise_needs_one_expression_per_piece():
    mesh = build_mesh(Interval(-1, 1), _pieces([-1.0, 0.0, 1.0]), 20)
    with pytest.raises(ValueError):
        sample_piecewise([parse("1")], mesh)


def test_interval_validation():
    with pytest.raises(MeshError):
        Interval(1.0, 1.0)
    with pytest.raises(MeshError):
        Interval(float("inf"), 0.0)
    with pytest.raises(MeshError):
        Piece(0.5, 0.5, parse("1"), parse("0"), parse("1"))


def test_slot_of():
    mesh = build_mesh(Interval(-1, 1), _pieces([-1.0, 0.0, 1.0]), 20)
    assert mesh.slot_of(-1.0) == 0
    assert mesh.slot_of(0.0) == 10  # left slot of the doubled breakpoint
    assert mesh.slot_of(1.0) == mesh.n_slots - 1
    with pytest.raises(MeshError):
        mesh.slot_of(0.123456)
