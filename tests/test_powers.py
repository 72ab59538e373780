import math
import multiprocessing
import threading
import time
import warnings

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
import spps.powers
from spps.basis import SppsBasis, evaluate_solution, shift_basis
from spps.errors import ShiftFailureError
from spps.powers import _PAIRED_MIN_SLOTS, _in_pair, compute_formal_powers
from spps.problems import fixture_path, load_problem, prepare, with_overrides

from util import BoundViolationError, check_bounds, layered_problem, unit_samples


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
    # each integral lands in its own row of its own family, with no copy after;
    # the order of the calls across the two families is free
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
    rows = [fam[n] for fam in (fp.tilde, fp.plain) for n in range(1, fp.n_max + 1)]
    for res in results:
        hits = [k for k, row in enumerate(rows) if np.shares_memory(res.values, row)]
        assert len(hits) == 1
        rows.pop(hits[0])
    assert rows == []


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
    from spps.basis import SppsBasis

    config, samples, _, _, start = prepare(layered_problem(n_terms=30, m=600), None, None)
    basis = SppsBasis(start, samples, 30)
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


# ---------------------------------------------------------------------------
# Two threads on a long mesh


def _paired_run(monkeypatch, cpus):
    """Seed, powers and one evaluation of a complex layered problem on a long mesh.

    Returns the bytes of every result and, for the integrals, whether each
    ran on the calling thread.
    """
    monkeypatch.setattr(spps.powers, "_CPUS", cpus)
    caller = threading.get_ident()
    on_caller = set()
    original = spps.powers.indefinite_integral

    def recording(g, **kwargs):
        on_caller.add(threading.get_ident() == caller)
        return original(g, **kwargs)

    monkeypatch.setattr(spps.powers, "indefinite_integral", recording)
    _, samples, _, _, start = prepare(layered_problem(complex_params=True, n_terms=8, m=20000))
    assert samples.mesh.n_slots >= _PAIRED_MIN_SLOTS
    fp = compute_formal_powers(start.f, samples.p, samples.r, 8)
    evaluated = evaluate_solution(SppsBasis(start, samples, 8), 0.7 + 0.3j)
    arrays = (start.f.values, start.pf_prime.values, fp.tilde, fp.plain, *evaluated[:4])
    return [a.tobytes() for a in arrays] + [float(evaluated[4]).hex()], on_caller


def test_paired_and_inline_give_equal_bytes(monkeypatch):
    paired, paired_on_caller = _paired_run(monkeypatch, 2)
    inline, inline_on_caller = _paired_run(monkeypatch, 1)
    assert paired_on_caller == {True, False}
    assert inline_on_caller == {True}
    assert paired == inline


def test_paired_evaluation_overflow_warns_nothing(monkeypatch):
    # each half ignores overflow on its own thread: the sums overflow at 1e15,
    # and only the tail says so
    monkeypatch.setattr(spps.powers, "_CPUS", 2)
    trivial = load_problem(fixture_path("trivial.prob"))
    config, samples, _, _, start = prepare(with_overrides(trivial, mesh_m=20000))
    basis = SppsBasis(start, samples, config.n_terms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u1, _, u2, _, tail = evaluate_solution(basis, 1e15)
        assert tail == math.inf
        assert not (np.isfinite(u1).all() and np.isfinite(u2).all())
        with pytest.raises(ShiftFailureError, match="leaves the trust region"):
            shift_basis(basis, 1e15)


def _build_on_a_long_mesh():
    s = unit_samples(_PAIRED_MIN_SLOTS)
    return compute_formal_powers(constant_function(s.mesh, 1.0), s.p, s.r, 3)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_fork_child_builds_after_a_paired_build(monkeypatch):
    # no thread or pool of the parent's build is left for the child to wait on
    monkeypatch.setattr(spps.powers, "_CPUS", 2)
    _build_on_a_long_mesh()
    child = multiprocessing.get_context("fork").Process(target=_build_on_a_long_mesh)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a forked child hung building its own power set")
    assert child.exitcode == 0


@pytest.mark.parametrize("failing", ["first", "second"])
def test_pair_reraises_after_both_halves_end(monkeypatch, failing):
    monkeypatch.setattr(spps.powers, "_CPUS", 2)
    mesh = unit_samples(_PAIRED_MIN_SLOTS).mesh
    before = threading.active_count()
    ended = []

    def half(name, delay):
        def run():
            time.sleep(delay)
            ended.append((name, threading.current_thread() is threading.main_thread()))
            if name == failing:
                raise ValueError(f"{name} half failed")
            return name

        return run

    # the failing half ends first, the other one later
    delays = {"first": 0.0, "second": 0.2} if failing == "first" else {"first": 0.2, "second": 0.0}
    with pytest.raises(ValueError, match=f"{failing} half failed"):
        _in_pair(mesh, half("first", delays["first"]), half("second", delays["second"]))
    assert sorted(ended) == [("first", False), ("second", True)]
    assert threading.active_count() == before
