import itertools
import math

import numpy as np
import pytest

import spps.basis
import spps.powers
from spps.basis import (
    ParticularSolution,
    SppsBasis,
    build_seed_solution,
    evaluate_solution,
    particular_from_samples,
    particular_residual,
    shift_basis,
    verify_particular,
)
from spps.errors import (
    NonvanishingError,
    ParticularResidualError,
    SeedFailureError,
    ShiftFailureError,
)
from spps.mesh import SampledFunction, constant_function
from spps.problems import parse_problem, prepare, sample_problem

from util import (
    TABLE1,
    identity_shift,
    plain_problem,
    step_potential_problem,
    track_power_sets,
    truncation_residual,
    unit_samples,
    vanishing_weight_problem,
)


@pytest.fixture(scope="module")
def unit_basis():
    samples = unit_samples(200)
    f = constant_function(samples.mesh, 1.0)
    pf = constant_function(samples.mesh, 0.0)
    ps = particular_from_samples(samples, f, pf)
    return SppsBasis(ps, samples, 14)


@pytest.fixture(scope="module")
def step_setup():
    problem = step_potential_problem(n_terms=40, m=2000)
    config, samples, bcl, bcr, start = prepare(problem, None, None)
    return problem, samples, bcl, bcr, SppsBasis(start, samples, 40)


def test_seed_zero_potential_closed_form():
    samples = unit_samples(150)
    ps = build_seed_solution(samples, 10)
    x = samples.mesh.xs
    assert np.abs(ps.f.values - (1.0 + 1j * x)).max() <= 1e-14
    assert np.abs(ps.pf_prime.values - 1j).max() <= 1e-14
    assert ps.lambda_star == 0.0
    assert ps.min_abs >= 1.0 - 1e-14


def test_seed_step_potential_satisfies_equation():
    problem = step_potential_problem(with_particular=False, m=1000)
    _, samples, _, _, _ = prepare(problem, None, None)
    ps = build_seed_solution(samples, 40)
    residual, scale = particular_residual(samples, ps)
    assert residual <= 1e-9 * scale
    assert ps.min_abs > 0


# problem scan16 of the benchmark's scan_small workload at seed 1 (N = 40)
SCAN_TEXT = """
[interval]
a = -1
b = 1

[piece]
from = -1.0
to = -0.049714
p = "-1.0703"
q = "4.9123"
r = "0.721"

[piece]
from = -0.049714
to = 1.0
p = "-0.6875"
q = "-3.8531"
r = "1.3811"

[bc_left]
alpha = 0.0
beta = 1.0
derivative = p_u_prime

[bc_right]
alpha = 1.0
beta = 0.0
derivative = p_u_prime

[solver]
max_eigenvalues = 6
"""


def _never_below(c1, c2):
    # growth bounds that never fall, so the seed is built at its cap
    return itertools.repeat((math.inf,) * 3)


def _record_orders(monkeypatch):
    orders = []
    original = spps.basis.compute_formal_powers

    def recording(f, p, r, n_terms):
        orders.append(n_terms)
        return original(f, p, r, n_terms)

    monkeypatch.setattr(spps.basis, "compute_formal_powers", recording)
    return orders


@pytest.mark.parametrize(
    "name, order",
    [("example2_complex", 3), ("example2_real", 3), ("example4", 14), ("scan16", 27)],
)
def test_seed_built_at_bounded_order(bundled_problem, monkeypatch, name, order):
    # q = 0 in both example2 problems, so every term past order 3 is exactly 0
    problem = parse_problem(SCAN_TEXT) if name == "scan16" else bundled_problem(name)
    samples = sample_problem(problem, min(problem.solver.mesh_m, 30000))
    n_terms = problem.solver.n_terms
    orders = _record_orders(monkeypatch)
    short = build_seed_solution(samples, n_terms)
    monkeypatch.setattr(spps.basis, "_growth_bounds", _never_below)
    full = build_seed_solution(samples, n_terms)
    assert orders == [order, n_terms]
    assert short.f.values.tobytes() == full.f.values.tobytes()
    assert short.pf_prime.values.tobytes() == full.pf_prime.values.tobytes()


def test_failing_seed_is_built_once(bundled_problem, monkeypatch):
    def failing(samples, ps):
        raise ParticularResidualError("forced failure")

    samples = sample_problem(bundled_problem("example4"), 2000)
    monkeypatch.setattr(spps.basis, "verify_particular", failing)
    orders = _record_orders(monkeypatch)
    with pytest.raises(SeedFailureError, match="seed series did not converge"):
        build_seed_solution(samples, 40)
    # no second build at the cap: it would give the same candidates
    assert orders == [14]


def test_seed_falls_through_to_a_later_stock_pair(bundled_problem, monkeypatch):
    samples = sample_problem(bundled_problem("example4"), 2000)
    default = build_seed_solution(samples, 40)

    counts = {"indefinite_integral": 0, "verify_particular": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [
        (spps.basis, "indefinite_integral"),
        (spps.powers, "indefinite_integral"),
        (spps.basis, "verify_particular"),
    ]:
        counting(module, name)
    orders = _record_orders(monkeypatch)
    # y2 is 0 at a, so (0, 1) vanishes and the seed falls through to (1, i)
    stock = spps.basis._SEED_COMBINATIONS
    monkeypatch.setattr(spps.basis, "_SEED_COMBINATIONS", ((0.0, 1.0),) + stock)
    seed = build_seed_solution(samples, 40)
    assert seed.f.values.tobytes() == default.f.values.tobytes()
    assert seed.pf_prime.values.tobytes() == default.pf_prime.values.tobytes()
    assert counts["verify_particular"] == 2
    # every check integrates its residual, the rejected pair's too
    (n,) = orders
    assert counts["indefinite_integral"] == 2 * (2 * n + 1) + counts["verify_particular"]


def test_user_airy_particular_verifies(bundled_problem):
    from spps.problems import particular_for, sample_problem

    problem = bundled_problem("example3")
    samples = sample_problem(problem, 2000)
    ps = particular_for(problem, samples)
    assert ps.lambda_star == 0.0
    residual, scale = particular_residual(samples, ps)
    assert residual <= 1e-9 * scale


def test_discontinuous_user_f_rejected():
    from spps.expressions import parse
    from spps.mesh import sample_piecewise
    from spps.problems import sample_problem

    problem = step_potential_problem(m=500)
    samples = sample_problem(problem, 500)
    # x+1 and x+2 jump at the breakpoint
    f = sample_piecewise([parse("x + 1"), parse("x + 2")], samples.mesh)
    pf = sample_piecewise([parse("-1"), parse("-1")], samples.mesh)
    with pytest.raises(ParticularResidualError, match="jumps"):
        particular_from_samples(samples, f, pf)


def test_nearly_vanishing_user_f_rejected():
    from spps.expressions import parse
    from spps.mesh import sample_piecewise
    from spps.problems import sample_problem

    problem = plain_problem(m=200)
    samples = sample_problem(problem, 200)
    f = sample_piecewise([parse("x - 0.5")], samples.mesh)
    pf = sample_piecewise([parse("1")], samples.mesh)
    with pytest.raises(NonvanishingError):
        particular_from_samples(samples, f, pf)


def test_nearly_vanishing_f_rejected_after_its_residual():
    # f = x - c solves u'' = 0, so only the nonvanishing check can reject it
    samples = unit_samples(200)
    xs = samples.mesh.xs
    ps = ParticularSolution(
        f=SampledFunction(samples.mesh, (xs - (xs[100] + 1e-13)).astype(np.complex128)),
        pf_prime=constant_function(samples.mesh, 1.0),
        lambda_star=0.0,
    )
    residual, scale = particular_residual(samples, ps)
    assert residual <= 1e-9 * scale
    with pytest.raises(NonvanishingError, match="nearly vanishes"):
        verify_particular(samples, ps)


def test_unit_series_converges_to_cosh_sinh(unit_basis):
    u1, _, u2, _, _ = evaluate_solution(unit_basis, 1.0)
    assert abs(u1[-1] - math.cosh(1.0)) <= 1e-12
    assert abs(u2[-1] - math.sinh(1.0)) <= 1e-12
    lam = 2.37
    u1 = evaluate_solution(unit_basis, lam)[0]
    x = unit_basis.samples.mesh.xs
    expect = np.cosh(math.sqrt(lam) * x)
    assert np.abs(u1 - expect).max() <= 1e-11


def test_evaluation_at_center_is_exact(unit_basis, step_setup):
    for basis in (unit_basis, step_setup[4]):
        u1, pu1, u2, pu2, tail = evaluate_solution(basis, basis.center)
        assert np.array_equal(u1, basis.particular.f.values)
        assert np.array_equal(pu1, basis.particular.pf_prime.values)
        # u2 = f * X^(1), with initial data u2(x0) = 0, pu2'(x0) = 1/f(x0)
        expect_u2 = basis.particular.f.values * basis.powers.plain[1]
        assert np.abs(u2 - expect_u2).max() <= 1e-15 * np.abs(expect_u2).max()
        assert u2[0] == 0.0
        assert pu2[0] == 1.0 / basis.particular.f.values[0]
        assert tail == 0.0


def test_wronskian_identity(unit_basis, step_setup):
    rng = np.random.default_rng(19)
    for basis, radius in ((unit_basis, 4.0), (step_setup[4], 3.0)):
        for _ in range(10):
            lam = basis.center + complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
            u1, pu1, u2, pu2, _ = evaluate_solution(basis, lam)
            w = u1 * pu2 - u2 * pu1
            assert np.abs(w - 1.0).max() <= 1e-9


def test_solution_continuity_across_breakpoints(step_setup):
    _, samples, _, _, basis = step_setup
    u1, pu1, u2, pu2, _ = evaluate_solution(basis, 1.7)
    for left, right in samples.mesh.breakpoint_slots:
        assert u1[left] == u1[right]
        assert pu1[left] == pu1[right]
        assert u2[left] == u2[right]
        assert pu2[left] == pu2[right]


def test_identity_shift_reproduces_powers(step_setup):
    _, _, _, _, basis = step_setup
    shifted = identity_shift(basis)
    assert shifted.center == basis.center
    scale_t = np.abs(basis.powers.tilde).max()
    scale_p = np.abs(basis.powers.plain).max()
    assert np.abs(shifted.powers.tilde - basis.powers.tilde).max() <= 1e-13 * scale_t
    assert np.abs(shifted.powers.plain - basis.powers.plain).max() <= 1e-13 * scale_p
    assert np.array_equal(shifted.particular.f.values, basis.particular.f.values)


def test_shift_to_first_eigenvalue_recenters(step_setup):
    problem, _, bcl, bcr, basis = step_setup
    from spps.spectral import assemble_characteristic

    shifted = shift_basis(basis, TABLE1[0])
    phi = assemble_characteristic(shifted, bcl, bcr)
    assert abs(phi.coeffs[0]) / phi.scale <= 1e-8
    residual, scale = particular_residual(shifted.samples, shifted.particular)
    assert residual <= 1e-9 * scale


def test_shift_beyond_trust_region_fails(unit_basis):
    with pytest.raises(ShiftFailureError, match="trust region"):
        shift_basis(unit_basis, 1e6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target", [1e25, 1e100, math.nan], ids=["1e25", "1e100", "nan"])
def test_shift_overflowing_the_series_leaves_trust_region(unit_basis, target):
    # the sums overflow (or mu is NaN), with no warning: the tail must not
    # read as converged, as it did at 1e25 (0.0) and at 1e100 (NaN)
    u1 = evaluate_solution(unit_basis, target)[0]
    assert not np.isfinite(u1).all()
    with pytest.raises(ShiftFailureError, match="leaves the trust region"):
        shift_basis(unit_basis, target)


def test_nan_tail_leaves_trust_region(unit_basis, monkeypatch):
    # a NaN tail fails the trust check even where the sums are finite
    monkeypatch.setattr(spps.basis, "_tail_indicator", lambda *args: math.nan)
    with pytest.raises(ShiftFailureError, match="leaves the trust region"):
        shift_basis(unit_basis, 0.5)


@pytest.mark.parametrize("name", ["trivial", "example4"])
def test_shift_from_short_basis_equals_shift_from_full(bundled_problem, monkeypatch, name):
    from spps.spectral import assemble_characteristic, roots_of

    config, samples, bcl, bcr, start = prepare(bundled_problem(name))
    n_full = config.n_terms
    basis = SppsBasis(start, samples, n_full)
    roots = roots_of(assemble_characteristic(basis, bcl, bcr))
    cand = complex(roots[np.argmin(np.abs(roots - basis.center))])
    short = shift_basis(basis, cand, n_terms=10)
    full = shift_basis(basis, cand)
    assert (short.n_terms, full.n_terms) == (10, n_full)

    orders = _record_orders(monkeypatch)
    for step in (1e-12, 0.3, 3.0):
        orders.clear()
        from_short = shift_basis(short, cand + step, n_terms=n_full)
        # the short series could not reach: the source grows to full order and
        # evaluates again (a build at 10 is the short rows read again after
        # their release)
        rebuilt = orders.count(n_full) == 2
        assert short.n_terms == (n_full if rebuilt else 10)
        from_full = shift_basis(full, cand + step)
        assert from_short.n_terms == n_full
        assert np.array_equal(from_short.powers.tilde, from_full.powers.tilde)
        assert np.array_equal(from_short.powers.plain, from_full.powers.plain)
        assert np.array_equal(from_short.particular.f.values, from_full.particular.f.values)
        assert rebuilt == (name == "trivial" and step == 3.0)


def test_grow_builds_the_longer_rows_alone_and_unverified(monkeypatch):
    samples = unit_samples(200)
    ones = constant_function(samples.mesh, 1.0)
    ps = particular_from_samples(samples, ones, constant_function(samples.mesh, 0.0))
    basis = shift_basis(SppsBasis(ps, samples, 14), 0.5, n_terms=6)
    tail, rows = basis.shift_tail, basis.powers
    assert tail > 0
    for n in (6, 3):  # no higher order: nothing happens
        basis.grow(n)
        assert basis.n_terms == 6 and basis.powers is rows
    del rows

    verified = []
    monkeypatch.setattr(spps.basis, "verify_particular", lambda *args: verified.append(args))
    power_builds = track_power_sets(monkeypatch)
    basis.grow(12)
    # the short rows are freed before the longer ones are built, and the
    # particular solution is not checked again
    assert power_builds == [(12, [], "grow")]
    assert verified == []
    assert (basis.n_terms, basis.shift_tail) == (12, tail)

    monkeypatch.undo()
    built = SppsBasis(basis.particular, samples, 12)
    assert np.array_equal(basis.powers.tilde, built.powers.tilde)
    assert np.array_equal(basis.powers.plain, built.powers.plain)


def test_scheduled_shift_quality_gate():
    # a coarse mesh cannot support a long chain of shifts; the failure mode
    # must be ShiftFailureError, which the sweep treats as a graceful stop
    problem = vanishing_weight_problem(n_terms=40, m=1000)
    config, samples, _, _, start = prepare(problem, None, None)
    basis = SppsBasis(start, samples, 40)
    with pytest.raises(ShiftFailureError):
        for target in [17.89793137541756, 98.16027543604447, 256.2710801437674,
                       493.2013196148296, 809.0540168683802]:
            basis = shift_basis(basis, target)


def test_truncation_residual_at_center(unit_basis, step_setup):
    for basis in (unit_basis, step_setup[4]):
        _, pu1, _, pu2, _ = evaluate_solution(basis, basis.center)
        for which, pu in (("first", pu1), ("second", pu2)):
            res = truncation_residual(basis, basis.center, which)
            scale = np.abs(pu).max()
            assert res <= 1e-10 * max(scale, 1.0)


def test_truncation_residual_off_center():
    samples = unit_samples(400)
    f = constant_function(samples.mesh, 1.0)
    pf = constant_function(samples.mesh, 0.0)
    basis = SppsBasis(particular_from_samples(samples, f, pf), samples, 10)
    assert truncation_residual(basis, 1.0, "first") <= 1e-9
    assert truncation_residual(basis, 1.0, "second") <= 1e-9


def test_truncation_tail_grows_with_distance(unit_basis):
    near = evaluate_solution(unit_basis, 0.5)[4]
    far = evaluate_solution(unit_basis, 20.0)[4]
    assert 0 < near < far


def test_scaled_particular_changes_series_not_solutions():
    # u1 values differ under f -> c f, but remain solutions: checked via the
    # residual identity at the same lambda
    problem = step_potential_problem(m=1000)
    _, samples, _, _, start = prepare(problem, None, None)
    basis = SppsBasis(start, samples, 30)
    scaled_ps = ParticularSolution(
        f=SampledFunction(samples.mesh, 2.0 * start.f.values),
        pf_prime=SampledFunction(samples.mesh, 2.0 * start.pf_prime.values),
        lambda_star=start.lambda_star,
    )
    verify_particular(samples, scaled_ps)
    basis2 = SppsBasis(scaled_ps, samples, 30)
    lam = 0.9
    r1 = truncation_residual(basis, lam, "first")
    r2 = truncation_residual(basis2, lam, "first")
    assert r1 <= 1e-9 and r2 <= 2e-9
