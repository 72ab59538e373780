import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from spps import basis as basis_module
from spps import cli as cli_module
from spps import problems as problems_module
from spps import spectral as spectral_module
from spps.basis import EXACT_TAIL, ParticularSolution, SppsBasis, evaluate_solution, shift_basis
from spps.mesh import SampledFunction, constant_function
from spps.errors import (
    ConfigurationError,
    ContourError,
    DegeneratePolynomialError,
    InputError,
    NonvanishingError,
    ParticularResidualError,
    ProblemFormatError,
    ShiftFailureError,
    SweepStalledError,
)
from spps.problems import (
    POLICIES,
    BoundaryCondition,
    SolverConfig,
    fixture_path,
    load_reference,
    match_reference,
    parse_problem,
    prepare,
    with_overrides,
)
from spps.spectral import (
    LANDSCAPE_CAP,
    CharacteristicPolynomial,
    EigenvalueRecord,
    _main_order,
    _next_center,
    _sorted_by_real_part,
    assemble_characteristic,
    characteristic_at,
    count_zeros,
    landscape_of,
    roots_of,
    sweep_eigenvalues,
)

from shooting import refine_root
from util import (
    TABLE1,
    layered_problem,
    plain_problem,
    step_potential_problem,
    three_piece_problem,
    track_power_sets,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def step_setup():
    problem = step_potential_problem(n_terms=40, m=2000)
    config, samples, bcl, bcr, start = prepare(problem, None, None)
    return problem, samples, bcl, bcr, SppsBasis(start, samples, 40)


# ---------------------------------------------------------------------------
# Boundary conditions and assembly


def test_bc_validation():
    with pytest.raises(InputError):
        BoundaryCondition("left", [0], [0])
    with pytest.raises(InputError):
        BoundaryCondition("middle", [1], [0])
    with pytest.raises(InputError):
        BoundaryCondition("left", [1], [0], "du")
    with pytest.raises(InputError, match="finite"):
        BoundaryCondition("left", [1], [math.nan])
    bc = BoundaryCondition("left", [0, 1], [1])
    assert bc.degree == 1


def test_dirichlet_assembly_factorizes():
    problem = plain_problem(n_terms=10, m=100)
    config, samples, bcl, bcr, start = prepare(problem, None, None)
    basis = SppsBasis(start, samples, 10)
    phi = assemble_characteristic(basis, bcl, bcr)
    f_a = basis.particular.f.values[0]
    f_b = basis.particular.f.values[-1]
    expect = f_a * f_b * basis.powers.plain[1::2, -1]
    assert phi.coeffs.shape == expect.shape
    assert np.abs(phi.coeffs - expect).max() <= 1e-15 * np.abs(expect).max()


def _paper_series_coefficients(basis):
    """The explicit coefficient formulas for the step-potential problem.

    Written against the endpoint power values exactly as the hand-derived
    expansion of (lambda f(-1) + f'(-1))(lambda u2(1) - u2'(1))
    + (1/f(-1))(lambda u1(1) - u1'(1)), with p = -1, as a regression
    surface for the generic convolution assembly.
    """
    n = basis.n_terms
    tilde = basis.powers.tilde[:, -1]
    plain = basis.powers.plain[:, -1]

    def X(alpha):
        return plain[alpha] if alpha >= 0 else 0.0

    def Xt(alpha):
        return tilde[alpha] if alpha >= 0 else 0.0

    f_m1 = basis.particular.f.values[0]
    f_p1 = basis.particular.f.values[-1]
    # classical derivative: f' = (p f') / p with p = -1
    fp_m1 = -basis.particular.pf_prime.values[0]
    fp_p1 = -basis.particular.pf_prime.values[-1]

    c = np.zeros(n + 1, dtype=np.complex128)
    for k in range(n + 1):
        c[k] = (
            f_m1 * (f_p1 * X(2 * k - 3) + X(2 * k - 2) / f_p1 - fp_p1 * X(2 * k - 1))
            + fp_m1 * (f_p1 * X(2 * k - 1) + X(2 * k) / f_p1 - fp_p1 * X(2 * k + 1))
            + (1 / f_m1) * (f_p1 * Xt(2 * k - 2) + Xt(2 * k - 1) / f_p1 - fp_p1 * Xt(2 * k))
        )
    return c


def _paper_shift_correction(basis):
    """B_k of the shifted expansion for the step-potential problem."""
    n = basis.n_terms
    tilde = basis.powers.tilde[:, -1]
    plain = basis.powers.plain[:, -1]

    def X(alpha):
        return plain[alpha] if alpha >= 0 else 0.0

    f_m1 = basis.particular.f.values[0]
    f_p1 = basis.particular.f.values[-1]
    fp_m1 = -basis.particular.pf_prime.values[0]
    fp_p1 = -basis.particular.pf_prime.values[-1]
    lam_star = basis.center

    b = np.zeros(n + 1, dtype=np.complex128)
    for k in range(n + 1):
        b[k] = (
            f_m1 * (2 * f_p1 * X(2 * k - 1) - fp_p1 * X(2 * k + 1) + X(2 * k) / f_p1)
            + (lam_star * f_m1 + fp_m1) * f_p1 * X(2 * k + 1)
            + (f_p1 / f_m1) * tilde[2 * k]
        )
    return b


def test_structural_regression_centered(step_setup):
    _, _, bcl, bcr, basis = step_setup
    phi = assemble_characteristic(basis, bcl, bcr)
    expect = _paper_series_coefficients(basis)
    n = basis.n_terms
    scale = np.abs(expect).max()
    assert np.abs(phi.coeffs[: n + 1] - expect).max() <= 1e-12 * scale


def test_structural_regression_shifted(step_setup):
    _, _, bcl, bcr, basis = step_setup
    shifted = shift_basis(basis, TABLE1[0])
    phi = assemble_characteristic(shifted, bcl, bcr)
    base = _paper_series_coefficients(shifted)
    corr = _paper_shift_correction(shifted)
    expect = base + shifted.center * corr
    n = basis.n_terms
    scale = np.abs(expect).max()
    assert np.abs(phi.coeffs[: n + 1] - expect).max() <= 1e-12 * scale


def test_assembly_rejects_mismatched_endpoints(step_setup):
    _, _, bcl, _, basis = step_setup
    with pytest.raises(ConfigurationError):
        assemble_characteristic(basis, bcl, bcl)


# ---------------------------------------------------------------------------
# Roots


def test_quadratic_roots():
    phi = CharacteristicPolynomial(np.array([-1.0, 0.0, 1.0], dtype=complex), 0.0)
    roots = np.sort_complex(roots_of(phi))
    assert np.allclose(roots, [-1.0, 1.0], atol=1e-14)


def test_quadratic_roots_recentred():
    # mu^2 - 1 around center 2 has zeros at lambda = 1 and 3
    phi = CharacteristicPolynomial(np.array([-1.0, 0.0, 1.0], dtype=complex), 2.0)
    roots = np.sort_complex(roots_of(phi))
    assert np.allclose(roots, [1.0, 3.0], atol=1e-12)


def test_dirichlet_roots_against_sine_zeros():
    problem = plain_problem(n_terms=20, m=200)
    config, samples, bcl, bcr, start = prepare(problem, None, None)
    basis = SppsBasis(start, samples, 20)
    phi = assemble_characteristic(basis, bcl, bcr)
    roots = roots_of(phi)
    nearest = roots[np.argmin(np.abs(roots))]
    # u'' = lam u with u(0)=u(1)=0: eigenvalues where sin(sqrt(-lam)) = 0
    assert abs(math.sin(math.sqrt(-nearest.real))) <= 1e-9
    assert nearest.real == pytest.approx(-math.pi**2, abs=1e-9)


def test_degenerate_polynomial_rejected():
    phi = CharacteristicPolynomial(np.zeros(5, dtype=complex), 0.0)
    with pytest.raises(DegeneratePolynomialError):
        roots_of(phi)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [0, 2])
def test_nonfinite_polynomial_rejected(bad, where):
    coeffs = np.array([1.0, -2.0, 1.0], dtype=complex)
    coeffs[where] = bad
    with pytest.raises(DegeneratePolynomialError, match="non-finite"):
        roots_of(CharacteristicPolynomial(coeffs, 0.0))


def test_constant_polynomial_has_no_roots():
    phi = CharacteristicPolynomial(np.array([2.0], dtype=complex), 0.0)
    assert roots_of(phi).size == 0


def test_shift_consistency_between_centers(step_setup):
    _, _, bcl, bcr, basis = step_setup
    phi0 = assemble_characteristic(basis, bcl, bcr)
    shifted = shift_basis(basis, 0.3)
    phi1 = assemble_characteristic(shifted, bcl, bcr)
    r0 = roots_of(phi0)
    r1 = roots_of(phi1)
    for root in r0[np.abs(r0) <= 5.0]:
        match = r1[np.argmin(np.abs(r1 - root))]
        assert abs(match - root) <= 1e-9 * (1.0 + abs(root))


# ---------------------------------------------------------------------------
# Argument principle


def test_count_quadratic():
    phi = CharacteristicPolynomial(np.array([-1.0, 0.0, 1.0], dtype=complex), 0.0)
    assert count_zeros(phi.evaluate, 0.0, 2.0) == 2
    assert count_zeros(phi.evaluate, 0.0, 0.5) == 0


def test_count_zero_on_contour_rejected():
    phi = CharacteristicPolynomial(np.array([-1.0, 0.0, 1.0], dtype=complex), 0.0)
    with pytest.raises(ContourError):
        count_zeros(phi.evaluate, 0.0, 1.0)


def test_count_rejects_non_finite_values():
    def nan_everywhere(z):
        return np.full(np.shape(z), np.nan, dtype=complex)

    with pytest.raises(ContourError, match="not finite on the contour"):
        count_zeros(nan_everywhere, 0.0, 1.0)


def test_count_rejects_contour_grazing_a_zero():
    # a root 1e-10 outside the unit circle: no sample is zero, but the
    # estimated distance to the zero is far below 1e-6 of the radius
    phi = CharacteristicPolynomial(np.array([-(1.0 + 1e-10), 1.0], dtype=complex), 0.0)
    with pytest.raises(ContourError, match="passes too close to a zero"):
        count_zeros(phi.evaluate, 0.0, 1.0)


def test_count_near_contour_resolved_by_doubling():
    phi = CharacteristicPolynomial(np.array([-1.0, 0.0, 1.0], dtype=complex), 0.0)
    assert count_zeros(phi.evaluate, 0.0, 1.01, samples=256) == 2
    assert count_zeros(phi.evaluate, 0.0, 0.99, samples=256) == 0


def test_count_matches_sweep_inside_disk(step_setup):
    problem, _, bcl, bcr, basis = step_setup
    phi = assemble_characteristic(basis, bcl, bcr)
    assert count_zeros(phi.evaluate, 0.0, 1.0) == 2  # lam_0 and lam_1 only
    records = sweep_eigenvalues(problem)
    inside = [rec for rec in records if abs(rec.lam) <= 1.0]
    assert len(inside) == 2


def test_count_requires_positive_radius():
    phi = CharacteristicPolynomial(np.array([1.0, 1.0], dtype=complex), 0.0)
    with pytest.raises(InputError):
        count_zeros(phi.evaluate, 0.0, 0.0)


@pytest.mark.parametrize("samples", [0, -5])
def test_count_requires_positive_samples(samples):
    phi = CharacteristicPolynomial(np.array([1.0, 1.0], dtype=complex), 0.0)
    with pytest.raises(InputError, match="at least 1"):
        count_zeros(phi.evaluate, 0.0, 2.0, samples=samples)
    # one sample is accepted and starts at the 256-sample floor
    assert count_zeros(phi.evaluate, 0.0, 2.0, samples=1) == 1


# ---------------------------------------------------------------------------
# Landscape


def test_landscape_identity_function_clamps_origin():
    phi = CharacteristicPolynomial(np.array([0.0, 1.0], dtype=complex), 0.0)
    height, meta = landscape_of(phi, 0.0, 1.0, 16)
    assert height.shape == (16, 16)
    assert np.isfinite(height).all()
    # rows ordered by decreasing imaginary part: top-left is -1+1j
    corner = -np.log(abs(-1 + 1j))
    assert height[0, 0] == pytest.approx(corner, rel=1e-12)


def test_landscape_caps_at_exact_zero():
    phi = CharacteristicPolynomial(np.array([0.0, 1.0], dtype=complex), 0.0)
    height, _ = landscape_of(phi, 0.0, 1.0, 17)  # odd grid hits the origin
    assert height.max() == 308.0


def test_landscape_caps_a_subnormal_phi():
    # |Phi| beside the zeros +-i is subnormal, about 1e-320: uncapped, its
    # height (738) would rise above the zeros' own 308
    phi = CharacteristicPolynomial(np.array([1e-320, 0.0, 1e-320]), 0.0)
    height, _ = landscape_of(phi, 0.0, 1.0, 17)  # the middle column holds +-i
    assert height.max() <= LANDSCAPE_CAP
    assert height[0, 8] == height[-1, 8] == height.max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "coeffs, radius", [([1.0, 0.0, 1.0], 1e300), ([1.5e308 + 1.5e308j], 1.0)],
    ids=["phi", "modulus"],
)
def test_landscape_rejects_a_non_finite_phi(coeffs, radius):
    # Phi overflows on the grid, or only |Phi| does: no height is made up
    phi = CharacteristicPolynomial(np.array(coeffs, dtype=complex), 0.0)
    with pytest.raises(ContourError, match="not finite on the landscape grid"):
        landscape_of(phi, 0.0, radius, 16)


def test_landscape_constant():
    phi = CharacteristicPolynomial(np.array([2.0], dtype=complex), 0.0)
    height, meta = landscape_of(phi, 0.0, 1.0, 16)
    assert np.allclose(height, -math.log(2.0))
    assert meta["outside_trust_fraction"] == 0.0


def test_landscape_from_problem():
    problem = plain_problem(n_terms=20, m=200)
    height, meta = landscape_of(characteristic_at(problem, 0.0), 0.0, 12.0, 32)
    assert height.shape == (32, 32)
    assert meta["grid"] == 32
    # a peak should sit near lambda = -pi^2 on the real axis
    peak_col = np.argmax(height[16])  # middle row ~ real axis
    xs = np.linspace(-12, 12, 32)
    assert abs(xs[peak_col] + math.pi**2) <= 1.0


def test_characteristic_at_shifted_center():
    problem = plain_problem(n_terms=20, m=200)
    center = -9.0 + 0.5j
    phi = characteristic_at(problem, center)
    assert phi.center == center
    config, samples, bcl, bcr, start = prepare(problem)
    assert start.lambda_star != center
    basis = shift_basis(SppsBasis(start, samples, config.n_terms), center)
    expect = assemble_characteristic(basis, bcl, bcr)
    assert np.array_equal(phi.coeffs, expect.coeffs)


def test_landscape_grid_floor():
    phi = CharacteristicPolynomial(np.array([1.0], dtype=complex), 0.0)
    with pytest.raises(InputError):
        landscape_of(phi, 0.0, 10.0, 8)


def test_landscape_peaks_near_eigenvalues_complex_layers():
    problem = layered_problem(complex_params=True, n_terms=60, m=3000)
    height, meta = landscape_of(characteristic_at(problem, 0.0), 0.0, 13.0, 129)
    from util import TABLE3

    xs = np.linspace(-13, 13, 129)
    ys = np.linspace(13, -13, 129)
    interior = height[1:-1, 1:-1]
    neighbours = np.stack([
        height[i : i + 127, j : j + 127]
        for i in range(3)
        for j in range(3)
        if not (i == 1 and j == 1)
    ])
    is_peak = interior > neighbours.max(axis=0)
    cell = xs[1] - xs[0]
    for lam in TABLE3:
        i = np.abs(ys - lam.imag).argmin()
        j = np.abs(xs - lam.real).argmin()
        window = is_peak[max(i - 2, 0) : i + 2, max(j - 2, 0) : j + 2]
        assert window.any(), f"no landscape peak within {2 * cell:.2f} of {lam}"


# ---------------------------------------------------------------------------
# Schedules and the sweep


def test_schedule_policies():
    always = SolverConfig(delta=0.5, policy="always_previous")
    assert _next_center(always, [1.0 + 1j], 0.0) == 1.5 + 1j
    fixed = SolverConfig(delta=0.5, policy="fixed_center")
    assert _next_center(fixed, [1.0], 0.25) == 0.25
    upper = SolverConfig(delta=0.5, policy="previous_if_upper_half")
    assert _next_center(upper, [1 + 1j], 0.0) == 1.5 + 1j
    # negative imaginary part: fall back to the one before
    assert _next_center(upper, [1 + 1j, 2 - 1j], 0.0) == 1.5 + 1j
    assert _next_center(upper, [2 - 1j], 0.0) == 2.5 - 1j  # nothing earlier to use
    # an imaginary part at roundoff level is a real eigenvalue: stay on it
    assert _next_center(upper, [1 + 1j, 2 - 1e-13j], 0.0) == 2.5 - 1e-13j


@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("policy", POLICIES)
def test_sweep_under_each_policy(bundled_problem, policy, delta):
    problem = with_overrides(
        bundled_problem("trivial"), policy=policy, delta=delta, max_eigenvalues=3
    )
    records = sweep_eigenvalues(problem)
    assert len(records) == 3
    for rec, k in zip(records, (3, 2, 1)):  # sorted by real part
        assert abs(rec.lam + (k * math.pi) ** 2) <= 1e-9
    # the walk from 0 meets -pi^2 first, then moves down the real axis
    found = [rec.lam for rec in reversed(records)]
    centers = [rec.center_used for rec in reversed(records)]
    assert centers[0] == 0
    for k in (1, 2):
        # the spectrum is real, so previous_if_upper_half stays on the last one
        if policy == "fixed_center":
            assert centers[k] == 0
        elif centers[k] == centers[k - 1]:
            # at delta = 0 one validation basis, built at the second of a
            # pair, accepts both: each carries the center that found it
            assert delta == 0 and (k == 1 or centers[k - 1] != centers[k - 2])
        else:
            # the validation basis, centred at candidate + delta for the
            # candidate that refined into the last eigenvalue, is the next
            # main basis
            assert abs(centers[k] - (found[k - 1] + delta)) <= 1e-12 * abs(found[k - 1])
    if policy != "fixed_center":
        # a walking policy pairs the first two at delta = 0, and only there
        assert (centers[1] == centers[0]) == (delta == 0)


def test_real_eigenvalues_of_a_real_problem_are_reported_real(bundled_problem):
    # the walk still moves from the refined values, roundoff imaginary parts
    # and all; only the records report them zeroed
    problem = with_overrides(bundled_problem("trivial"), delta=0.5, max_eigenvalues=4)
    records = sweep_eigenvalues(problem)
    assert [rec.lam.imag for rec in records] == [0.0] * 4
    for rec, k in zip(records, (4, 3, 2, 1)):
        assert abs(rec.lam.real + (k * math.pi) ** 2) <= 1e-9
    assert any(rec.center_used.imag != 0 for rec in records)
    # complex data: imaginary parts stay as found
    records = sweep_eigenvalues(layered_problem(complex_params=True, max_eigs=2))
    assert all(abs(rec.lam.imag) > 1e-3 for rec in records)


def test_delta_zero_walk_shifts_once_per_eigenvalue(bundled_problem, monkeypatch):
    # each validation basis is the next main basis: no re-expansion about
    # 1e-12 away from it.  A basis built at the second of a pair accepts
    # both, so the walk takes fewer shifts than eigenvalues
    problem = with_overrides(bundled_problem("trivial"), max_eigenvalues=6)
    shifts = []
    shift = spectral_module.shift_basis

    def recording(basis, new_center, *args, **kwargs):
        shifts.append(abs(complex(new_center) - basis.center))
        return shift(basis, new_center, *args, **kwargs)

    monkeypatch.setattr(spectral_module, "shift_basis", recording)
    records = sweep_eigenvalues(problem)
    assert len(records) == 6
    assert len(shifts) < len(records)
    # a pair's second member carries the center of its first
    paired = sum(a.center_used == b.center_used for a, b in zip(records, records[1:]))
    assert len(shifts) == len(records) - paired
    assert min(shifts) > 1.0


def test_walk_ahead_builds_once_per_eigenvalue(bundled_problem, monkeypatch):
    # delta != 0: each validation basis is built at candidate + delta and kept
    # as the next main basis, so no shift follows an accepted eigenvalue
    problem = with_overrides(bundled_problem("trivial"), delta=0.5, max_eigenvalues=6)
    rebuilt = []
    records, orders = _sweep_with_orders(problem, monkeypatch, rebuilt=rebuilt)
    first = _grown_from(orders, rebuilt, 0)
    assert len(records) == 6
    assert len(orders) - len(first) == len(records)


def test_complex_walk_continues_from_its_validation_bases(bundled_problem, monkeypatch):
    # every eigenvalue of example2_complex lies in the upper half plane, so
    # previous_if_upper_half continues from each one: record k is found from
    # the validation basis of record k - 1, centred at its candidate + delta,
    # and no shift follows an accepted eigenvalue
    problem = bundled_problem("example2_complex")
    config = problem.solver
    rebuilt = []
    records, orders = _sweep_with_orders(problem, monkeypatch, rebuilt=rebuilt)
    assert len(records) == config.max_eigenvalues
    assert len(orders) - len(_grown_from(orders, rebuilt, 0)) == len(records)
    for prev, rec in zip(records, records[1:]):
        assert abs(rec.center_used - (prev.lam + config.delta)) <= 1e-12 * (1.0 + abs(prev.lam))
    assert all(rec.validation_residual <= config.accept_threshold for rec in records)


def test_example1_validates_two_eigenvalues_per_build(bundled_problem, monkeypatch):
    # at delta = 0 a validation basis built at the second of a pair reads
    # the first from there: 8 power-set builds for 11 eigenvalues, where one
    # validation basis per eigenvalue took 13
    orders = []
    powers = basis_module.compute_formal_powers

    def counting(f, p, r, n_terms):
        orders.append(n_terms)
        return powers(f, p, r, n_terms)

    monkeypatch.setattr(basis_module, "compute_formal_powers", counting)
    records = sweep_eigenvalues(bundled_problem("example1"))
    assert len(records) == 11
    assert len(orders) <= 9
    rows = load_reference(fixture_path("table1.ref"))
    assert all(passed for *_, passed in match_reference([rec.lam for rec in records], rows))


def test_pair_partner_is_the_candidate_nearest_the_first(monkeypatch):
    # seed 6 scan07: pairing the nearest candidate with the second nearest to
    # the center can jump across the center, and it stalled this walk; the
    # candidate nearest the first keeps the order of a walk that validates
    # each eigenvalue alone, and its six eigenvalues
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    case = workloads.scan_cases(6)[7]
    assert case.label == "scan07"
    records = sweep_eigenvalues(parse_problem(case.text))
    # the records of the walk that validates each eigenvalue alone; they
    # are up to 1.1e-12 relative from the closed form's roots
    expected = [-1.4961401965529482, 2.8160404989325776, 9.06430971412579,
                20.280866007378865, 32.624952373122824, 47.74207254067405]
    assert len(records) == len(expected)
    for rec, ref in zip(records, expected):
        assert abs(rec.lam - ref) <= 1e-11 * max(1.0, abs(ref))
    assert case.check([rec.lam for rec in records]) is None
    # pairs were taken: both members carry the center that found them
    centers = [rec.center_used for rec in records]
    assert len(set(centers)) < len(centers)


# example4's records, float.hex of (Re lam, Im lam, Re center, Im center,
# validation residual, shift tail), from the walk that validates each
# eigenvalue alone
EXAMPLE4_ALONE = [
    ("0x1.1e5ded4a3786ep+4", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
     "0x1.1c1f857d643eap-51", "0x1.9550ba44e7211p-152"),
    ("0x1.88a41f3e70af2p+6", "0x0.0p+0", "0x1.1e5ded4a37879p+4", "-0x1.0000000000000p-303",
     "0x1.0e1a49f6a09acp-49", "0x1.c53f564ae53aap-67"),
    ("0x1.004565822015ep+8", "0x0.0p+0", "0x1.88a41f3e70ac3p+6", "-0x1.d8722ece3e61bp-41",
     "0x1.5d9d32fa6ac0cp-46", "0x1.1fec18aa6f80fp-82"),
    ("0x1.ed3389aea9c05p+8", "0x0.0p+0", "0x1.004565822017ep+8", "-0x1.f1c8b6b524d70p-40",
     "0x1.252ac58d93882p-51", "0x1.ab8ec7f3f9c06p-91"),
    ("0x1.9486ea0655850p+9", "0x0.0p+0", "0x1.ed3389aea9bfep+8", "-0x1.a1b43aafda492p-38",
     "0x1.0b7f8622e6ec6p-46", "0x1.49fb8aaae4692p-96"),
    ("0x1.2cf67a3270282p+10", "0x0.0p+0", "0x1.9486ea06558bfp+9", "0x1.5babca476a46ep-36",
     "0x1.e5292b23c2ea7p-45", "0x1.e4fc10766ba45p-98"),
]


def test_pair_out_of_reach_falls_back_to_validation_alone(bundled_problem, monkeypatch):
    # with every pair's far read forced out of reach, each pair is dropped
    # after its build and its first candidate validated alone, from the
    # rebuilt main basis: the walk that validates each eigenvalue alone, bit
    # for bit
    counting, forced = spectral_module._counting_terms, []

    def out_of_reach(phi, reach):
        mask = counting(phi, reach)
        if sys._getframe(1).f_code.co_name == "_validate_pair":
            forced.append(reach)
            mask = np.ones_like(mask)
        return mask

    monkeypatch.setattr(spectral_module, "_counting_terms", out_of_reach)
    records = sweep_eigenvalues(bundled_problem("example4"))
    assert forced
    assert _record_hexes(records) == EXAMPLE4_ALONE


def test_three_piece_walk_reaches_six_eigenvalues():
    # the re-expansion about 11.98 used to fail its check and end this walk
    # after three eigenvalues
    problem = three_piece_problem(max_eigs=6)
    records = sweep_eigenvalues(problem)
    assert len(records) == 6
    lams = [rec.lam.real for rec in records]
    assert lams == sorted(lams) and min(np.diff(lams)) > 1.0
    for rec in records:
        oracle = refine_root(problem, rec.lam, steps_per_piece=2000)
        assert abs(rec.lam - oracle) <= 1e-7 * (1.0 + abs(oracle))


def test_scan06_of_seed_1_returns_six_eigenvalues(monkeypatch):
    # a sweep that stalled while each f was one of the five stock pairs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    case = workloads.scan_cases(1)[6]
    assert case.label == "scan06"
    records = sweep_eigenvalues(parse_problem(case.text))
    assert len(records) == 6
    assert case.check([rec.lam for rec in records]) is None


def test_stalled_sweep_carries_its_records(bundled_problem):
    # with delta = 60 the walk accepts five eigenvalues, then stalls
    problem = with_overrides(bundled_problem("trivial"), delta=60.0, max_eigenvalues=6)
    with pytest.raises(SweepStalledError, match="three consecutive") as info:
        sweep_eigenvalues(problem)
    records = info.value.records
    assert [rec.index for rec in records] == [0, 1, 2, 3, 4]
    for rec, k in zip(records, (5, 4, 3, 2, 1)):  # sorted by real part
        assert abs(rec.lam + (k * math.pi) ** 2) <= 1e-9 * (k * math.pi) ** 2
    # a stall before any eigenvalue carries none
    with pytest.raises(SweepStalledError) as info:
        sweep_eigenvalues(plain_problem(n_terms=2, m=200))
    assert list(info.value.records) == []


def _lower_half_trivial(tmp_path):
    """trivial.prob with r = 1 - i: every eigenvalue lies in the lower half plane."""
    text = fixture_path("trivial.prob").read_text(encoding="utf-8")
    path = tmp_path / "lower_half.prob"
    path.write_text(text.replace('r = "1"', 'r = "1-1i"', 1), encoding="utf-8")
    return path


def test_failed_shift_raises_with_the_records_the_cli_prints(tmp_path, capsys):
    # under previous_if_upper_half the walk shifts back from each lower-half
    # validation basis; on 200 subintervals the third such shift fails
    path = _lower_half_trivial(tmp_path)
    problem = with_overrides(
        problems_module.load_problem(path),
        policy="previous_if_upper_half", mesh_m=200, max_eigenvalues=6,
    )
    with pytest.raises(ShiftFailureError, match="lost accuracy") as info:
        sweep_eigenvalues(problem)
    flags = ["--policy", "previous_if_upper_half", "--mesh", "200", "--max-eigs", "6"]
    assert cli_module.main(["solve", str(path), *flags]) == 3
    printed = capsys.readouterr().out.splitlines()[2:]
    assert len(printed) == 3
    assert [
        f"{rec.index},{rec.lam.real:.16g},{rec.lam.imag:.16g},{rec.validation_residual:.16g},"
        f"{problems_module.format_complex(rec.center_used)}"
        for rec in info.value.records
    ] == printed


def _sweep_counting_reads(problem, monkeypatch):
    """Records of the sweep, failing if a polynomial is solved twice or a
    basis is assembled twice at one order."""
    assemble, solve = spectral_module.assemble_characteristic, spectral_module.roots_of
    solved = set()

    def assemble_once(basis, bc_left, bc_right):
        orders = basis.__dict__.setdefault("assembled_orders", [])  # per handle: no id reuse
        assert basis.n_terms not in orders
        orders.append(basis.n_terms)
        return assemble(basis, bc_left, bc_right)

    def solve_once(phi):
        key = phi.coeffs.tobytes()
        assert key not in solved
        solved.add(key)
        return solve(phi)

    with monkeypatch.context() as m:
        m.setattr(spectral_module, "assemble_characteristic", assemble_once)
        m.setattr(spectral_module, "roots_of", solve_once)
        return sweep_eigenvalues(problem), len(solved)


@pytest.mark.parametrize(
    "name, policy",
    [("trivial", None), ("example4", None), ("trivial", "fixed_center")],
    ids=["trivial", "example4", "trivial-fixed_center"],
)
def test_each_polynomial_is_assembled_and_solved_once(bundled_problem, monkeypatch, name, policy):
    problem = bundled_problem(name)
    assert problem.solver.delta == 0
    if policy is not None:
        problem = with_overrides(problem, policy=policy)
    records, solved = _sweep_counting_reads(problem, monkeypatch)
    assert len(records) == problem.solver.max_eigenvalues
    # the start basis's polynomials as it grows, then one per validation
    # basis, which accepts one eigenvalue or, at delta = 0, a pair
    assert solved >= 1 + (len(records) + 1) // 2


def test_fixed_center_validation_leaves_the_main_basis_order(monkeypatch):
    # scan_small seed 2 scan12 under fixed_center: the main basis grows, but
    # only in the sweep loop; a validation shift reads it at its own order
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    case = workloads.scan_cases(2)[12]
    assert case.label == "scan12"
    problem = with_overrides(parse_problem(case.text), policy="fixed_center")
    assemble, shift = spectral_module.assemble_characteristic, spectral_module.shift_basis
    main_orders, source_orders = [], []

    def recording_assemble(basis, bc_left, bc_right):
        if sys._getframe(1).f_code.co_name == "sweep_eigenvalues":
            main_orders.append(basis.n_terms)
        return assemble(basis, bc_left, bc_right)

    def recording_shift(basis, *args, **kwargs):
        before = basis.n_terms
        try:
            return shift(basis, *args, **kwargs)
        finally:
            source_orders.append((before, basis.n_terms))

    monkeypatch.setattr(spectral_module, "assemble_characteristic", recording_assemble)
    monkeypatch.setattr(spectral_module, "shift_basis", recording_shift)
    with pytest.raises(SweepStalledError) as info:
        sweep_eigenvalues(problem)
    assert source_orders and all(before == after for before, after in source_orders)
    # reference records, from a walk whose validation shifts still grew the main basis
    expected = [-0.8448383220219858, 6.639340623396209, 15.874219735332735,
                28.90931033141748, 46.25125953562216]
    got = [rec.lam for rec in info.value.records]
    assert len(got) == len(expected)
    for lam, ref in zip(got, expected):
        assert abs(lam - ref) <= 1e-12 * abs(ref)
    # the main basis grows in the loop, and each order is assembled once
    assert len(main_orders) > 1 and len(main_orders) == len(set(main_orders))


def test_ahead_validation_reads_its_main_basis_within_reach(monkeypatch):
    # scan_small seed 1 scan22 at delta = 5: the first candidate, about 1.21,
    # is validated 6.21 from the main basis's center.  The main basis doubles
    # until its last coefficient no longer counts there too, so every shift
    # reads a tail below EXACT_TAIL (read at 12 terms, that tail is 5.7e-11
    # and moves the first eigenvalue by 3.4e-11)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    case = workloads.scan_cases(1)[22]
    assert case.label == "scan22"
    shift, tails = spectral_module.shift_basis, []

    def recording_shift(basis, *args, **kwargs):
        shifted = shift(basis, *args, **kwargs)
        tails.append(shifted.shift_tail)
        return shifted

    monkeypatch.setattr(spectral_module, "shift_basis", recording_shift)
    records = sweep_eigenvalues(with_overrides(parse_problem(case.text), delta=5.0))
    assert len(records) == 6 and max(tails) <= EXACT_TAIL
    assert abs(records[0].lam - 1.2109055908468456) <= 1e-12 * 1.2109055908468456
    assert case.check([rec.lam for rec in records]) is None


def test_lower_half_walk_stays_on_its_main_basis(monkeypatch):
    # seed 1 scan03 of tools/outcomes.py --complex: every eigenvalue lies in
    # the lower half, so previous_if_upper_half falls back one eigenvalue.
    # For the third that is the one the main basis was built at: the walk
    # stays on it.  From then on each validation basis is built at main
    # order and shifted onward without growing first (validating at
    # validation order, then growing and shifting, took 18 builds).
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import outcomes

    case = outcomes.complex_cases(1)[3]
    assert case.label == "scan03"
    problem = with_overrides(parse_problem(case.text), policy="previous_if_upper_half")
    power_builds = track_power_sets(monkeypatch)
    records = sweep_eigenvalues(problem)
    assert len(records) == 6 and all(rec.lam.imag < 0 for rec in records)
    assert case.check([rec.lam for rec in records]) is None
    assert len(power_builds) == 14
    # the first basis grows twice; no shift onward grows its source
    assert [how for _, _, how in power_builds].count("grow") == 2
    assert records[2].center_used == records[1].center_used


def test_upper_half_policy_stays_on_real_eigenvalue(bundled_problem):
    # -4 pi^2 comes out with an imaginary part of about -1.9e-13: roundoff,
    # so the third eigenvalue is found from -4 pi^2, not from -pi^2
    problem = with_overrides(
        bundled_problem("trivial"), policy="previous_if_upper_half", delta=0.0, max_eigenvalues=3
    )
    records = sweep_eigenvalues(problem)
    third = records[0]  # sorted by real part
    assert abs(third.lam + 9 * math.pi**2) <= 1e-9
    assert abs(third.center_used + 4 * math.pi**2) <= 1e-9


@pytest.mark.parametrize("upper_first", [False, True])
def test_conjugate_pair_sorts_lower_half_first(upper_first):
    # example3's pair -0.2093 -+ 0.7567i with real parts one ulp apart, in
    # each direction: the last bit must not decide which member comes first
    re = -0.20931
    upper_re = math.nextafter(re, -math.inf) if upper_first else math.nextafter(re, math.inf)
    lower = EigenvalueRecord(0, complex(re, -0.7567), 0j, 0.0, 0.0)
    upper = EigenvalueRecord(1, complex(upper_re, 0.7567), 0j, 0.0, 0.0)
    far = EigenvalueRecord(2, complex(-5.0, 0.0), 0j, 0.0, 0.0)
    for records in ([lower, upper, far], [upper, far, lower]):
        ordered = _sorted_by_real_part(records)
        assert [rec.lam for rec in ordered] == [far.lam, lower.lam, upper.lam]
        assert [rec.index for rec in ordered] == [0, 1, 2]


@pytest.mark.parametrize("budget", [0, -1])
def test_sweep_nonpositive_budget_rejected(budget):
    with pytest.raises(ProblemFormatError, match="max_eigenvalues must be at least 1"):
        with_overrides(plain_problem(), max_eigenvalues=budget)


def test_sweep_plain_problem_sorted_and_deduped():
    records = sweep_eigenvalues(plain_problem(n_terms=25, m=1000))
    assert [rec.index for rec in records] == [0, 1]
    lams = [rec.lam for rec in records]
    assert lams[0].real < lams[1].real  # ascending for a real problem
    assert lams[1].real == pytest.approx(-math.pi**2, abs=1e-10)
    assert lams[0].real == pytest.approx(-4 * math.pi**2, abs=1e-9)
    for rec in records:
        assert rec.validation_residual <= 1e-8
    assert abs(lams[0] - lams[1]) > 1e-6 * (1 + abs(lams[0]))


def test_sweep_step_problem_matches_reference(step_setup):
    problem = step_setup[0]
    records = sweep_eigenvalues(problem)
    assert len(records) == 5
    for rec, ref in zip(records, TABLE1[:5]):
        assert abs(rec.lam - ref) <= 1e-9


@pytest.mark.parametrize(
    "n_terms, message",
    [
        (2, "no further candidate root could be validated"),
        (3, "three consecutive candidates failed validation"),
    ],
    ids=["2", "3"],
)
def test_sweep_stalls_with_tiny_truncation(n_terms, message):
    # so short a series cannot reach the second eigenvalue of the plain problem
    problem = with_overrides(plain_problem(n_terms=n_terms, m=200), max_eigenvalues=3)
    with pytest.raises(SweepStalledError, match=message):
        sweep_eigenvalues(problem)


def test_stall_message_advises_a_finer_mesh_first(bundled_problem):
    # a finer mesh mends most stalls; at delta != 0 a smaller delta may too
    problem = with_overrides(plain_problem(n_terms=3, m=200), max_eigenvalues=3)
    with pytest.raises(SweepStalledError) as info:
        sweep_eigenvalues(problem)
    assert str(info.value).endswith("; try a finer mesh first, then more series terms")
    problem = with_overrides(bundled_problem("trivial"), delta=60.0, max_eigenvalues=6)
    with pytest.raises(SweepStalledError) as info:
        sweep_eigenvalues(problem)
    assert str(info.value).endswith(
        "; try a finer mesh first, then more series terms, or a smaller delta"
    )


def test_fixed_center_stall_names_the_long_shift(monkeypatch):
    # seed 1 scan00 under fixed_center: the shifts from the fixed center to
    # the next candidates fail, and a finer mesh or more terms do not help
    # (10 of seed 1's 30 cases stall either way); a walking policy does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    case = workloads.scan_cases(1)[0]
    assert case.label == "scan00"
    problem = with_overrides(parse_problem(case.text), policy="fixed_center")
    with pytest.raises(SweepStalledError, match="three consecutive") as info:
        sweep_eigenvalues(problem)
    message = str(info.value)
    assert "finer mesh" not in message
    shifts = re.search(r"series ([\d.]+) to ([\d.]+) from it; try a walking policy", message)
    assert shifts and 1.0 < float(shifts[1]) <= float(shifts[2])
    assert len(info.value.records) == 5
    assert case.check([rec.lam for rec in info.value.records]) is None
    # the same case walks to its six eigenvalues
    records = sweep_eigenvalues(with_overrides(problem, policy="always_previous"))
    assert len(records) == 6 and case.check([rec.lam for rec in records]) is None


def test_overflowed_validation_polynomial_fails_validation(bundled_problem, monkeypatch):
    # an infinite coefficient gives an infinite scale, so |c0| / scale would read 0
    assemble = spectral_module.assemble_characteristic

    def overflowing(basis, bc_left, bc_right):
        phi = assemble(basis, bc_left, bc_right)
        if sys._getframe(1).f_code.co_name != "_validation_basis":
            return phi
        coeffs = phi.coeffs.copy()
        coeffs[-1] = np.inf
        return CharacteristicPolynomial(coeffs, phi.center)

    monkeypatch.setattr(spectral_module, "assemble_characteristic", overflowing)
    with pytest.raises(SweepStalledError, match="three consecutive") as info:
        sweep_eigenvalues(bundled_problem("trivial"))
    assert "last residual 0" not in str(info.value)


def test_sweep_builds_verifies_and_evaluates_each_basis_once(bundled_problem, monkeypatch):
    problem = bundled_problem("trivial")
    assert problem.solver.delta == 0
    config, _, _, _, start = prepare(problem)

    calls = {"shift_basis": 0, "evaluate_solution": 0, "verify_particular": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        for module in (basis_module, problems_module, spectral_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    power_builds = track_power_sets(monkeypatch)

    records = sweep_eigenvalues(problem, config, particular=start)
    assert len(records) == 2
    # one new basis and one evaluation per shift: the verified start is
    # built on directly, and a shift evaluates both solutions in one call
    assert sum(how == "new" for _, _, how in power_builds[1:]) == calls["shift_basis"]
    assert calls["evaluate_solution"] == calls["shift_basis"]
    # the start basis grows twice (6, 12 and 24 terms), then one validation
    # shift for both eigenvalues: at delta = 0 it is built at the second,
    # reads the first from there, and is not re-expanded at a refined value
    assert calls["shift_basis"] == len(records) - 1 == 1
    assert [(n, how) for n, _, how in power_builds[:3]] == [(6, "new"), (12, "grow"), (24, "grow")]
    assert [how for _, _, how in power_builds[3:]] == ["new"] * calls["shift_basis"]
    # each particular solution is verified once: the start's (in prepare),
    # and each shift's
    assert calls["verify_particular"] == 1 + calls["shift_basis"]
    # every shift and growth frees the set it starts from before it builds
    assert all(alive == [] for _, alive, _ in power_builds)


def _record_start_checks(monkeypatch):
    """The particular solutions ``verify_particular`` checks, and the starts
    ``prepare`` hands to the sweep, ``characteristic_at`` and ``spps powers``.

    Checks are counted through both bindings of ``verify_particular``, the
    one in ``basis`` and the one in ``problems``.
    """
    checked, starts = [], []
    verify, prepare_start = basis_module.verify_particular, problems_module.prepare

    def recording_verify(samples, ps):
        checked.append(ps)
        return verify(samples, ps)

    def recording_prepare(*args, **kwargs):
        prepared = prepare_start(*args, **kwargs)
        starts.append(prepared[4])
        return prepared

    for module in (basis_module, problems_module):
        monkeypatch.setattr(module, "verify_particular", recording_verify)
    for module in (spectral_module, cli_module):
        monkeypatch.setattr(module, "prepare", recording_prepare)
    return checked, starts


@pytest.mark.parametrize(
    "run",
    [
        lambda load: sweep_eigenvalues(load("trivial")),
        lambda load: sweep_eigenvalues(three_piece_problem()),
        lambda load: characteristic_at(load("trivial"), 0),
        lambda load: cli_module.main(
            ["powers", str(fixture_path("trivial.prob")), "--n", "3", "--at", "0.5"]
        ),
    ],
    ids=["sweep-file-f", "sweep-seeded", "characteristic_at", "cli-powers"],
)
def test_start_is_verified_once(bundled_problem, monkeypatch, capsys, run):
    checked, starts = _record_start_checks(monkeypatch)
    run(bundled_problem)
    assert len(starts) == 1
    assert sum(ps is starts[0] for ps in checked) == 1


def test_handed_in_start_failing_its_equation_is_rejected(bundled_problem, monkeypatch):
    problem = bundled_problem("trivial")
    config, _, _, _, start = prepare(problem)
    # f = 1 solves (p f')' + q f = 0 here, not the lambda* = 1 equation
    bad = ParticularSolution(f=start.f, pf_prime=start.pf_prime, lambda_star=1.0)
    power_builds = track_power_sets(monkeypatch)
    with pytest.raises(ParticularResidualError):
        sweep_eigenvalues(problem, config, particular=bad)
    assert power_builds == []


def test_handed_in_start_nearly_vanishing_is_rejected(monkeypatch):
    problem = plain_problem(m=200)
    config, samples, _, _, _ = prepare(problem)
    xs = samples.mesh.xs
    # f = x - c solves u'' = 0; c sits 1e-13 past a node, so no node is a zero
    f = (xs - (xs[100] + 1e-13)).astype(np.complex128)
    assert np.abs(f).min() <= 1e-10 * np.abs(f).max() and np.all(f != 0)
    near_zero = ParticularSolution(
        f=SampledFunction(samples.mesh, f),
        pf_prime=constant_function(samples.mesh, 1.0),
        lambda_star=0.0,
    )
    power_builds = track_power_sets(monkeypatch)
    with pytest.raises(NonvanishingError):
        sweep_eigenvalues(problem, config, particular=near_zero)
    assert power_builds == []


@pytest.mark.parametrize("mu", [0.3, 1 + 0.5j])
def test_endpoint_series_agree_with_the_mesh_evaluation(mu):
    _, samples, _, _, start = prepare(step_potential_problem(n_terms=12, m=400))
    basis = SppsBasis(start, samples, 12)
    at_a, at_b = basis.endpoint_series()
    on_mesh = evaluate_solution(basis, basis.center + mu)[:4]
    for series, values in zip(at_b, on_mesh):
        summed = np.polynomial.polynomial.polyval(mu, series)
        assert abs(summed - values[-1]) <= 1e-13 * abs(values[-1])
    # the powers are anchored at a: the series there are their constant terms
    assert [series.tolist() for series in at_a] == [[values[0]] for values in on_mesh]


def test_characteristic_at_frees_the_source_before_the_shift(bundled_problem, monkeypatch):
    problem = bundled_problem("trivial")
    power_builds = track_power_sets(monkeypatch)
    phi = characteristic_at(problem, center=5)
    assert phi.center == 5
    # the start basis at full order, then the shifted one, never both alive
    n_full = problem.solver.n_terms
    assert power_builds == [(n_full, [], "new"), (n_full, [], "new")]


# scan_small seed 2, case scan27 (perfbench/workloads.py)
SCAN27 = """\
[interval]
a = -1
b = 1

[piece]
from = -1.0
to = -0.291381
p = "-1.257"
q = "-4.1086"
r = "0.5615"

[piece]
from = -0.291381
to = 0.580115
p = "-1.9244"
q = "0.613"
r = "1.2839"

[piece]
from = 0.580115
to = 1.0
p = "-0.5919"
q = "-3.8809"
r = "1.5131"

[bc_left]
alpha = 0.0
beta = 1.0
derivative = p_u_prime

[bc_right]
alpha = 0.0
beta = 1.0
derivative = p_u_prime

[solver]
max_eigenvalues = 6
"""


def _record_hexes(records):
    return [
        tuple(float(v).hex() for v in (
            rec.lam.real, rec.lam.imag, rec.center_used.real, rec.center_used.imag,
            rec.validation_residual, rec.tail_indicator,
        ))
        for rec in records
    ]


def _sweep_keeping_rows(problem, config, start, monkeypatch):
    """Records of a sweep in which no basis ever frees its rows."""
    with monkeypatch.context() as m:
        m.setattr(SppsBasis, "_release", lambda basis: None)
        return sweep_eigenvalues(problem, config, particular=start)


def test_failed_validation_rebuilds_the_main_basis_alone(monkeypatch):
    # no candidate of scan27 fails its validation, so the fourth validation
    # polynomial is made to fail: its constant term is set to its scale
    problem = parse_problem(SCAN27)
    config, _, _, _, start = prepare(problem)
    assemble, shift = spectral_module.assemble_characteristic, spectral_module.shift_basis
    validations, sources = [], []

    def failing_fourth(basis, bc_left, bc_right):
        phi = assemble(basis, bc_left, bc_right)
        # a validation basis may be read twice (after growing): count centers
        validating = sys._getframe(1).f_code.co_name == "_validation_basis"
        if validating and basis.center not in validations:
            validations.append(basis.center)
            if len(validations) == 4:
                return CharacteristicPolynomial(np.r_[phi.scale, phi.coeffs[1:]], phi.center)
        return phi

    def recording_shift(basis, *args, **kwargs):
        shifted = shift(basis, *args, **kwargs)
        sources.append((id(basis), basis.n_terms))  # no reference: it would keep rows alive
        return shifted

    monkeypatch.setattr(spectral_module, "assemble_characteristic", failing_fourth)
    monkeypatch.setattr(spectral_module, "shift_basis", recording_shift)
    reference = _sweep_keeping_rows(problem, config, start, monkeypatch)
    validations.clear()
    sources.clear()
    power_builds = track_power_sets(monkeypatch)
    records = sweep_eigenvalues(problem, config, particular=start)
    # the main basis released its rows for the failed validation and
    # rebuilds them, once, at its own order for the next candidate
    failed_source, n_main = sources[3]
    assert sources[4][0] == failed_source
    assert [n for n, _, how in power_builds if how == "reread"] == [n_main]
    assert all(alive == [] for _, alive, _ in power_builds)
    # the rebuilt rows are the rows it freed: the records of a sweep that
    # keeps every basis's rows alive, bit for bit
    assert _record_hexes(records) == _record_hexes(reference)


# scan_small seed 1, case scan19 (perfbench/workloads.py)
SCAN19 = """\
[interval]
a = -1
b = 1

[piece]
from = -1.0
to = -0.359229
p = "-1.8701"
q = "4.6981"
r = "1.9547"

[piece]
from = -0.359229
to = 0.195804
p = "-0.667"
q = "-2.8481"
r = "1.4267"

[piece]
from = 0.195804
to = 0.671037
p = "-1.9699"
q = "0.4291"
r = "1.5323"

[piece]
from = 0.671037
to = 1.0
p = "-1.4928"
q = "-2.4091"
r = "1.3124"

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


def test_failed_shift_check_keeps_the_main_basis_rows(monkeypatch):
    # no shift of scan19 fails its check, so the third check of a recentred
    # solution is made to fail
    problem = parse_problem(SCAN19)
    config, _, _, _, start = prepare(problem)
    failed, checks = [], []
    shift, verify = spectral_module.shift_basis, basis_module.verify_particular

    def recording_shift(*args, **kwargs):
        try:
            return shift(*args, **kwargs)
        except ShiftFailureError as exc:
            failed.append(exc)
            raise

    def failing_third(samples, ps):
        checks.append(ps)
        if len(checks) == 3:
            raise ParticularResidualError("forced failure")
        return verify(samples, ps)

    monkeypatch.setattr(spectral_module, "shift_basis", recording_shift)
    monkeypatch.setattr(basis_module, "verify_particular", failing_third)
    reference = _sweep_keeping_rows(problem, config, start, monkeypatch)
    checks.clear()
    failed.clear()
    power_builds = track_power_sets(monkeypatch)
    records = sweep_eigenvalues(problem, config, particular=start)
    # the check ran while the main basis still held its rows, so the next
    # candidate reads them without a rebuild
    assert len(failed) == 1
    assert [how for _, _, how in power_builds if how == "reread"] == []
    assert all(alive == [] for _, alive, _ in power_builds)
    assert len(records) == 6
    assert _record_hexes(records) == _record_hexes(reference)


def test_trust_radius_monotone_in_tolerance():
    phi = CharacteristicPolynomial(np.array([1.0, 0.5, 0.25, 1e-20], dtype=complex), 0.0)
    assert phi.trust_radius(1e-8) <= phi.trust_radius(1e-4)


def _sweep_with_orders(problem, monkeypatch, alive_orders=None, rebuilt=None):
    """Records of the sweep and the n_terms of every power build, in order.

    The starting solution is prepared first, so a seed build is not counted.
    ``alive_orders``, when given, receives for every build the orders of the
    power sets still alive at its start.  ``rebuilt``, when given, receives
    the indices of the builds made by ``SppsBasis.grow`` (growth, stall and
    full-order rebuilds) rather than by a new basis or a reread.
    """
    config, _, _, _, start = prepare(problem)
    with monkeypatch.context() as m:
        builds = track_power_sets(m)
        records = sweep_eigenvalues(problem, config, particular=start)
    if alive_orders is not None:
        alive_orders.extend(alive for _, alive, _ in builds)
    if rebuilt is not None:
        rebuilt.extend(i for i, (_, _, how) in enumerate(builds) if how == "grow")
    return records, [n for n, _, _ in builds]


def _grown_from(orders, rebuilt, start):
    """Orders of the build at ``start`` and of the sweep's rebuilds right after it."""
    end = start + 1
    while end in rebuilt:
        end += 1
    return orders[start:end]


def _assert_same_records(records, reference):
    assert len(records) == len(reference)
    for rec, ref in zip(records, reference):
        for got, want in (
            (rec.lam.real, ref.lam.real),
            (rec.center_used.real, ref.center_used.real),
            (rec.validation_residual, ref.validation_residual),
            (rec.tail_indicator, ref.tail_indicator),
        ):
            assert float(got).hex() == float(want).hex()
        # imaginary parts of real problems are roundoff and may move in their last bits
        assert abs(rec.lam.imag - ref.lam.imag) <= 1e-20
        assert abs(rec.center_used.imag - ref.center_used.imag) <= 1e-20


def _assert_close_eigenvalues(records, reference):
    assert len(records) == len(reference)
    for rec, ref in zip(records, reference):
        assert abs(rec.lam - ref.lam) <= 1e-12 * abs(ref.lam)


def _assert_close_records(records, reference):
    _assert_close_eigenvalues(records, reference)
    for rec, ref in zip(records, reference):
        assert abs(rec.center_used - ref.center_used) <= 1e-12 * max(1.0, abs(ref.center_used))


def _full_order(phi, config, *args):
    return config.n_terms


def _first_main_order(n_first):
    """A ``_main_order`` that builds the first main basis at ``n_first`` terms."""
    return lambda phi, config, *args: n_first if phi is None else _main_order(phi, config, *args)


@pytest.mark.parametrize("name", ["trivial", "three_pieces"])
def test_validation_is_short_and_matches_full_order(bundled_problem, monkeypatch, name):
    problem = bundled_problem("trivial") if name == "trivial" else three_piece_problem()
    n_full = problem.solver.n_terms

    rebuilt = []
    records, orders = _sweep_with_orders(problem, monkeypatch, rebuilt=rebuilt)
    # the start basis grows from 6 terms until its nearest candidate no longer
    # reads its last coefficient; then one build per validation basis (delta
    # = 0): a basis the walk continues from, or one that accepts a pair, is
    # built at main order; the first pair takes one build for two eigenvalues
    grown = _grown_from(orders, rebuilt, 0)
    assert grown == [6, 12, 24]
    assert rebuilt == [1, 2]
    walk = orders[len(grown) :]
    assert len(walk) == len(records) - 1
    assert all(n <= n_full for n in walk)
    if name == "three_pieces":
        # the third eigenvalue, validated alone and kept by nothing, is short
        assert walk[-1] < n_full

    # under fixed_center no validation basis is kept: each one is short, and
    # the main basis, at full order, rereads its rows after each.  The last
    # two eigenvalues are a pair, validated from one basis at the last
    monkeypatch.setattr(spectral_module, "_main_order", _full_order)
    fixed = with_overrides(problem, policy="fixed_center")
    records, orders = _sweep_with_orders(problem, monkeypatch)
    assert all(n == n_full for n in orders[:-1]) and orders[-1] < n_full
    fixed_records, fixed_orders = _sweep_with_orders(fixed, monkeypatch)
    assert len(fixed_records) == len(records)
    assert len(fixed_orders) == 2 * (len(fixed_records) - 1)
    assert all(n == n_full for n in fixed_orders[0::2])
    assert all(n < n_full for n in fixed_orders[1::2])

    # the short validation bases give the records of full-order validation
    # bit for bit
    monkeypatch.setattr(spectral_module, "_validation_order", _full_order)
    reference, ref_orders = _sweep_with_orders(problem, monkeypatch)
    assert set(ref_orders) == {n_full}
    _assert_same_records(records, reference)
    fixed_reference, fixed_ref_orders = _sweep_with_orders(fixed, monkeypatch)
    assert set(fixed_ref_orders) == {n_full}
    _assert_same_records(fixed_records, fixed_reference)

    # order 1 is never complete: every short validation is rebuilt at full
    # order (one basis for the last two eigenvalues)
    monkeypatch.setattr(spectral_module, "_validation_order", lambda phi, config, *reach: 1)
    forced, forced_orders = _sweep_with_orders(fixed, monkeypatch)
    shorts = [i for i, n in enumerate(forced_orders) if n == 1]
    assert len(shorts) == len(forced) - 1 and all(forced_orders[i + 1] == n_full for i in shorts)
    _assert_same_records(forced, fixed_reference)


@pytest.mark.parametrize("name", ["trivial", "three_pieces"])
def test_main_order_forced_full_matches_default(bundled_problem, monkeypatch, name):
    problem = bundled_problem("trivial") if name == "trivial" else three_piece_problem()
    n_full = problem.solver.n_terms

    rebuilt = []
    records, orders = _sweep_with_orders(problem, monkeypatch, rebuilt=rebuilt)
    grown = _grown_from(orders, rebuilt, 0)
    assert grown[-1] < n_full  # the first main basis stops short of full order
    if name == "three_pieces":
        # and so does a later one: a kept validation basis (trivial's two
        # eigenvalues are a pair, whose basis ends the walk)
        assert any(n < n_full for n in orders[len(grown) : -1])
    monkeypatch.setattr(spectral_module, "_main_order", _full_order)
    reference, ref_orders = _sweep_with_orders(problem, monkeypatch)
    assert all(n == n_full for n in ref_orders[:-1])
    _assert_close_records(records, reference)


@pytest.mark.parametrize("n_main", [1, 3])
@pytest.mark.parametrize("name", ["trivial", "three_pieces"])
def test_short_main_basis_rebuilt_at_full_order(bundled_problem, monkeypatch, name, n_main):
    # each later main basis is a validation basis built ahead, at candidate +
    # delta, at _main_order: forced this short, its last coefficient still
    # counts, so it grows (doubling its order, or to full order) before its
    # candidate is accepted
    problem = bundled_problem("trivial") if name == "trivial" else three_piece_problem()
    problem = with_overrides(problem, delta=0.5)
    n_full = problem.solver.n_terms

    monkeypatch.setattr(spectral_module, "_main_order", _full_order)
    reference, _ = _sweep_with_orders(problem, monkeypatch)
    steps = []  # the center of each polynomial that orders a later main basis

    def short_order(phi, config, lam):
        if phi is None:
            return n_full
        if phi.center not in steps:
            steps.append(phi.center)
        return n_main

    monkeypatch.setattr(spectral_module, "_main_order", short_order)
    alive_orders, rebuilt = [], []
    forced, forced_orders = _sweep_with_orders(problem, monkeypatch, alive_orders, rebuilt)
    shorts = [i for i, n in enumerate(forced_orders) if n == n_main]
    assert len(shorts) == len(forced) - 1 == len(steps)
    final_orders = []
    for i in shorts:
        grown = _grown_from(forced_orders, rebuilt, i)
        assert len(grown) > 1
        assert all(new in (min(n_full, 2 * old), n_full) for old, new in zip(grown, grown[1:]))
        # the short rows are freed before each growth
        assert all(alive_orders[j] == [] for j in range(i + 1, i + len(grown)))
        final_orders.append(grown[-1])
    if n_main == 1 and name == "trivial":
        assert set(final_orders) == {n_full}
    _assert_close_records(forced, reference)
    # a grown basis is the basis built at its final order: a sweep that builds
    # each later main basis at that order directly gives the same records
    final = dict(zip(steps, final_orders))
    monkeypatch.setattr(
        spectral_module,
        "_main_order",
        lambda phi, config, lam: n_full if phi is None else final[phi.center],
    )
    direct, _ = _sweep_with_orders(problem, monkeypatch)
    _assert_same_records(forced, direct)


def test_first_main_basis_grows_by_doubling(bundled_problem, monkeypatch):
    # the start basis of trivial (N = 25) is built at 2 + _MAIN_MARGIN terms
    # and doubled while its nearest candidate reads its last coefficient
    alive_orders, rebuilt = [], []
    _, orders = _sweep_with_orders(bundled_problem("trivial"), monkeypatch, alive_orders, rebuilt)
    assert _grown_from(orders, rebuilt, 0) == [6, 12, 24]
    assert alive_orders[:3] == [[], [], []]

    problem = bundled_problem("example4")
    assert problem.solver.n_terms == 40
    records, orders = _sweep_with_orders(problem, monkeypatch)
    assert len(records) == problem.solver.max_eigenvalues
    assert 40 not in orders


@pytest.mark.parametrize("name", ["trivial", "three_pieces"])
def test_first_main_order_forced_full_matches_default(bundled_problem, monkeypatch, name):
    problem = bundled_problem("trivial") if name == "trivial" else three_piece_problem()
    n_full = problem.solver.n_terms

    records, orders = _sweep_with_orders(problem, monkeypatch)
    monkeypatch.setattr(spectral_module, "_main_order", _first_main_order(n_full))
    reference, ref_orders = _sweep_with_orders(problem, monkeypatch)
    assert orders[0] < n_full == ref_orders[0]
    _assert_close_records(records, reference)


@pytest.mark.parametrize("n_first", [0, 1])
@pytest.mark.parametrize("name", ["trivial", "three_pieces", "step"])
def test_short_first_main_basis_grows(bundled_problem, monkeypatch, name, n_first):
    problem = {
        "trivial": lambda: bundled_problem("trivial"),
        "three_pieces": three_piece_problem,
        # lambda-dependent conditions give an order-0 basis roots to grow from
        "step": step_potential_problem,
    }[name]()
    n_full = problem.solver.n_terms

    monkeypatch.setattr(spectral_module, "_main_order", _first_main_order(n_full))
    reference, _ = _sweep_with_orders(problem, monkeypatch)
    monkeypatch.setattr(spectral_module, "_main_order", _first_main_order(n_first))
    alive_orders, rebuilt = [], []
    records, orders = _sweep_with_orders(problem, monkeypatch, alive_orders, rebuilt)
    grown = _grown_from(orders, rebuilt, 0)
    assert grown[0] == n_first
    assert len(grown) > 1
    assert all(old < new for old, new in zip(grown, grown[1:]))
    assert grown[-1] <= n_full
    # each short set of rows is freed before its growth
    assert alive_orders[: len(grown)] == [[]] * len(grown)
    # a basis grown only until its nearest candidate is within reach may not
    # reach that candidate's partner, so it validates alone an eigenvalue the
    # full-order basis pairs: the eigenvalues agree, the centers may not
    _assert_close_eigenvalues(records, reference)
    # the grown basis is the one built at its final order directly
    monkeypatch.setattr(spectral_module, "_main_order", _first_main_order(grown[-1]))
    direct, _ = _sweep_with_orders(problem, monkeypatch)
    _assert_same_records(records, direct)
