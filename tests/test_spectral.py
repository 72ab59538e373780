import math

import numpy as np
import pytest

from spps import basis as basis_module
from spps import cli as cli_module
from spps import problems as problems_module
from spps import spectral as spectral_module
from spps.basis import ParticularSolution, SppsBasis, evaluate_solution, shift_basis
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
    parse_problem,
    prepare,
    with_overrides,
)
from spps.spectral import (
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

from util import (
    TABLE1,
    layered_problem,
    plain_problem,
    step_potential_problem,
    three_piece_problem,
    track_power_sets,
)


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
        expect = 0 if policy == "fixed_center" else found[k - 1] + delta
        assert centers[k] == expect


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
    # the start basis grows twice (6, 12 and 24 terms), then a validation
    # shift per eigenvalue plus the re-expansion at each refined value (the
    # last eigenvalue needs none)
    assert calls["shift_basis"] == 2 * len(records) - 1
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


# scan_small seed 2, case scan27 (perfbench/workloads.py): the validation of
# the candidate near 44.51 from the main basis at 22.68 (order 31) fails
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
# float.hex of (lam, center_used, validation_residual, tail_indicator), as
# computed while the main basis stayed alive through its validations
SCAN27_RECORDS = [
    ("-0x1.81abe85a5b245p+1", "-0x1.04d9117f86e49p-45", "0x1.411a2dbe4d26bp-3",
     "-0x1.623403cf54ce4p-46", "0x1.365ea69cf0cddp-53", "0x1.ac129d192c6ccp-80"),
    ("0x1.411a2dbe4d26bp-3", "-0x1.623403cf54ce4p-46", "0x0.0p+0",
     "0x0.0p+0", "0x1.fe0d255acacaep-57", "0x1.305a7e1b9e7aap-91"),
    ("0x1.04acf7bc1576dp+3", "-0x1.05fe0789e2158p-39", "-0x1.81abe85a5b245p+1",
     "-0x1.04d9117f86e49p-45", "0x1.309f1f98813f8p-51", "0x1.3efee18ced8c9p-73"),
    ("0x1.6ad1a68f05491p+4", "0x1.51c79a7da17d1p-37", "0x1.04acf7bc1576dp+3",
     "-0x1.05fe0789e2158p-39", "0x1.731120d5ecc82p-51", "0x1.92f5fe8d2c37cp-98"),
    ("0x1.641d4cf6160f8p+5", "0x1.f41f8220322d7p-28", "0x1.16f64df3dcc52p+6",
     "-0x1.ad1455e3f9208p-35", "0x1.e70b9ef1b46b8p-49", "0x1.0e47b971c6dd1p-122"),
    ("0x1.16f64df3dcc52p+6", "-0x1.ad1455e3f9208p-35", "0x1.6ad1a68f05491p+4",
     "0x1.51c79a7da17d1p-37", "0x1.6b3d1814b29ccp-48", "0x1.5252d03d953cbp-58"),
]


def test_failed_validation_rebuilds_the_main_basis_alone(monkeypatch):
    problem = parse_problem(SCAN27)
    config, _, _, _, start = prepare(problem)
    power_builds = track_power_sets(monkeypatch)
    records = sweep_eigenvalues(problem, config, particular=start)
    # the main basis released its rows for the failed validation and
    # rebuilds them, once, at its own order for the next candidate
    assert [n for n, _, how in power_builds if how == "reread"] == [31]
    assert all(alive == [] for _, alive, _ in power_builds)
    got = [
        tuple(float(v).hex() for v in (
            rec.lam.real, rec.lam.imag, rec.center_used.real, rec.center_used.imag,
            rec.validation_residual, rec.tail_indicator,
        ))
        for rec in records
    ]
    assert got == SCAN27_RECORDS


# scan_small seed 1, case scan19 (perfbench/workloads.py): one validation
# shift fails its particular-solution check
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
# float.hex of (lam, center_used, validation_residual, tail_indicator), as
# computed when the failed check still freed the main basis's rows first
SCAN19_RECORDS = [
    ("0x1.232a0dd6ada18p+0", "0x1.74808d00761fdp-49", "0x0.0p+0",
     "0x0.0p+0", "0x1.58ef886d0a071p-54", "0x1.a4d81de912e96p-146"),
    ("0x1.1d488048fde03p+2", "0x1.90cd3b93fd33dp-39", "0x1.232a0dd6ada18p+0",
     "0x1.74808d00761fdp-49", "0x1.1bd3e5ca0802cp-52", "0x1.95c41280e0175p-80"),
    ("0x1.921c26c1551dap+3", "0x1.7b20363e00114p-39", "0x1.1d488048fde03p+2",
     "0x1.90cd3b93fd33dp-39", "0x1.945d2f8a13b1bp-51", "0x1.ed5e17cbdf72cp-77"),
    ("0x1.9d7de9af98f2dp+4", "0x1.0c0504dde8e63p-38", "0x1.921c26c1551dap+3",
     "0x1.7b20363e00114p-39", "0x1.49e2ff9e12fa5p-50", "0x1.22a56e4b207aep-87"),
    ("0x1.44ebf594416d6p+5", "-0x1.64c319a315b93p-31", "0x1.9d7de9af98f2dp+4",
     "0x1.0c0504dde8e63p-38", "0x1.8c3f40fecced6p-51", "0x1.a6d3f19837315p-102"),
    ("0x1.676c3dcc66e0bp+6", "0x1.70dba62c513a3p-32", "0x1.44ebf594416d6p+5",
     "-0x1.64c319a315b93p-31", "0x1.87ae875d881bfp-48", "0x1.9abaa6ab22ca4p-50"),
]


def test_failed_shift_check_keeps_the_main_basis_rows(monkeypatch):
    problem = parse_problem(SCAN19)
    config, _, _, _, start = prepare(problem)
    failed = []
    shift = spectral_module.shift_basis

    def recording_shift(*args, **kwargs):
        try:
            return shift(*args, **kwargs)
        except ShiftFailureError as exc:
            failed.append(exc)
            raise

    monkeypatch.setattr(spectral_module, "shift_basis", recording_shift)
    power_builds = track_power_sets(monkeypatch)
    records = sweep_eigenvalues(problem, config, particular=start)
    # the check ran while the main basis still held its rows, so the next
    # candidate reads them without a rebuild
    assert len(failed) == 1
    assert [how for _, _, how in power_builds if how == "reread"] == []
    assert all(alive == [] for _, alive, _ in power_builds)
    got = [
        tuple(float(v).hex() for v in (
            rec.lam.real, rec.lam.imag, rec.center_used.real, rec.center_used.imag,
            rec.validation_residual, rec.tail_indicator,
        ))
        for rec in records
    ]
    assert got == SCAN19_RECORDS


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


def _assert_close_records(records, reference):
    assert len(records) == len(reference)
    for rec, ref in zip(records, reference):
        assert abs(rec.lam - ref.lam) <= 1e-12 * abs(ref.lam)
        assert abs(rec.center_used - ref.center_used) <= 1e-12 * max(1.0, abs(ref.center_used))


def _full_order(phi, config, *args):
    return config.n_terms


def _first_main_order(n_first):
    """A ``_main_order`` that builds the first main basis at ``n_first`` terms."""
    return lambda phi, config, lam: n_first if phi is None else _main_order(phi, config, lam)


@pytest.mark.parametrize("name", ["trivial", "three_pieces"])
def test_validation_is_short_and_matches_full_order(bundled_problem, monkeypatch, name):
    problem = bundled_problem("trivial") if name == "trivial" else three_piece_problem()
    n_full = problem.solver.n_terms

    rebuilt = []
    records, orders = _sweep_with_orders(problem, monkeypatch, rebuilt=rebuilt)
    # the start basis grows from 6 terms until its nearest candidate no longer
    # reads its last coefficient, then per eigenvalue one validation build and
    # one re-expansion (none after the last): no full-order fallback fired
    grown = _grown_from(orders, rebuilt, 0)
    assert grown == [6, 12, 24]
    assert rebuilt == [1, 2]
    walk = orders[len(grown) - 1 :]
    assert len(walk) == 2 * len(records)
    assert all(n <= n_full for n in walk[2::2])
    assert all(n < n_full for n in walk[1::2])

    # with every main basis at full order, the short validation bases give
    # the records of full-order validation bit for bit
    monkeypatch.setattr(spectral_module, "_main_order", _full_order)
    records, orders = _sweep_with_orders(problem, monkeypatch)
    assert all(n == n_full for n in orders[0::2])
    assert all(n < n_full for n in orders[1::2])

    # an unrefined root makes the validation center the next center, so the
    # short validation basis is rebuilt at full order to become the main one
    with monkeypatch.context() as m:
        m.setattr(spectral_module, "_refine_in_frame", lambda vphi, cand: cand)
        unrefined, unrefined_orders = _sweep_with_orders(problem, m)
        m.setattr(spectral_module, "_validation_order", _full_order)
        unrefined_full, _ = _sweep_with_orders(problem, m)
    assert all(n == n_full for n in unrefined_orders[0::2])
    assert all(n < n_full for n in unrefined_orders[1::2])
    _assert_same_records(unrefined, unrefined_full)

    monkeypatch.setattr(spectral_module, "_validation_order", _full_order)
    reference, ref_orders = _sweep_with_orders(problem, monkeypatch)
    assert set(ref_orders) == {n_full}
    _assert_same_records(records, reference)

    # order 1 is never complete: every validation is rebuilt at full order
    monkeypatch.setattr(spectral_module, "_validation_order", lambda phi, config: 1)
    forced, forced_orders = _sweep_with_orders(problem, monkeypatch)
    shorts = [i for i, n in enumerate(forced_orders) if n == 1]
    assert shorts and all(forced_orders[i + 1] == n_full for i in shorts)
    _assert_same_records(forced, reference)


@pytest.mark.parametrize("name", ["trivial", "three_pieces"])
def test_main_order_forced_full_matches_default(bundled_problem, monkeypatch, name):
    problem = bundled_problem("trivial") if name == "trivial" else three_piece_problem()
    n_full = problem.solver.n_terms

    rebuilt = []
    records, orders = _sweep_with_orders(problem, monkeypatch, rebuilt=rebuilt)
    grown = _grown_from(orders, rebuilt, 0)
    assert grown[-1] < n_full  # the first main basis stops short of full order
    walk = orders[len(grown) - 1 :]
    assert any(n < n_full for n in walk[2::2])  # and so does some later one
    monkeypatch.setattr(spectral_module, "_main_order", _full_order)
    reference, ref_orders = _sweep_with_orders(problem, monkeypatch)
    assert all(n == n_full for n in ref_orders[0::2])
    _assert_close_records(records, reference)


@pytest.mark.parametrize("n_main", [1, 3])
@pytest.mark.parametrize("name", ["trivial", "three_pieces"])
def test_short_main_basis_rebuilt_at_full_order(bundled_problem, monkeypatch, name, n_main):
    problem = bundled_problem("trivial") if name == "trivial" else three_piece_problem()
    n_full = problem.solver.n_terms

    monkeypatch.setattr(spectral_module, "_main_order", _full_order)
    reference, _ = _sweep_with_orders(problem, monkeypatch)
    # a later main basis this short still counts at every candidate (order 3)
    # or has only the found root and stalls (order 1): before any candidate of
    # it is validated it grows, doubling its order, or to full order
    monkeypatch.setattr(
        spectral_module,
        "_main_order",
        lambda phi, config, lam: n_full if phi is None else n_main,
    )
    alive_orders, rebuilt = [], []
    forced, forced_orders = _sweep_with_orders(problem, monkeypatch, alive_orders, rebuilt)
    shorts = [i for i, n in enumerate(forced_orders) if n == n_main]
    assert len(shorts) == len(forced) - 1
    final_orders = []
    for i in shorts:
        grown = _grown_from(forced_orders, rebuilt, i)
        assert len(grown) > 1
        assert all(new in (min(n_full, 2 * old), n_full) for old, new in zip(grown, grown[1:]))
        # the short rows are freed before each growth
        assert all(alive_orders[j] == [] for j in range(i + 1, i + len(grown)))
        final_orders.append(grown[-1])
    if n_main == 1:
        assert set(final_orders) == {n_full}  # every one stalled
    _assert_close_records(forced, reference)
    # a grown basis is the basis built at its final order: a sweep that builds
    # each later main basis at that order directly gives the same records
    final = iter(final_orders)
    monkeypatch.setattr(
        spectral_module,
        "_main_order",
        lambda phi, config, lam: n_full if phi is None else next(final),
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
    _assert_close_records(records, reference)
    # the grown basis is the one built at its final order directly
    monkeypatch.setattr(spectral_module, "_main_order", _first_main_order(grown[-1]))
    direct, _ = _sweep_with_orders(problem, monkeypatch)
    _assert_same_records(records, direct)
