"""Characteristic polynomial assembly, root finding, and the eigenvalue sweep.

For two-point conditions B_E[u] = alpha_E(lambda) u(E) + beta_E(lambda) d(E)
(with d either u' or p u'), the eigenvalues are the zeros of

    Phi = B_L[u1] B_R[u2] - B_L[u2] B_R[u1].

Both basis solutions are power series in mu = lambda - center whose
endpoint coefficients the basis hands over (``SppsBasis.endpoint_series``;
this module reads no power rows), so Phi becomes a polynomial in mu: the
boundary polynomials are recentred at the series center and multiplied in
by convolution.  Roots come from the companion matrix of the significant part
of that polynomial and are polished by a few Newton steps.

The sweep walks the spectrum: find the nearest new root, validate it by
recentring the basis there (a true eigenvalue makes the recentred
polynomial vanish at its own center), then move the center according to
the shift schedule and repeat.  A basis raises its order only through
``SppsBasis.grow``, on the particular solution it was verified with.  A
validation basis is built at the order the current polynomial needs near
its center and one step beyond, and grows to full order when that short
series cannot match the full one.  A main basis (the one whose polynomial
gives the next candidates) is built at the order its predecessor's
polynomial needs over twice the distance to the eigenvalue it accepted,
plus a margin; the first, with no predecessor, at two terms plus the
margin.  Where its last coefficient still counts at the nearest new
candidate, it grows to twice its order (capped at full order) before that
candidate is validated; when it stalls, to full order.

One power set is alive at a time: every shift and growth frees the rows
it starts from before it builds.  A shift checks its recentred particular
solution before it frees its source, so a failed check leaves the main
basis's rows in place; a validation shift that needs more terms than the
main basis has grows that basis.  A main basis is rebuilt on its particular
solution, at its order, when it is read again: after a validation basis
built from it is rejected, and under ``fixed_center`` once per eigenvalue.
``prepare`` has verified the start, so the first basis is an unchecked
``SppsBasis``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cmp_to_key

import numpy as np
from numpy.polynomial.polynomial import polyval

from .basis import EXACT_TAIL, SppsBasis, shift_basis
from .errors import (
    ConfigurationError,
    ContourError,
    DegeneratePolynomialError,
    InputError,
    ShiftFailureError,
    SolverError,
    SweepStalledError,
)
from .problems import _MAX_SAMPLES, prepare

__all__ = [
    "CharacteristicPolynomial",
    "EigenvalueRecord",
    "assemble_characteristic",
    "roots_of",
    "count_zeros",
    "sweep_eigenvalues",
    "characteristic_at",
    "landscape_of",
]

# coefficients below this (relative to the largest) add nothing inside the
# trust region; used for the trust-radius estimate
COEFF_SIGNIFICANCE = 1e-14
# trailing coefficients are dropped before the companion-matrix root solve
# only when keeping them would overflow the c_k/c_D scaling.  The factorially
# small high-order coefficients carry *relative* accuracy and must stay:
# dropping them at 1e-14 * scale was measured to cost six digits in roots a
# distance ~10 from the center.
ROOT_STRIP_FACTOR = 1e-250
DEDUPE_FACTOR = 1e-6
# terms a main basis keeps beyond the order its previous polynomial needs
_MAIN_MARGIN = 4
LANDSCAPE_CAP = 308.0
MAX_CONTOUR_SAMPLES = 2**18


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """Truncated series of Phi around ``center``: sum c_k (lambda-center)^k."""

    coeffs: np.ndarray
    center: complex
    scale: float = field(init=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        object.__setattr__(self, "coeffs", coeffs)
        coeffs.flags.writeable = False
        object.__setattr__(self, "scale", float(np.abs(coeffs).max()) if coeffs.size else 0.0)

    def evaluate(self, lam):
        """Horner evaluation at scalar or array lambda; an overflow gives inf or NaN."""
        mu = np.asarray(lam, dtype=np.complex128) - self.center
        # every caller turns a non-finite value into a typed error
        with np.errstate(over="ignore", invalid="ignore"):
            acc = polyval(mu, self.coeffs)
        if np.ndim(lam) == 0:
            return complex(acc)
        return acc

    def trust_radius(self, rel=1e-6):
        """Rough radius where the truncated tail stays below ``rel`` * scale."""
        significant = np.flatnonzero(np.abs(self.coeffs) >= COEFF_SIGNIFICANCE * self.scale)
        if significant.size == 0:
            return 0.0
        d = int(significant[-1])
        if d == 0:
            return math.inf
        top = abs(self.coeffs[d])
        return (rel * self.scale / top) ** (1.0 / d)


@dataclass(frozen=True)
class EigenvalueRecord:
    index: int
    lam: complex
    center_used: complex
    validation_residual: float
    tail_indicator: float


def _recenter_poly(coeffs, center):
    """Rewrite sum a_k lambda^k as a polynomial in mu = lambda - center."""
    if center == 0:
        return np.array(coeffs, dtype=np.complex128)
    out = np.zeros_like(coeffs)
    for j in range(len(coeffs)):
        acc = 0.0 + 0.0j
        binom = 1.0
        for k in range(j, len(coeffs)):
            if k > j:
                binom = binom * k / (k - j)
            acc += coeffs[k] * binom * center ** (k - j)
        out[j] = acc
    return out


def _conv_trunc(a, b, length):
    full = np.convolve(a, b)[:length]
    if full.size < length:
        full = np.concatenate([full, np.zeros(length - full.size, dtype=np.complex128)])
    return full


def assemble_characteristic(basis, bc_left, bc_right):
    """Phi from the boundary conditions applied to ``basis.endpoint_series()``."""
    if bc_left.endpoint != "left" or bc_right.endpoint != "right":
        raise ConfigurationError("boundary conditions must be one left, one right")

    (u1_a, pu1_a, u2_a, pu2_a), (u1_b, pu1_b, u2_b, pu2_b) = basis.endpoint_series()

    def beta_effective(bc, p_end):
        if bc.derivative_form == "p_u_prime":
            return bc.beta
        if p_end == 0:
            raise ConfigurationError(
                "derivative_form 'u_prime' needs p nonzero at the endpoint"
            )
        return bc.beta / p_end

    p_a = basis.samples.p.values[0]
    p_b = basis.samples.p.values[-1]
    alpha_l = _recenter_poly(bc_left.alpha, basis.center)
    beta_l = _recenter_poly(beta_effective(bc_left, p_a), basis.center)
    alpha_r = _recenter_poly(bc_right.alpha, basis.center)
    beta_r = _recenter_poly(beta_effective(bc_right, p_b), basis.center)

    length = basis.n_terms + bc_left.degree + bc_right.degree + 1

    def apply_bc(alpha, beta, u, pu):
        return _conv_trunc(alpha, u, length) + _conv_trunc(beta, pu, length)

    bl_u1 = apply_bc(alpha_l, beta_l, u1_a, pu1_a)
    bl_u2 = apply_bc(alpha_l, beta_l, u2_a, pu2_a)
    br_u1 = apply_bc(alpha_r, beta_r, u1_b, pu1_b)
    br_u2 = apply_bc(alpha_r, beta_r, u2_b, pu2_b)

    coeffs = _conv_trunc(bl_u1, br_u2, length) - _conv_trunc(bl_u2, br_u1, length)
    return CharacteristicPolynomial(coeffs=coeffs, center=basis.center)


def roots_of(phi):
    """All roots of the computable part of the polynomial.

    Trailing coefficients so small that normalizing by them would overflow
    the companion matrix are stripped; everything else stays, because even
    factorially tiny coefficients still steer roots far from the center.
    Each root is polished by at most 5 Newton steps.
    """
    if phi.scale == 0.0:
        raise DegeneratePolynomialError("characteristic polynomial is identically zero")
    if not math.isfinite(phi.scale):  # the largest |c_k| is NaN or inf if any c_k is
        raise DegeneratePolynomialError("characteristic polynomial has non-finite coefficients")
    keep = np.flatnonzero(np.abs(phi.coeffs) >= ROOT_STRIP_FACTOR * phi.scale)
    top = int(keep[-1])
    if top == 0:
        return np.empty(0, dtype=np.complex128)
    c = phi.coeffs[: top + 1]
    mu = np.roots(c[::-1])

    dc = c[1:] * np.arange(1, len(c))
    # tensor=False keeps each Horner step's coefficient a scalar; the default
    # broadcasts a reshaped c, which is measurably slower on these short arrays
    for _ in range(5):
        val = polyval(mu, c, tensor=False)
        der = polyval(mu, dc, tensor=False)
        ok = der != 0
        step = np.zeros_like(mu)
        step[ok] = val[ok] / der[ok]
        new = mu - step
        improved = np.abs(polyval(new, c, tensor=False)) <= np.abs(val)
        mu = np.where(improved, new, mu)
        if np.all(np.abs(step[improved]) <= 1e-15 * (1.0 + np.abs(mu[improved]))):
            break

    return phi.center + mu


def count_zeros(phi_evaluator, center, radius, samples=512):
    """Winding number of Phi along the circle |lambda - center| = radius.

    Sums principal-branch phase increments between consecutive samples;
    any increment near +-pi is ambiguous and triggers doubling of the
    sample count (up to MAX_CONTOUR_SAMPLES).  ``samples`` must be at
    least 1; fewer than 256 start at 256.
    """
    if not 0.0 < radius < math.inf:  # also catches NaN
        raise InputError(f"radius must be positive and finite, got {radius}")
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    if samples > MAX_CONTOUR_SAMPLES:
        raise InputError(f"samples must be at most {MAX_CONTOUR_SAMPLES}, got {samples}")
    n = max(int(samples), 256)
    while True:
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        z = center + radius * np.exp(1j * theta)
        vals = np.asarray(phi_evaluator(z), dtype=np.complex128)
        if not np.all(np.isfinite(vals)):
            raise ContourError("characteristic function not finite on the contour")
        if np.any(vals == 0):
            k = int(np.argmin(np.abs(vals)))
            raise ContourError(f"zero lies on the contour at lambda={z[k]:.6g}")
        # distance of the nearest zero from the contour is roughly |phi|/|phi'|;
        # estimate phi' from neighbouring samples
        dphi = np.abs(np.roll(vals, -1) - vals)
        dz = 2.0 * math.pi * radius / n
        near = dphi > 0
        dist = np.abs(vals[near]) * dz / dphi[near]
        if dist.size and float(dist.min()) < 1e-6 * radius:
            k = int(np.flatnonzero(near)[int(np.argmin(dist))])
            raise ContourError(
                f"contour passes too close to a zero near lambda={z[k]:.6g}; "
                "change the radius"
            )
        ratios = np.roll(vals, -1) / vals
        incr = np.angle(ratios)
        if np.abs(incr).max() < 0.9 * math.pi:
            total = float(incr.sum())
            winding = total / (2.0 * math.pi)
            nearest = round(winding)
            if abs(winding - nearest) > 0.25:
                raise ContourError(
                    f"winding number {winding:.3f} is not close to an integer"
                )
            return int(nearest)
        if n >= MAX_CONTOUR_SAMPLES:
            raise ContourError(
                f"phase increments stay ambiguous at {n} samples; "
                "a zero probably sits on the contour"
            )
        n *= 2


def _is_real_problem(samples, bc_left, bc_right, delta=0.0):
    """True when all inputs are real, so the spectrum is conjugate-symmetric."""
    return (
        float(np.abs(samples.p.values.imag).max()) == 0.0
        and float(np.abs(samples.q.values.imag).max()) == 0.0
        and float(np.abs(samples.r.values.imag).max()) == 0.0
        and float(np.abs(bc_left.alpha.imag).max()) == 0.0
        and float(np.abs(bc_left.beta.imag).max()) == 0.0
        and float(np.abs(bc_right.alpha.imag).max()) == 0.0
        and float(np.abs(bc_right.beta.imag).max()) == 0.0
        and complex(delta).imag == 0.0
    )


def _is_duplicate(candidate, found):
    return any(
        abs(candidate - lam) <= DEDUPE_FACTOR * (1.0 + abs(candidate)) for lam in found
    )


def sweep_eigenvalues(problem, config=None, particular=None):
    """Walk the spectrum, validating each candidate by recentring.

    Returns EigenvalueRecords.  For problems with entirely real data the
    records are sorted by real part and reindexed; otherwise they stay in
    discovery order.
    """
    config, samples, bc_left, bc_right, start = prepare(problem, config, particular)
    basis = SppsBasis(start, samples, _main_order(None, config, None))

    records = []
    found = []
    while len(records) < config.max_eigenvalues:
        vbasis = None  # free the last validation basis before the next is built
        phi = assemble_characteristic(basis, bc_left, bc_right)
        outcome = _validate_nearest(basis, phi, found, config, bc_left, bc_right)
        if outcome is None:
            continue  # the main basis grew: read its polynomial again
        cand, vbasis, vphi = outcome
        outcome = None  # vbasis alone holds the validation basis
        lam = _refine_in_frame(vphi, cand)
        records.append(
            EigenvalueRecord(
                index=len(records),
                lam=lam,
                center_used=basis.center,
                validation_residual=abs(vphi.evaluate(lam)) / vphi.scale,
                tail_indicator=vbasis.shift_tail,
            )
        )
        found.append(lam)
        if len(records) >= config.max_eigenvalues:
            break
        next_center = _next_center(config, found, basis.center)
        n_main = _main_order(phi, config, lam)
        if next_center == vbasis.center:
            vbasis.grow(n_main)
            basis = vbasis
        elif config.policy != "fixed_center":
            # Re-expand even when next_center is only ~1e-12 from the
            # validation center (delta = 0, after refinement): the rebuild
            # re-picks the best-conditioned f in the new frame.  Reusing the
            # validation basis instead stalled more sweeps on small
            # piecewise-constant problems and moved eigenvalues by up to 9e-12.
            try:
                basis = shift_basis(vbasis, next_center, n_terms=n_main)
            except ShiftFailureError:
                break  # cannot continue the walk; report what was found

    if _is_real_problem(samples, bc_left, bc_right, config.delta):
        records = _sorted_by_real_part(records)
    return records


def _validate_nearest(basis, phi, found, config, bc_left, bc_right):
    """Validate the new roots of ``phi`` nearest its center first.

    Returns ``(candidate, validation basis, its polynomial)`` for the
    first candidate that passes, or None once a main ``basis`` shorter
    than full order has grown and must be read again: to twice its order
    (at least 1, at most full order) when its last coefficient still
    counts at the candidate, to full order when it stalls.  A full-order
    basis that stalls raises ``SweepStalledError``.
    """
    n_full = config.n_terms
    # phi's order: a validation shift may grow the basis past it
    n_main = basis.n_terms
    short = n_main < n_full
    candidates = roots_of(phi)
    order = np.argsort(np.abs(candidates - basis.center))
    n_valid = _validation_order(phi, config)
    failures = 0
    residual = None
    for idx in order:
        cand = complex(candidates[idx])
        if _is_duplicate(cand, found):
            continue
        reach = abs(cand - basis.center)
        if short and reach > 0 and _counting_terms(phi, reach)[n_main]:
            basis.grow(min(n_full, max(1, 2 * n_main)))
            return None
        try:
            vbasis = shift_basis(basis, cand, n_terms=n_valid)
            vphi = assemble_characteristic(vbasis, bc_left, bc_right)
            if vbasis.n_terms < n_full and _counting_terms(vphi, 1.0)[vbasis.n_terms]:
                # the short series is not complete: its last coefficient
                # still counts, so the polynomial needs the full order
                vbasis.grow(n_full)
                vphi = assemble_characteristic(vbasis, bc_left, bc_right)
            residual = abs(vphi.coeffs[0]) / vphi.scale
        except SolverError:
            pass
        else:
            if residual <= config.accept_threshold:
                return cand, vbasis, vphi
        vbasis = vphi = None  # free the failed validation basis before the next
        failures += 1
        if failures >= 3:
            break
    if short:
        basis.grow(n_full)
        return None
    if failures >= 3:
        last = "" if residual is None else f" (last residual {residual:.2e})"
        raise SweepStalledError(
            f"three consecutive candidates failed validation near center "
            f"{basis.center}{last}; increase the power count or the mesh resolution"
        )
    raise SweepStalledError(
        f"no further candidate root could be validated from center {basis.center}"
    )


def _sorted_by_real_part(records):
    """``records`` by increasing real part, reindexed.

    Real parts that agree within DEDUPE_FACTOR are a conjugate pair (or
    roundoff): those go by imaginary part, lower half first, so the last
    bit of two equal real parts does not decide the order.
    """

    def compare(a, b):
        if abs(a.lam.real - b.lam.real) <= DEDUPE_FACTOR * (1.0 + max(abs(a.lam), abs(b.lam))):
            return (a.lam.imag > b.lam.imag) - (a.lam.imag < b.lam.imag)
        return -1 if a.lam.real < b.lam.real else 1

    ordered = sorted(records, key=cmp_to_key(compare))
    return [replace(rec, index=i) for i, rec in enumerate(ordered)]


def _counting_terms(phi, reach):
    """Mask of the terms |c_k| reach^k at or above EXACT_TAIL of the largest."""
    # log-space: reach**k overflows for large steps
    with np.errstate(divide="ignore"):
        log_terms = np.log(np.abs(phi.coeffs)) + math.log(reach) * np.arange(phi.coeffs.size)
    return log_terms >= log_terms.max() + math.log(EXACT_TAIL)


def _validation_order(phi, config, reach=0.0):
    """Order of the series that reads ``phi``'s basis out to ``reach``.

    A validation basis is read within about 1e-12 of its center and at the
    next center, |delta| away.  Over R = max(1, |delta|, reach) the terms of
    ``phi`` beyond the last one above EXACT_TAIL of the largest add nothing;
    two more terms are kept as a margin.  ``shift_basis`` and the sweep
    evaluate at full order whenever this falls short.
    """
    reach = max(1.0, abs(complex(config.delta)), reach)
    last = int(np.flatnonzero(_counting_terms(phi, reach))[-1])
    return min(config.n_terms, last + 2)


def _main_order(phi, config, lam):
    """Order of the next main basis after ``phi`` accepted ``lam``.

    The next candidates are expected about as far from the next center as
    ``lam`` was from ``phi``'s, so ``phi`` is read over twice that distance,
    with _MAIN_MARGIN more terms.  The first main basis has nothing read
    before it (``phi`` is None): it gets two terms plus the margin, as if
    only a constant term counted.  The sweep doubles the order of a main
    basis whose last coefficient counts at a candidate.
    """
    if phi is None:
        return min(config.n_terms, 2 + _MAIN_MARGIN)
    reach = 2.0 * abs(lam - phi.center)
    return min(config.n_terms, _validation_order(phi, config, reach) + _MAIN_MARGIN)


def _next_center(config, found, current):
    """Center for the next step of the sweep under ``config.policy``."""
    if config.policy == "fixed_center" or not found:
        return current
    if config.policy == "always_previous":
        return found[-1] + config.delta
    # previous_if_upper_half: stay on the last eigenvalue while its
    # imaginary part is positive or roundoff (a real eigenvalue), otherwise
    # fall back one more
    last = found[-1]
    if last.imag >= -DEDUPE_FACTOR * (1.0 + abs(last)) or len(found) < 2:
        return last + config.delta
    return found[-2] + config.delta


def _refine_in_frame(vphi, cand):
    """Nudge the accepted root using the recentred polynomial.

    In the validation frame the eigenvalue sits at the series center, where
    the polynomial is most accurate; its nearest root is a strictly better
    estimate as long as the correction is tiny.
    """
    try:
        mu = roots_of(vphi) - vphi.center
    except DegeneratePolynomialError:
        return cand
    if mu.size == 0:
        return cand
    step = mu[np.argmin(np.abs(mu))]
    if abs(step) <= 1e-3 * (1.0 + abs(cand)):
        return cand + complex(step)
    return cand


def characteristic_at(problem, center=0.0):
    """The characteristic polynomial of ``problem`` expanded at ``center``.

    Builds the basis at the starting center (that of the supplied or seeded
    particular solution, lambda = 0) and shifts it to ``center`` when the
    two differ.
    """
    center = complex(center)
    if not cmath.isfinite(center):
        raise InputError(f"center must be finite, got {center}")
    config, samples, bc_left, bc_right, start = prepare(problem)
    basis = SppsBasis(start, samples, config.n_terms)
    if center != basis.center:
        basis = shift_basis(basis, center)
    return assemble_characteristic(basis, bc_left, bc_right)


def landscape_of(phi, center, radius, grid):
    """Sample -log|Phi| on a grid covering the disk's bounding square.

    Rows are ordered by decreasing imaginary part.  Points where Phi
    underflows to zero are clamped to LANDSCAPE_CAP; a Phi that overflows
    anywhere on the grid raises ContourError.  Returns the matrix and a
    metadata dict including the trust radius and how much of the grid lies
    beyond it.
    """
    if not 0.0 < radius < math.inf:  # also catches NaN
        raise InputError(f"radius must be positive and finite, got {radius}")
    if grid < 16:
        raise InputError(f"grid must be at least 16, got {grid}")
    if grid * grid > _MAX_SAMPLES:
        raise InputError(
            f"grid = {grid} needs {grid * grid} samples; numpy can index at most {_MAX_SAMPLES}"
        )
    center = complex(center)
    re = np.linspace(center.real - radius, center.real + radius, grid)
    im = np.linspace(center.imag + radius, center.imag - radius, grid)
    z = re[None, :] + 1j * im[:, None]
    with np.errstate(over="ignore", divide="ignore"):
        magnitude = np.abs(phi.evaluate(z))
        height = -np.log(magnitude)
    if not np.all(np.isfinite(magnitude)):
        raise ContourError("characteristic function not finite on the landscape grid")
    height[magnitude == 0] = LANDSCAPE_CAP
    trust = phi.trust_radius()
    outside = float(np.mean(np.abs(z - center) > trust))
    meta = {
        "center": center,
        "radius": float(radius),
        "grid": int(grid),
        "trust_radius": float(trust),
        "outside_trust_fraction": outside,
    }
    return height, meta
