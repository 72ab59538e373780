"""Particular solutions, series bases, spectral shifts.

A basis bundles a nonvanishing particular solution f at center lambda*
with the formal powers built from it.  The two series solutions and their
quasi-derivatives are

    u1  = f * sum mu^k T(2k)          p u1' = pf' * sum mu^k T(2k) + (1/f) * sum mu^k T(2k-1)
    u2  = f * sum mu^k P(2k+1)        p u2' = pf' * sum mu^k P(2k+1) + (1/f) * sum mu^k P(2k)

with mu = lambda - lambda*, T the first family and P the second.  The
quasi-derivative p*u' is the object carried everywhere: it stays
continuous across coefficient jumps while u' itself may not.  Only this
module reads power rows: ``evaluate_solution``, ``SppsBasis.endpoint_series``.
On a long mesh ``evaluate_solution`` sums the u1 and u2 series on two
threads, as ``compute_formal_powers`` builds the two families; the bits are
those of one thread.

The seed runs the same recursion with f == 1 and -q in place of r and sums
both series at lambda = 1; a shift evaluates the current basis at the new
center.  Both mix the two solutions into f with pairs (c1, c2) searched in
one pool: the five stock pairs and forty pairs scaled to the two solutions'
sizes, ranked in ``_ranked_pairs`` by min|f|/max|f| on every 16th slot and
the last.  ``_first_verified`` forms and checks them: the seed tries the
pool in ranked order, a shift only its first pair, before it frees any rows.
The growth constant C1 = ||1/(p f^2)||_1 weights every odd power, so a
poorly conditioned f spoils the whole set built on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonvanishingError,
    ParticularResidualError,
    SeedFailureError,
    ShiftFailureError,
)
from .mesh import SampledFunction, constant_function
from .powers import _growth_bounds, _in_pair, compute_formal_powers
from .quadrature import indefinite_integral, l1_norm

__all__ = [
    "ParticularSolution",
    "SppsBasis",
    "particular_residual",
    "verify_particular",
    "build_seed_solution",
    "particular_from_samples",
    "evaluate_solution",
    "shift_basis",
]

# the stock pairs (c1, c2) that mix the two series solutions into a
# nonvanishing f; (1, i) is the classic choice for real coefficients.
# (0, 1) is not one: u2 is exactly 0 at a.  Every pair, scaled ones too,
# has c1 = 1.
_COMBINATIONS = ((1.0, 1.0j), (1.0, -1.0j), (1.0, 1.0), (1.0, -1.0), (1.0, 0.0))
# the scaled pairs are (1, s * w) for these w, with s = max|u1| / max|u2|:
# radii 1/4 .. 4 around the scale-matched mix, at eight phases each
_SCALED = np.array(
    [rho * cmath.exp(2j * math.pi * k / 8) for rho in (0.25, 0.5, 1.0, 2.0, 4.0) for k in range(8)]
)
_STOCK_C2 = np.array([c2 for _, c2 in _COMBINATIONS], dtype=np.complex128)
# a ranking reads every _RANK_STRIDE-th slot and the last
_RANK_STRIDE = 16

# f values below EPS_F_FACTOR * max|f| make 1/f amplify noise beyond
# double-precision usefulness
EPS_F_FACTOR = 1e-10

RESIDUAL_TOL_FACTOR = 1e-9

TRUST_TAIL_LIMIT = 1e-10
# a series whose tail stays below this reproduces the longer one to an ulp
EXACT_TAIL = 2.0**-56


@dataclass(frozen=True)
class ParticularSolution:
    """Nonvanishing solution f of (p f')' + q f = lambda* r f."""

    f: SampledFunction
    pf_prime: SampledFunction
    lambda_star: complex

    @property
    def min_abs(self):
        """min |f| over the mesh."""
        return float(np.abs(self.f.values).min())


class SppsBasis:
    """Formal powers on a particular solution, centred at its lambda*.

    A handle: the constructor builds the power rows at order ``n_terms`` and
    does not verify the particular solution (``prepare`` checks the start,
    ``shift_basis`` a recentred one before it constructs its basis).  The
    order rises only through ``grow``.  ``shift_basis`` frees the rows of
    the basis it leaves; they are rebuilt at the same order, bit for bit,
    when next read.  ``shift_tail`` is the truncation tail of the basis this
    one was shifted from, evaluated at the new center (0.0 for a basis built
    directly).
    """

    def __init__(self, particular, samples, n_terms):
        self.particular = particular
        self.samples = samples
        self.n_terms = n_terms
        self.shift_tail = 0.0
        self._build()

    def _build(self):
        self._powers = compute_formal_powers(
            self.particular.f, self.samples.p, self.samples.r, self.n_terms
        )

    @property
    def center(self):
        """The series center: lambda* of the particular solution."""
        return self.particular.lambda_star

    @property
    def powers(self):
        """The power rows, rebuilt first if they were released."""
        if self._powers is None:
            self._build()
        return self._powers

    def _release(self):
        """Free the power rows; the next read of ``powers`` rebuilds them."""
        self._powers = None

    def grow(self, n_terms):
        """Free the rows and build them at ``n_terms`` if that is higher.

        The particular solution is not verified again; the rows equal a
        build at ``n_terms`` bit for bit.
        """
        if n_terms > self.n_terms:
            self._release()
            self.n_terms = n_terms
            self._build()

    def endpoint_series(self):
        """Series in mu of (u1, p u1', u2, p u2') at a and at b: two 4-tuples.

        The powers vanish at a, so each series there has one term.
        """
        n = self.n_terms
        fp = self.powers
        f_a = self.particular.f.at_a
        f_b = self.particular.f.at_b
        pf_a = self.particular.pf_prime.at_a
        pf_b = self.particular.pf_prime.at_b
        tilde_b = fp.tilde[:, -1]
        plain_b = fp.plain[:, -1]

        ks = np.arange(n + 1)
        u1_b = f_b * tilde_b[2 * ks]
        pu1_b = pf_b * tilde_b[2 * ks]
        pu1_b[1:] += tilde_b[2 * ks[1:] - 1] / f_b
        u2_b = f_b * plain_b[2 * ks + 1]
        pu2_b = pf_b * plain_b[2 * ks + 1] + plain_b[2 * ks] / f_b

        one = np.ones(1, dtype=np.complex128)
        at_a = (f_a * one, pf_a * one, np.zeros(1, dtype=np.complex128), (1.0 / f_a) * one)
        return at_a, (u1_b, pu1_b, u2_b, pu2_b)


def particular_residual(samples, ps):
    """Max-node magnitude of pf'(x) - pf'(a) + int_a^x (q - lambda* r) f dt.

    Zero (up to quadrature error) exactly when f solves its equation with
    the quasi-derivative it claims.  Also returns the scale max|pf'|.
    """
    integrand = (samples.q.values - ps.lambda_star * samples.r.values) * ps.f.values
    acc = indefinite_integral(SampledFunction(samples.mesh, integrand))
    res = ps.pf_prime.values - ps.pf_prime.values[0] + acc.values
    scale = float(np.abs(ps.pf_prime.values).max())
    return float(np.abs(res).max()), scale


def verify_particular(samples, ps):
    """Check that f stays off zero and solves its equation; return the residual.

    Integrates the residual first, then raises NonvanishingError when
    min|f| <= EPS_F_FACTOR * max|f|, else ParticularResidualError when the
    residual exceeds RESIDUAL_TOL_FACTOR * max|pf'|.
    """
    residual, scale = particular_residual(samples, ps)
    abs_f = np.abs(ps.f.values)
    if not abs_f.min() > EPS_F_FACTOR * abs_f.max():  # also catches NaN
        k = int(np.argmin(abs_f))
        raise NonvanishingError(
            f"particular solution nearly vanishes at x={ps.f.mesh.xs[k]} (|f|={abs_f[k]:.3e})"
        )
    if not residual <= RESIDUAL_TOL_FACTOR * scale + 1e-300:  # also catches NaN
        raise ParticularResidualError(
            f"particular solution residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL_FACTOR:.0e} * scale (scale={scale:.3e}, center={ps.lambda_star})"
        )
    return residual


def _reconciled(mesh, values, what):
    """Force two-sided breakpoint samples of a continuous function to agree.

    Expression-supplied data can disagree across a breakpoint by roundoff;
    downstream continuity invariants want bit-equal slots.  A genuine jump
    is an input error.
    """
    out = values.copy()
    scale = float(np.abs(values).max()) or 1.0
    for left, right in mesh.breakpoint_slots:
        gap = abs(out[left] - out[right])
        if gap > 1e-9 * scale:
            raise ParticularResidualError(
                f"{what} jumps by {gap:.3e} at breakpoint x={mesh.xs[left]}; "
                "a particular solution and its quasi-derivative must be continuous"
            )
        out[right] = out[left]
    return out


def particular_from_samples(samples, f, pf_prime):
    """Wrap sampled f, pf' at lambda* = 0 into a verified ParticularSolution."""
    mesh = samples.mesh
    ps = ParticularSolution(
        f=SampledFunction(mesh, _reconciled(mesh, f.values, "particular solution")),
        pf_prime=SampledFunction(mesh, _reconciled(mesh, pf_prime.values, "quasi-derivative")),
        lambda_star=0j,
    )
    verify_particular(samples, ps)
    return ps


def _first_verified(samples, pairs, u1, pu1, u2, pu2, lambda_star):
    """The first c1*(u1, pu1) + c2*(u2, pu2) over ``pairs`` that verifies.

    Otherwise raises the last ParticularResidualError, else the last NonvanishingError.
    """
    residual_error = nonvanishing_error = None
    try:
        for c1, c2 in pairs:
            ps = ParticularSolution(
                f=SampledFunction(samples.mesh, c1 * u1 + c2 * u2),
                pf_prime=SampledFunction(samples.mesh, c1 * pu1 + c2 * pu2),
                lambda_star=lambda_star,
            )
            try:
                verify_particular(samples, ps)
                return ps
            except NonvanishingError as exc:
                nonvanishing_error = exc
            except ParticularResidualError as exc:
                residual_error = exc
        raise residual_error if residual_error is not None else nonvanishing_error
    finally:
        # each kept error's traceback holds this frame: drop them, or they form a cycle
        residual_error = nonvanishing_error = None


def _ranked_pairs(u1, u2):
    """The stock and scaled pairs, by decreasing min|f|/max|f| of c1*u1 + c2*u2.

    The ratio is read on every _RANK_STRIDE-th slot and the last, for all
    pairs at once.  A pair whose sampled max|f| is zero or NaN ranks last;
    ties keep pool order, stock pairs first.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.abs(u1).max() / np.abs(u2).max()
    c2 = np.concatenate((_STOCK_C2, (scale if np.isfinite(scale) else 1.0) * _SCALED))
    sample_1 = np.concatenate((u1[::_RANK_STRIDE], u1[-1:]))
    sample_2 = np.concatenate((u2[::_RANK_STRIDE], u2[-1:]))
    abs_f = np.abs(sample_1 + c2[:, None] * sample_2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = abs_f.min(axis=1) / abs_f.max(axis=1)
    ratio[~(ratio >= 0.0)] = -1.0  # a zero or NaN maximum
    pairs = _COMBINATIONS + tuple((1.0, c) for c in c2[len(_COMBINATIONS) :].tolist())
    return [pairs[i] for i in np.argsort(-ratio, kind="stable")]


def build_seed_solution(samples, n_terms):
    """Construct a nonvanishing solution of the lambda=0 equation.

    Runs the power recursion with f == 1 and -q in place of r, sums both
    series at lambda = 1, and returns the first combination c1*y1 + c2*y2,
    in ``_ranked_pairs`` order, that ``verify_particular`` accepts.

    The series are built only to the order past which the growth bounds
    (C1 = ||1/p||_L1, C2 = ||q||_L1) keep every term below EXACT_TAIL;
    ``n_terms`` caps that order.  Past it every term is below an ulp of the
    sum, so a longer build gives the same candidates.
    """
    mesh = samples.mesh
    inv_p_l1 = l1_norm(SampledFunction(mesh, 1.0 / samples.p.values))
    q_l1 = l1_norm(samples.q)
    for n, bounds in enumerate(_growth_bounds(inv_p_l1, q_l1)):
        if n + 1 >= n_terms or (n * n > inv_p_l1 * q_l1 and max(bounds) < EXACT_TAIL):
            break
    n_terms = min(n + 1, n_terms)
    seed_r = SampledFunction(mesh, -samples.q.values)
    fp = compute_formal_powers(constant_function(mesh, 1.0), samples.p, seed_r, n_terms)

    # series sums at lambda = 1: plain Kahan-free sums are fine, the terms
    # decay factorially
    y1 = fp.tilde[0::2].sum(axis=0)
    py1 = fp.tilde[1::2][: n_terms].sum(axis=0)
    y2 = fp.plain[1::2].sum(axis=0)
    py2 = fp.plain[0::2].sum(axis=0)

    tail = float(np.abs(fp.tilde[2 * n_terms][[0, -1]]).max())
    head = float(np.abs(y1[[0, -1]]).max()) or 1.0

    try:
        return _first_verified(samples, _ranked_pairs(y1, y2), y1, py1, y2, py2, 0.0)
    except ParticularResidualError as exc:
        raise SeedFailureError(
            f"seed series did not converge (last term/partial sum = {tail / head:.2e}); "
            f"increase the power count or supply a particular solution: {exc}"
        ) from exc
    except NonvanishingError as exc:
        raise SeedFailureError(
            f"no pair of the {len(_COMBINATIONS) + _SCALED.size}-pair pool yields a "
            "nonvanishing seed solution; "
            "supply a particular solution or start from a nonzero shift"
        ) from exc


def _horner_rows(rows, mu, count):
    """sum_{k<count} mu^k rows[k] over the row axis, by Horner."""
    acc = rows[count - 1].copy()
    for k in range(count - 2, -1, -1):
        acc *= mu
        acc += rows[k]
    return acc


def evaluate_solution(basis, lam):
    """Both basis solutions and their quasi-derivatives at lambda, and the tail.

    Returns ``(u1, pu1, u2, pu2, tail)``: four arrays on the expanded grid and
    the larger of the two series tails.  Any complex lambda is accepted; accuracy
    degrades away from the center, as ``tail`` reports (``_tail_indicator``).
    A sum that overflows gives an infinite tail, and no warning.  The u1 half
    (the first family) and the u2 half (the second) are summed on two threads
    on a long mesh (``powers._in_pair``), with the same bits as inline.
    """
    n = basis.n_terms
    mu = complex(lam) - basis.center
    fp = basis.powers
    fv = basis.particular.f.values
    pfv = basis.particular.pf_prime.values

    # an overflow is reported through the tail, which every caller checks;
    # each half sets errstate itself, because it holds only on its own thread
    def first():
        with np.errstate(over="ignore", invalid="ignore"):
            even = _horner_rows(fp.tilde[0::2], mu, n + 1)
            u1 = fv * even
            pu1 = pfv * even
            if n >= 1:
                odd = _horner_rows(fp.tilde[1::2], mu, n)
                pu1 = pu1 + (mu / fv) * odd
            return u1, pu1, _tail_indicator(mu, n, fp.tilde[2 * n], even)

    def second():
        with np.errstate(over="ignore", invalid="ignore"):
            odd = _horner_rows(fp.plain[1::2], mu, n + 1)
            even = _horner_rows(fp.plain[0::2], mu, n + 1)
            u2 = fv * odd
            pu2 = pfv * odd + even / fv
            return u2, pu2, _tail_indicator(mu, n, fp.plain[2 * n + 1], odd)

    (u1, pu1, tail1), (u2, pu2, tail2) = _in_pair(fp.mesh, first, second)
    return u1, pu1, u2, pu2, max(tail1, tail2)


def _tail_indicator(mu, n, last_row, series_sum):
    """|mu|^n * sup|last term| / sup|partial sum|.

    The sup-norms make the indicator meaningful even where the sum itself
    has a zero (e.g. the second solution at a Dirichlet eigenvalue).
    """
    amp = float(np.abs(last_row).max())
    ref = float(np.abs(series_sum).max())
    if not math.isfinite(ref):  # the sum overflowed: nothing of it can be trusted
        return math.inf
    if amp == 0.0:
        return 0.0
    if mu == 0:
        return 0.0 if n > 0 else amp / max(ref, 1e-300)
    # log-space to survive |mu|^n for large shifts
    log_tail = n * math.log(abs(mu)) + math.log(amp) - math.log(max(ref, 1e-300))
    if log_tail > 700.0:
        return math.inf
    return math.exp(log_tail)


def shift_basis(basis, new_center, n_terms=None):
    """Recentre the basis at ``new_center``, rebuilt with ``n_terms`` powers.

    Evaluates both solutions there and picks the pair that ``_ranked_pairs``
    ranks first for c1*u1 + c2*u2.  ``verify_particular`` checks
    it, and no other pair, while ``basis`` still holds its rows: a failure
    raises ShiftFailureError and leaves ``basis`` as it was.  Only then are
    the rows of ``basis`` freed and the powers built on the combination, so
    one power set is alive at a time.  ``basis`` is read at its own order,
    which the shift never changes; ``n_terms`` (default: that order) sets
    only the order of the new basis.  The returned basis carries the series
    tail at ``new_center`` as ``shift_tail``.
    """
    new_center = complex(new_center)
    n_terms = basis.n_terms if n_terms is None else n_terms
    u1, pu1, u2, pu2, tail = evaluate_solution(basis, new_center)
    if not tail <= TRUST_TAIL_LIMIT:  # also catches NaN
        raise ShiftFailureError(
            f"shift from {basis.center} to {new_center} leaves the trust region "
            f"(series tail {tail:.2e} > {TRUST_TAIL_LIMIT:.0e}); use a smaller step "
            "or more series terms"
        )

    best = _ranked_pairs(u1, u2)[0]
    try:
        ps = _first_verified(basis.samples, (best,), u1, pu1, u2, pu2, new_center)
    except NonvanishingError as exc:
        raise ShiftFailureError(
            f"no combination yields a nonvanishing solution at center {new_center}: "
            f"{exc}; try a smaller displacement"
        ) from exc
    except ParticularResidualError as exc:
        # the recentred solution does not satisfy its equation to tolerance:
        # the shift itself failed (accumulated roundoff or resolution limit)
        raise ShiftFailureError(
            f"shift from {basis.center} to {new_center} lost accuracy: {exc}; "
            "use a smaller displacement, more series terms, or a finer mesh"
        ) from exc
    basis._release()
    shifted = SppsBasis(ps, basis.samples, n_terms)
    shifted.shift_tail = tail
    return shifted
