"""The benchmark's workloads: their inputs and their correctness gates.

A workload is a list of cases.  Each case carries problem-file text (the
program receives nothing else) and a gate that judges the eigenvalues the
sweep returned for it.  Inputs depend only on the seed.

Gates:

* fixture workloads must reproduce their bundled reference table through
  ``problems.match_reference``;
* ``scan_small`` problems have piecewise-constant coefficients, so each
  returned eigenvalue is checked against a closed-form transfer-matrix
  mismatch written here, independent of the solver's own basis and
  spectral code;
* ``trivial`` (the harness self-test) has eigenvalues -(k pi)^2.

A stalled sweep (``SweepStalledError``) or a short result counts as a
failed case.  On ``scan_small`` stalls are real behaviour at the default
mesh and leave the gate passing; on the fixtures anything short of a full
reference match fails the gate.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

# scan_small: problems per pass and the ranges the coefficients are drawn
# from.  The defaults of SolverConfig (M=2000, N=40) apply; only the
# eigenvalue count is set.
SCAN_COUNT = 30
SCAN_EIGS = 6
SCAN_PIECES = (2, 3, 4)
SCAN_BCS = ("dirichlet", "neumann", "robin")
ORACLE_REL_TOL = 1e-8

FIXTURES = {
    "sweep_step": ("example1.prob", "table1.ref"),
    "sweep_complex": ("example2_complex.prob", "table3.ref"),
}
NAMES = ("sweep_step", "sweep_complex", "scan_small")
SELFTEST = "trivial"


@dataclass
class Case:
    """One problem: its file text and the gate for its eigenvalues.

    ``check(eigs)`` returns None when the eigenvalues pass, else a message.
    ``stall_ok`` marks cases whose stalls count as failures but not as
    wrong results.
    """

    label: str
    text: str
    expected_count: int
    check: object
    stall_ok: bool = False
    kind: dict = field(default_factory=dict)


def cases_for(name, seed):
    """The cases of workload ``name`` for ``seed``."""
    if name in FIXTURES:
        return [_fixture_case(*FIXTURES[name])]
    if name == "scan_small":
        return scan_cases(seed)
    if name == SELFTEST:
        return [_trivial_case()]
    raise ValueError(f"unknown workload {name!r}")


def kind_shares(cases):
    """Share of each generated kind (piece count, boundary conditions)."""
    counts = {}
    for case in cases:
        for key, value in case.kind.items():
            tag = f"{key}={value}"
            counts[tag] = counts.get(tag, 0) + 1
    return {tag: n / len(cases) for tag, n in sorted(counts.items())}


# ---------------------------------------------------------------------------
# Fixtures


def _fixture_case(prob_name, ref_name):
    from spps import problems

    text = problems.fixture_path(prob_name).read_text(encoding="utf-8")
    rows = problems.load_reference(problems.fixture_path(ref_name))

    def check(eigs):
        if not eigs:
            return "no eigenvalues"
        bad = [
            f"n={n}: |{best:.15g} - {ref:.15g}| = {err:.2e} > {tol:.0e}"
            for n, ref, best, err, tol, ok in problems.match_reference(eigs, rows)
            if not ok
        ]
        return "; ".join(bad) or None

    count = problems.parse_problem(text).solver.max_eigenvalues
    return Case(label=prob_name, text=text, expected_count=count, check=check)


def _trivial_case():
    from spps import problems

    text = problems.fixture_path("trivial.prob").read_text(encoding="utf-8")
    count = problems.parse_problem(text).solver.max_eigenvalues
    exact = [-((k * math.pi) ** 2) for k in range(1, count + 1)]

    def check(eigs):
        got = sorted(eigs, key=lambda z: -z.real)
        bad = [
            f"{z:.15g} vs {x:.15g}"
            for z, x in zip(got, exact)
            if abs(z - x) > ORACLE_REL_TOL * max(1.0, abs(x))
        ]
        return "; ".join(bad) or None

    return Case(label="trivial.prob", text=text, expected_count=count, check=check)


# ---------------------------------------------------------------------------
# scan_small: seeded piecewise-constant problems


@dataclass(frozen=True)
class ScanSpec:
    """A piecewise-constant problem: pieces (lo, hi, p, q, r) and two BCs.

    A boundary condition is (kind, alpha, beta) for
    alpha*u + beta*(p u') = 0.
    """

    pieces: tuple
    left: tuple
    right: tuple


def _draw_bc(rng):
    kind = rng.choice(SCAN_BCS)
    if kind == "dirichlet":
        return kind, 1.0, 0.0
    if kind == "neumann":
        return kind, 0.0, 1.0
    return kind, 1.0, round(rng.uniform(0.2, 2.0), 4)


def draw_spec(rng):
    """One random problem on [-1, 1] with 2-4 pieces, p<0, r>0."""
    n = rng.choice(SCAN_PIECES)
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(weights)
    cuts = [-1.0]
    for w in weights[:-1]:
        cuts.append(round(cuts[-1] + 2.0 * w / total, 6))
    cuts.append(1.0)
    pieces = tuple(
        (
            cuts[i],
            cuts[i + 1],
            -round(rng.uniform(0.5, 2.0), 4),
            round(rng.uniform(-5.0, 5.0), 4),
            round(rng.uniform(0.5, 2.0), 4),
        )
        for i in range(n)
    )
    return ScanSpec(pieces=pieces, left=_draw_bc(rng), right=_draw_bc(rng))


def spec_to_text(spec):
    """Problem-file text for a ScanSpec at the default mesh and power count."""
    lines = ["[interval]", "a = -1", "b = 1", ""]
    for lo, hi, p, q, r in spec.pieces:
        lines += [
            "[piece]",
            f"from = {lo!r}",
            f"to = {hi!r}",
            f'p = "{p!r}"',
            f'q = "{q!r}"',
            f'r = "{r!r}"',
            "",
        ]
    for name, (_, alpha, beta) in (("bc_left", spec.left), ("bc_right", spec.right)):
        lines += [f"[{name}]", f"alpha = {alpha!r}", f"beta = {beta!r}", "derivative = p_u_prime", ""]
    lines += ["[solver]", f"max_eigenvalues = {SCAN_EIGS}"]
    return "\n".join(lines) + "\n"


def mismatch(spec, lam):
    """Right boundary form of the solution that satisfies the left one.

    Propagates (u, p u') across each constant piece with the exact transfer
    matrix of p u'' + (q - lam r) u = 0; zero exactly at eigenvalues.
    """
    _, alpha_l, beta_l = spec.left
    u, pu = complex(beta_l), complex(-alpha_l)
    for lo, hi, p, q, r in spec.pieces:
        length = hi - lo
        k2 = (lam * r - q) / p  # u'' = k2 u
        s = cmath.sqrt(k2)
        c = cmath.cosh(s * length)
        sinc = length if abs(s * length) < 1e-12 else cmath.sinh(s * length) / s
        u, pu = c * u + sinc / p * pu, (lam * r - q) * sinc * u + c * pu
    _, alpha_r, beta_r = spec.right
    return alpha_r * u + beta_r * pu


def oracle_root(spec, lam, steps=60):
    """Newton on the closed-form mismatch, started at ``lam``."""
    lam = complex(lam)
    for _ in range(steps):
        h = 1e-6 * (1.0 + abs(lam))
        slope = (mismatch(spec, lam + h) - mismatch(spec, lam - h)) / (2.0 * h)
        if slope == 0:
            break
        step = mismatch(spec, lam) / slope
        lam -= step
        if abs(step) <= 1e-15 * (1.0 + abs(lam)):
            break
    return lam


def _scan_check(spec):
    def check(eigs):
        bad = []
        for z in eigs:
            root = oracle_root(spec, z)
            if abs(z - root) > ORACLE_REL_TOL * max(1.0, abs(root)):
                bad.append(f"{z:.15g} vs oracle {root:.15g}")
        return "; ".join(bad) or None

    return check


def scan_cases(seed, count=SCAN_COUNT):
    """``count`` seeded problems, unfiltered: stalls stay in the set."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        spec = draw_spec(rng)
        cases.append(
            Case(
                label=f"scan{i:02d}",
                text=spec_to_text(spec),
                expected_count=SCAN_EIGS,
                check=_scan_check(spec),
                stall_ok=True,
                kind={
                    "pieces": len(spec.pieces),
                    "bc": f"{spec.left[0]}/{spec.right[0]}",
                },
            )
        )
    return cases
