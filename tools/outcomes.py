"""Per-case outcomes and record digests of the benchmark's cases, in one process.

    python3 tools/outcomes.py run --seeds 1-14,31-40,81,91-100 --fixtures > outcomes.txt
    python3 tools/outcomes.py compare tools/outcomes_baseline.txt outcomes.txt
    python3 tools/outcomes.py run --seeds 1-2 --delta 20 > delta20.txt
    python3 tools/outcomes.py run --seeds 1-3 --policy fixed_center > fixed.txt
    python3 tools/outcomes.py run --seeds 1-2 --complex --policy previous_if_upper_half

``run`` takes perfbench's own cases (``perfbench/workloads.py``): the
``scan_small`` problems of each seed and, with ``--fixtures``, the six bundled
fixtures.  It sets each one up as perfbench does (``problems.parse_problem``,
then ``problems.prepare``) and sweeps it with
``spectral.sweep_eigenvalues(problem, config, particular=start)``, importing
the solver from ``src/`` of this checkout.  With ``--delta D`` every case's
solver settings get delta = D (parsed as ``spps solve --delta`` parses it)
before ``prepare``, and the header names D; ``--policy P`` does the same for
the shift policy.  With ``--complex`` each ``scan_small`` piece's q gains an
imaginary part drawn from ``random.Random(10_000 + seed).uniform(-3, 3)``,
rounded to 12 decimals, in case and piece order; the case keeps its
closed-form gate, which takes complex q as it is.  It prints one line per
case,

    <group> <case> <status> <digest>

with group ``seed=N`` or ``fixture`` and status

* ``ok``: every eigenvalue asked for, all passing the case's gate;
* ``stall``: the sweep raised a ``SolverError`` whose records all pass the gate;
* ``wrong``: the gate (``Case.check``, which perfbench's judge applies)
  rejects an eigenvalue the sweep returned or a stall carried (wrong wins
  over stall).

The digest is a SHA-256 prefix over the ``float.hex`` of every field of
every record; a stall's digest covers the records its ``SolverError``
carries.  Digests hold only between runs on one machine with one numpy
build: another CPU or BLAS may round differently.

``compare`` names every case whose status or digest differs between two
outputs, prints each side's count of non-ok cases per seed and its totals
per status, lists every case that was ok and no longer is, and ends with a
verdict: whether any ok case got worse and whether any group's non-ok count
rose.  It exits 1 when a case differs, whatever the verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as checked out

import run as perfbench_run  # noqa: E402  (perfbench/run.py)
import worker  # noqa: E402  (perfbench/worker.py)
import workloads  # noqa: E402  (perfbench/workloads.py)

# the six bundled fixtures and their reference tables
FIXTURES = (
    ("example1.prob", "table1.ref"),
    ("example2_real.prob", "table2.ref"),
    ("example2_complex.prob", "table3.ref"),
    ("example3.prob", "table4.ref"),
    ("example4.prob", "table5.ref"),
)


def parse_seeds(text):
    """``"1-3,81"`` -> [1, 2, 3, 81]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def digest(records):
    fields = []
    for rec in records:
        fields.append(str(rec.index))
        for value in (rec.lam, rec.center_used):
            fields += [value.real.hex(), value.imag.hex()]
        fields += [float(rec.validation_residual).hex(), float(rec.tail_indicator).hex()]
    return hashlib.sha256(" ".join(fields).encode()).hexdigest()[:16]


class _ProblemComplex(complex):
    """A complex q that ``workloads.spec_to_text`` writes in problem-file syntax."""

    def __repr__(self):
        return f"{self.real!r}{self.imag:+}i"


def complex_cases(seed):
    """``workloads.scan_cases(seed)`` with an imaginary part on each piece's q."""
    specs, imag = random.Random(seed), random.Random(10_000 + seed)
    cases = []
    for case in workloads.scan_cases(seed):
        spec = workloads.draw_spec(specs)  # the spec scan_cases drew for this case
        pieces = tuple(
            (lo, hi, p, _ProblemComplex(q, round(imag.uniform(-3.0, 3.0), 12)), r)
            for lo, hi, p, q, r in spec.pieces
        )
        spec = dataclasses.replace(spec, pieces=pieces)
        text, check = workloads.spec_to_text(spec), workloads._scan_check(spec)
        cases.append(dataclasses.replace(case, text=text, check=check))
    return cases


def outcomes(group, cases, errors, problems, spectral, **overrides):
    """``(group, label, status, digest)`` for each case, swept in turn.

    ``overrides`` (delta, policy) replace each case's solver settings before
    ``prepare``.
    """
    for case in cases:
        problem = problems.with_overrides(problems.parse_problem(case.text), **overrides)
        config, _, _, _, start = problems.prepare(problem)
        try:
            records = spectral.sweep_eigenvalues(problem, config, particular=start)
            status = "ok"
        except errors.SolverError as exc:
            records, status = exc.records, "stall"
        # wrong wins over stall: the records a stall carries face the gate too
        if records and case.check([rec.lam for rec in records]) is not None:
            status = "wrong"
        yield group, case.label, status, digest(records)


def run(args):
    # BLAS pinned to one thread, as perfbench runs its workers, before numpy loads
    os.environ.update(perfbench_run.BLAS_ENV)
    errors, problems, spectral = worker.import_solver()
    import numpy

    print(f"# python {sys.version.split()[0]}, numpy {numpy.__version__}")
    overrides = {}
    if args.delta is not None:
        overrides["delta"] = problems.parse_complex(args.delta)
        print(f"# every case solved with delta = {problems.format_complex(overrides['delta'])}")
    if args.policy is not None:
        if args.policy not in problems.POLICIES:
            raise SystemExit(f"unknown policy {args.policy!r}; pick one of {problems.POLICIES}")
        overrides["policy"] = args.policy
        print(f"# every case solved with policy = {args.policy}")
    if args.complex:
        print("# every scan_small piece's q made complex, from random.Random(10000 + seed)")
    seeds = parse_seeds(args.seeds) if args.seeds else []
    draw = complex_cases if args.complex else workloads.scan_cases
    groups = [(f"seed={seed}", draw(seed)) for seed in seeds]
    if args.fixtures:
        fixture_cases = [workloads._trivial_case()]
        fixture_cases += [workloads._fixture_case(*pair) for pair in FIXTURES]
        groups.append(("fixture", fixture_cases))
    for group, cases in groups:
        for line in outcomes(group, cases, errors, problems, spectral, **overrides):
            print(" ".join(line), flush=True)
    return 0


def read(path):
    """``{(group, case): (status, digest)}`` from a ``run`` output."""
    table = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            group, label, status, digest_ = line.split()
            table[group, label] = (status, digest_)
    return table


STATUSES = ("ok", "stall", "wrong")


def non_ok_per_group(table):
    counts = {}
    for (group, _), (status, _) in table.items():
        counts[group] = counts.get(group, 0) + (status != "ok")
    return counts


def _group_order(group):
    """Seeds in numeric order, then the fixtures."""
    kind, _, seed = group.partition("=")
    return kind == "fixture", int(seed or 0)


def _case_order(key):
    group, label = key
    return _group_order(group), label


def compare(args):
    old, new = read(args.old), read(args.new)
    differing = 0
    for key in sorted(old.keys() | new.keys(), key=_case_order):
        if old.get(key) != new.get(key):
            differing += 1
            before, after = (" ".join(side.get(key, ("missing",))) for side in (old, new))
            print(f"differs: {' '.join(key)}: {before} -> {after}")
    before, after = non_ok_per_group(old), non_ok_per_group(new)
    print("non-ok cases per group (old -> new):")
    risen = 0
    for group in sorted(before.keys() | after.keys(), key=_group_order):
        print(f"  {group}: {before.get(group, '-')} -> {after.get(group, '-')}")
        risen += after.get(group, 0) > before.get(group, 0)
    totals = [[status for status, _ in side.values()] for side in (old, new)]
    print(
        "totals (old -> new): "
        + ", ".join(f"{s} {totals[0].count(s)} -> {totals[1].count(s)}" for s in STATUSES)
    )
    lost = [key for key in sorted(old, key=_case_order)
            if old[key][0] == "ok" and new.get(key, ("missing",))[0] != "ok"]
    print(f"ok cases no longer ok: {len(lost)}")
    for key in lost:
        print(f"  {' '.join(key)}: ok -> {new.get(key, ('missing',))[0]}")
    print(f"{differing} of {len(old.keys() | new.keys())} cases differ")
    print(
        "verdict: "
        + (f"ok cases got worse: {len(lost)}" if lost else "no ok case got worse")
        + "; "
        + (f"groups whose non-ok count rose: {risen}" if risen else "no group's non-ok count rose")
    )
    return 1 if differing else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="sweep the cases and print one line per case")
    p_run.add_argument("--seeds", default="", help="scan_small seeds, e.g. 1-14,31-40,81")
    p_run.add_argument("--fixtures", action="store_true", help="also run the six fixtures")
    p_run.add_argument("--delta", default=None, help="solve every case with this delta instead")
    p_run.add_argument("--policy", default=None, help="solve every case with this shift policy")
    p_run.add_argument(
        "--complex", action="store_true", help="give each scan_small piece's q an imaginary part"
    )
    p_run.set_defaults(func=run)
    p_cmp = sub.add_parser("compare", help="name the cases whose status or digest differ")
    p_cmp.add_argument("old")
    p_cmp.add_argument("new")
    p_cmp.set_defaults(func=compare)
    args = parser.parse_args(argv)
    if args.command == "run" and not (args.seeds or args.fixtures):
        parser.error("run needs --seeds or --fixtures")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
