"""Per-case outcomes and record digests of the benchmark's cases, in one process.

    python3 tools/outcomes.py run --seeds 1-14,31-40,81,91-100 --fixtures > outcomes.txt
    python3 tools/outcomes.py compare tools/outcomes_baseline.txt outcomes.txt

``run`` takes perfbench's own cases (``perfbench/workloads.py``): the
``scan_small`` problems of each seed and, with ``--fixtures``, the six bundled
fixtures.  It sets each one up as perfbench does (``problems.parse_problem``,
then ``problems.prepare``) and sweeps it with
``spectral.sweep_eigenvalues(problem, config, particular=start)``, importing
the solver from ``src/`` of this checkout.  It prints one line per case,

    <group> <case> <status> <digest>

with group ``seed=N`` or ``fixture`` and status

* ``ok``: every eigenvalue asked for, all passing the case's gate;
* ``stall``: the sweep raised a ``SolverError``;
* ``short``: fewer eigenvalues than asked for, none of them wrong;
* ``wrong``: the gate (``Case.check``, which perfbench's judge applies)
  rejects a returned eigenvalue.

The digest is a SHA-256 prefix over the ``float.hex`` of every field of
every record.  Digests hold only between runs on one machine with one numpy
build: another CPU or BLAS may round differently.

``compare`` names every case whose status or digest differs between two
outputs, prints each side's count of non-ok cases per seed, and exits 1 when
a case differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
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


def outcomes(group, cases, errors, problems, spectral):
    """``(group, label, status, digest)`` for each case, swept in turn."""
    _, prepared = worker.setup_once(cases, problems)
    for case, problem, config, start in prepared:
        try:
            records = spectral.sweep_eigenvalues(problem, config, particular=start)
        except errors.SolverError:
            yield group, case.label, "stall", digest([])
            continue
        eigs = [rec.lam for rec in records]
        if eigs and case.check(eigs) is not None:
            status = "wrong"
        elif len(eigs) < case.expected_count:
            status = "short"
        else:
            status = "ok"
        yield group, case.label, status, digest(records)


def run(args):
    # BLAS pinned to one thread, as perfbench runs its workers, before numpy loads
    os.environ.update(perfbench_run.BLAS_ENV)
    errors, problems, spectral = worker.import_solver()
    import numpy

    print(f"# python {sys.version.split()[0]}, numpy {numpy.__version__}")
    seeds = parse_seeds(args.seeds) if args.seeds else []
    groups = [(f"seed={seed}", workloads.scan_cases(seed)) for seed in seeds]
    if args.fixtures:
        fixture_cases = [workloads._trivial_case()]
        fixture_cases += [workloads._fixture_case(*pair) for pair in FIXTURES]
        groups.append(("fixture", fixture_cases))
    for group, cases in groups:
        for line in outcomes(group, cases, errors, problems, spectral):
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


def non_ok_per_group(table):
    counts = {}
    for (group, _), (status, _) in table.items():
        counts[group] = counts.get(group, 0) + (status != "ok")
    return counts


def _group_order(group):
    """Seeds in numeric order, then the fixtures."""
    kind, _, seed = group.partition("=")
    return kind == "fixture", int(seed or 0)


def compare(args):
    old, new = read(args.old), read(args.new)
    differing = 0
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            differing += 1
            before, after = (" ".join(side.get(key, ("missing",))) for side in (old, new))
            print(f"differs: {' '.join(key)}: {before} -> {after}")
    before, after = non_ok_per_group(old), non_ok_per_group(new)
    print("non-ok cases per group (old -> new):")
    for group in sorted(before.keys() | after.keys(), key=_group_order):
        print(f"  {group}: {before.get(group, '-')} -> {after.get(group, '-')}")
    print(f"{differing} of {len(old.keys() | new.keys())} cases differ")
    return 1 if differing else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="sweep the cases and print one line per case")
    p_run.add_argument("--seeds", default="", help="scan_small seeds, e.g. 1-14,31-40,81")
    p_run.add_argument("--fixtures", action="store_true", help="also run the six fixtures")
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
