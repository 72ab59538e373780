"""Command-line front end.

Commands
    solve      run the eigenvalue sweep and print a result table
    landscape  export -log|Phi| on a grid around a center
    count      count zeros inside a disk by the argument principle
    verify     compare solve output against a reference table
    powers     print formal power values at a point (debug surface)

Exit codes: 0 success, 2 malformed input, 3 solver failure (running out of
memory included).  All tabular output is comma-separated UTF-8 with
metadata on leading ``#`` lines and numbers printed to 16 significant digits.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .basis import build_basis
from .errors import InputError, SolverError
from .mesh import subinterval_counts
from .problems import (
    POLICIES,
    format_complex,
    load_problem,
    load_reference,
    match_reference,
    parse_complex,
    prepare,
    with_overrides,
)
from .spectral import characteristic_at, count_zeros, landscape_of, sweep_eigenvalues

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _fmt(value):
    return f"{value:.16g}"


def _add_common_overrides(parser):
    parser.add_argument("problem", help="problem definition file")
    parser.add_argument("--n-powers", type=int, default=None, help="series truncation N")
    parser.add_argument("--mesh", type=int, default=None, help="requested subinterval count M")


def _add_sweep_overrides(parser):
    # --delta stays a string here: parse_complex runs inside main's error mapping
    parser.add_argument("--delta", default=None, help="center displacement per step (complex)")
    parser.add_argument("--policy", default=None, choices=POLICIES, help="shift schedule policy")
    parser.add_argument("--max-eigs", type=int, default=None, help="stop after this many eigenvalues")
    parser.add_argument("--threshold", type=float, default=None, help="validation residual threshold")


# flag destination -> SolverConfig field
_OVERRIDES = {
    "n_powers": "n_terms",
    "mesh": "mesh_m",
    "delta": "delta",
    "policy": "policy",
    "max_eigs": "max_eigenvalues",
    "threshold": "accept_threshold",
}


def _load_with_overrides(args):
    problem = load_problem(args.problem)
    overrides = {
        field: getattr(args, flag)
        for flag, field in _OVERRIDES.items()
        if getattr(args, flag, None) is not None
    }
    if "delta" in overrides:
        overrides["delta"] = parse_complex(overrides["delta"])
    return with_overrides(problem, **overrides) if overrides else problem


def _result_lines(problem, records, elapsed):
    m = sum(subinterval_counts(problem.interval, problem.pieces, problem.solver.mesh_m))
    lines = [
        f"# n_powers={problem.solver.n_terms} mesh_effective={m} "
        f"runtime_s={elapsed:.3f}",
        "n,re_lambda,im_lambda,residual,center",
    ]
    for rec in records:
        lines.append(
            f"{rec.index},{_fmt(rec.lam.real)},{_fmt(rec.lam.imag)},"
            f"{_fmt(rec.validation_residual)},{format_complex(rec.center_used)}"
        )
    return lines


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text, encoding="utf-8")


def cmd_solve(args):
    problem = _load_with_overrides(args)
    start = time.perf_counter()
    records = sweep_eigenvalues(problem)
    elapsed = time.perf_counter() - start
    _emit(_result_lines(problem, records, elapsed), args.out)
    wanted = problem.solver.max_eigenvalues
    if len(records) < wanted:
        # the walk stopped early: the table is all that was found, not an answer
        print(
            f"solver error: sweep stopped after {len(records)} of {wanted} eigenvalues",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    return EXIT_OK


def cmd_landscape(args):
    problem = _load_with_overrides(args)
    center = parse_complex(args.center)
    phi = characteristic_at(problem, center)
    matrix, meta = landscape_of(phi, center, args.radius, args.grid)
    lines = [
        f"# center={format_complex(meta['center'])} radius={_fmt(meta['radius'])} "
        f"grid={meta['grid']} trust_radius={_fmt(meta['trust_radius'])} "
        f"outside_trust_fraction={_fmt(meta['outside_trust_fraction'])}"
    ]
    for row in matrix:
        lines.append(",".join(_fmt(v) for v in row))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_count(args):
    problem = _load_with_overrides(args)
    center = parse_complex(args.center)
    phi = characteristic_at(problem, center)
    n = count_zeros(phi.evaluate, center, args.radius, samples=args.samples)
    sys.stdout.write(f"{n}\n")
    return EXIT_OK


def cmd_verify(args):
    problem = _load_with_overrides(args)
    references = load_reference(args.reference)
    records = sweep_eigenvalues(problem)
    report = match_reference([rec.lam for rec in records], references)
    lines = ["n,reference,computed,abs_error,tolerance,status"]
    for n_ref, value, best, err, tol, ok in report:
        lines.append(
            f"{n_ref},{format_complex(value)},{format_complex(best)},"
            f"{_fmt(err)},{_fmt(tol)},{'pass' if ok else 'FAIL'}"
        )
    _emit(lines, args.out)
    return EXIT_OK if all(row[-1] for row in report) else EXIT_SOLVER


def cmd_powers(args):
    problem = _load_with_overrides(args)
    n_max = 2 * problem.solver.n_terms + 1
    if not 0 <= args.n <= n_max:
        raise InputError(f"power index must be in 0..{n_max}")
    config, samples, _, _, particular = prepare(problem, None, None)
    fp = build_basis(particular, samples, config.n_terms).powers
    slot = samples.mesh.slot_of(args.at)
    x = samples.mesh.xs[slot]
    sys.stdout.write(
        f"x={_fmt(x)} tilde_{args.n}={format_complex(fp.tilde[args.n][slot])} "
        f"plain_{args.n}={format_complex(fp.plain[args.n][slot])}\n"
    )
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spps",
        description="Sturm-Liouville eigenvalue solver based on spectral parameter power series",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute eigenvalues and print a table")
    _add_common_overrides(p_solve)
    _add_sweep_overrides(p_solve)
    p_solve.add_argument("--out", default=None, help="also write the table to this file")
    p_solve.set_defaults(func=cmd_solve)

    p_land = sub.add_parser("landscape", help="export -log|Phi| on a grid")
    _add_common_overrides(p_land)
    p_land.add_argument("--center", default="0", help="disk center (complex)")
    p_land.add_argument("--radius", type=float, required=True, help="disk radius")
    p_land.add_argument("--grid", type=int, default=64, help="grid points per side")
    p_land.add_argument("--out", default=None, help="also write the matrix to this file")
    p_land.set_defaults(func=cmd_landscape)

    p_count = sub.add_parser("count", help="count zeros in a disk (argument principle)")
    _add_common_overrides(p_count)
    p_count.add_argument("--center", default="0", help="disk center (complex)")
    p_count.add_argument("--radius", type=float, required=True, help="disk radius")
    p_count.add_argument("--samples", type=int, default=512, help="initial contour samples")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="check solve output against a reference table")
    _add_common_overrides(p_verify)
    _add_sweep_overrides(p_verify)
    p_verify.add_argument("reference", help="reference file with rows 'n,value,tolerance'")
    p_verify.add_argument("--out", default=None, help="also write the report to this file")
    p_verify.set_defaults(func=cmd_verify)

    p_powers = sub.add_parser("powers", help="print formal power values at a mesh node")
    _add_common_overrides(p_powers)
    p_powers.add_argument("--n", type=int, required=True, help="power index")
    p_powers.add_argument("--at", type=float, required=True, help="evaluation point (mesh node)")
    p_powers.set_defaults(func=cmd_powers)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, MemoryError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
