"""Benchmark of the spps eigensolver: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_step --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Each run starts ``worker.py`` in a fresh process with BLAS pinned to one
thread, so peak RSS and timings belong to that workload alone.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  The line
before it is a report with the environment, the eigenvalue checksum, the
outcome of every problem and the raw samples.

Workloads (see BENCHMARK.json for the reason each exists):

* ``sweep_step``: example1.prob as shipped, checked against table1.ref;
* ``sweep_complex``: example2_complex.prob as shipped, against table3.ref;
* ``scan_small``: 30 seeded piecewise-constant problems at the default
  mesh, checked against a closed-form transfer-matrix oracle.

``--selftest`` runs the harness end to end, untraced and traced, on the
``trivial`` fixture and checks its results and the integral count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# a run must end within 180 s; leave room for start-up and reporting
RUN_DEADLINE_S = 170.0
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RunFailed(Exception):
    """The worker crashed, timed out or printed no result."""


def run_worker(workload, seed, seconds, trace, deadline):
    """Run worker.py in a fresh process and return its parsed JSON line."""
    env = dict(os.environ, **BLAS_ENV, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def result_line(report, trace):
    """The final line: correctness, counts and the metrics of this mode.

    Metric names and units come from BENCHMARK.json: its end-to-end list
    without tracing, its per-layer list with it.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    correct = report["wrong"] == 0
    if trace:
        correct = correct and report["count_check"]["ok"]
        values, declared = report["layers"], spec["per_layer"]
    else:
        values, declared = report, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_summary(report, line):
    fail_share = report["failed"] / report["attempted"]
    print(
        f"# {report['workload']} seed={report['env']['seed']} "
        f"correct={line['correct']} attempted={report['attempted']} "
        f"failed={report['failed']} fail_share={fail_share:.3f}"
    )
    for name, metric in line["metrics"].items():
        print(f"#   {name:32s} {metric['value']:.6g} {metric['unit']}")
    if "count_check" in report:
        check = report["count_check"]
        print(
            f"#   count check: integrals {check['integrals']} == "
            f"builds*2(2N+1) + verify_calls {check['predicted']}: {check['ok']}"
        )


def selftest():
    """Untraced and traced runs of the trivial fixture; exit code 0 on success."""
    deadline = monotonic() + RUN_DEADLINE_S
    ok = True
    for trace in (0, 1):
        report = run_worker(workloads.SELFTEST, 0, 0.0, trace, deadline)
        line = result_line(report, trace)
        print_summary(report, line)
        ok = ok and line["correct"] and line["failed"] == 0
    print(f"selftest {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spps" / "__init__.py").is_file():
        print(f"perfbench: no solver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        deadline = monotonic() + RUN_DEADLINE_S
        report = run_worker(args.workload, args.seed, args.seconds, args.trace, deadline)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    line = result_line(report, args.trace)
    print_summary(report, line)
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
