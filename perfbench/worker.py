"""One workload run in a fresh process; prints one JSON line.

Started by ``run.py`` with BLAS pinned to one thread.  Imports the solver
from ``src/`` of the checkout it sits in and calls only its public
functions: ``problems.parse_problem``, ``problems.prepare`` and
``spectral.sweep_eigenvalues``.

Untraced (``--trace 0``): set up every case several times and keep the
median (``setup_s``), then solve every case in passes until ``--seconds``
have passed, at least once, and keep the median pass (``solve_s``).

Traced (``--trace 1``): one untraced set-up and pass, then the same with
the tracer installed; the per-layer numbers come from the traced pass and
``trace.overhead_s`` is the difference of the two solve times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# set-up is repeated at least this often, and until this much time has passed
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 50


def import_solver():
    """The spps package from this checkout's src/, never an installed one."""
    sys.path.insert(0, str(SRC))
    try:
        import spps
        from spps import errors, problems, spectral
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import spps from {SRC}: {exc}")
    if Path(spps.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: imported spps from {spps.__file__}, not {SRC}")
    return errors, problems, spectral


def setup_once(cases, problems, tracer=None):
    """Parse and prepare every case; returns (seconds, prepared)."""
    elapsed = 0.0
    prepared = []
    for case in cases:
        if tracer is not None:
            tracer.case = case.label
        t0 = perf_counter()
        problem = problems.parse_problem(case.text)
        config, _, _, _, start = problems.prepare(problem)
        elapsed += perf_counter() - t0
        prepared.append((case, problem, config, start))
    return elapsed, prepared


def solve_once(prepared, errors, spectral, tracer=None):
    """Sweep every prepared case and judge it; returns (seconds, outcomes)."""
    elapsed = 0.0
    outcomes = []
    for case, problem, config, start in prepared:
        if tracer is not None:
            tracer.case = case.label
        t0 = perf_counter()
        try:
            records = spectral.sweep_eigenvalues(problem, config, particular=start)
            error = None
        except errors.SolverError as exc:
            records = []
            error = f"{type(exc).__name__}: {exc}"
        elapsed += perf_counter() - t0
        outcomes.append(judge(case, [rec.lam for rec in records], error))
    return elapsed, outcomes


def judge(case, eigs, error):
    """Outcome of one case: ok, stalled (failed) or wrong (failed, incorrect)."""
    message = case.check(eigs) if eigs else None
    short = len(eigs) < case.expected_count
    if message is not None:
        status = "wrong"
    elif error is not None or short:
        status = "stalled" if case.stall_ok else "wrong"
        message = error or f"short result: {len(eigs)} of {case.expected_count}"
    else:
        status = "ok"
    return {"case": case.label, "status": status, "message": message, "eigs": eigs}


def checksum(outcomes):
    """sum over cases and eigenvalues of (k+1)*lambda_k, as [re, im]."""
    total = sum(
        (k + 1) * lam for outcome in outcomes for k, lam in enumerate(outcome["eigs"])
    )
    total = complex(total)
    return [total.real, total.imag]


def environment(seed):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
    }


def git_sha(root):
    """HEAD of the checkout's git repository, or None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def measure(cases, seconds, errors, problems, spectral):
    setup_samples = []
    while len(setup_samples) < SETUP_MIN_REPS or (
        sum(setup_samples) < SETUP_MIN_SECONDS and len(setup_samples) < SETUP_MAX_REPS
    ):
        elapsed, prepared = setup_once(cases, problems)
        setup_samples.append(elapsed)

    solve_samples = []
    passes = []
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        elapsed, outcomes = solve_once(prepared, errors, spectral)
        solve_samples.append(elapsed)
        passes.append(outcomes)
    return {
        "setup_s": statistics.median(setup_samples),
        "solve_s": statistics.median(solve_samples),
        "setup_samples": setup_samples,
        "solve_samples": solve_samples,
        "passes": passes,
    }


def measure_traced(cases, errors, problems, spectral):
    from tracer import Tracer

    _, prepared = setup_once(cases, problems)
    untraced, plain = solve_once(prepared, errors, spectral)
    del prepared
    tracer = Tracer()
    tracer.install()
    _, prepared = setup_once(cases, problems, tracer)
    traced, outcomes = solve_once(prepared, errors, spectral, tracer)
    layers, count_check = tracer.layer_metrics()
    layers["trace.overhead_s"] = traced - untraced
    return {
        "layers": layers,
        "count_check": count_check,
        "solve_untraced_s": untraced,
        "solve_traced_s": traced,
        "spans": len(tracer.spans),
        "passes": [plain, outcomes],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    errors, problems, spectral = import_solver()
    cases = workloads.cases_for(args.workload, args.seed)
    if args.trace:
        result = measure_traced(cases, errors, problems, spectral)
    else:
        result = measure(cases, args.seconds, errors, problems, spectral)

    passes = result.pop("passes")
    flat = [outcome for outcomes in passes for outcome in outcomes]
    result.update(
        workload=args.workload,
        attempted=len(flat),
        failed=sum(o["status"] != "ok" for o in flat),
        wrong=sum(o["status"] == "wrong" for o in flat),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checksum=checksum(passes[0]),
        eigenvalues={o["case"]: [[z.real, z.imag] for z in o["eigs"]] for o in passes[0]},
        problems={o["case"]: o["status"] for o in passes[0]},
        messages=sorted({f"{o['case']}: {o['message']}" for o in flat if o["message"]}),
        kinds=workloads.kind_shares(cases),
        env=environment(args.seed),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
