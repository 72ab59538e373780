"""Smoke test of the benchmark harness under perfbench/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # the traced half checks integrals == builds * 2(2N+1) + verify_calls
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--selftest"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    assert "selftest passed" in proc.stdout


# the scan_small cases of seed 1 that stall at the default mesh; the
# other 25 return six correct eigenvalues
SEED_1_STALLS = {"scan06", "scan14", "scan16", "scan17", "scan22"}


def test_scan_small_seed_1_outcomes(monkeypatch):
    # perfbench's own set-up, sweep and judge, in this process: a raised
    # SolverError or a short result is a stall, a wrong eigenvalue is wrong
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import worker
    import workloads
    from spps import errors, problems, spectral

    cases = workloads.cases_for("scan_small", 1)
    _, prepared = worker.setup_once(cases, problems)
    _, outcomes = worker.solve_once(prepared, errors, spectral)
    statuses = {outcome["case"]: outcome["status"] for outcome in outcomes}
    assert statuses == {
        case.label: "stalled" if case.label in SEED_1_STALLS else "ok" for case in cases
    }
    assert len(statuses) == 30
