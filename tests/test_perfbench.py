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


# the outcome tool's statuses as perfbench's judge names them
PERFBENCH_STATUS = {"ok": "ok", "stall": "stalled", "wrong": "wrong"}


def test_scan_small_seed_1_outcomes(monkeypatch):
    # perfbench's own set-up, sweep and judge, in this process, against seed
    # 1's statuses in the committed baseline of tools/outcomes.py
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import outcomes
    import worker
    import workloads
    from spps import errors, problems, spectral

    cases = workloads.cases_for("scan_small", 1)
    _, prepared = worker.setup_once(cases, problems)
    _, results = worker.solve_once(prepared, errors, spectral)
    statuses = {result["case"]: result["status"] for result in results}
    baseline = outcomes.read(ROOT / "tools" / "outcomes_baseline.txt")
    assert statuses == {
        label: PERFBENCH_STATUS[status]
        for (group, label), (status, _) in baseline.items()
        if group == "seed=1"
    }
    assert len(statuses) == 30
