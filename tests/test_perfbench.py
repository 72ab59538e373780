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
