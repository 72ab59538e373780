"""The per-case outcome tool under tools/."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tools" / "outcomes_baseline.txt"


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import outcomes

    return outcomes


def test_parse_seeds(monkeypatch):
    outcomes = _tool(monkeypatch)
    assert outcomes.parse_seeds("1-3,81,91-92") == [1, 2, 3, 81, 91, 92]


def test_compare_names_each_differing_case(monkeypatch, tmp_path, capsys):
    outcomes = _tool(monkeypatch)
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("# header\nseed=2 scan00 ok aa\nseed=2 scan01 stall bb\nseed=10 scan00 ok cc\n")
    new.write_text("seed=2 scan00 ok aa\nseed=2 scan01 ok dd\nseed=10 scan00 ok cc\n")
    assert outcomes.main(["compare", str(old), str(old)]) == 0
    capsys.readouterr()
    assert outcomes.main(["compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "differs: seed=2 scan01: stall bb -> ok dd",
        "non-ok cases per group (old -> new):",
        "  seed=2: 1 -> 0",
        "  seed=10: 0 -> 0",
        "1 of 3 cases differ",
    ]


def test_seed_1_statuses_match_the_baseline(monkeypatch):
    # statuses, unlike digests, do not depend on the machine's rounding
    outcomes = _tool(monkeypatch)
    import workloads
    from spps import errors, problems, spectral

    got = {
        label: status
        for _, label, status, _ in outcomes.outcomes(
            "seed=1", workloads.scan_cases(1), errors, problems, spectral
        )
    }
    baseline = {
        label: status for (group, label), (status, _) in outcomes.read(BASELINE).items()
        if group == "seed=1"
    }
    assert got == baseline
    assert sorted(label for label, status in got.items() if status != "ok") == [
        "scan06", "scan14", "scan16", "scan17", "scan22"
    ]
