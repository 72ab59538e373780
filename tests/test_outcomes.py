"""The per-case outcome tool under tools/."""

import dataclasses
import os
import sys
import types
from pathlib import Path

import pytest

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
    new.write_text("seed=2 scan00 ok aa\nseed=2 scan01 ok dd\nseed=10 scan00 wrong ee\n")
    assert outcomes.main(["compare", str(old), str(old)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "verdict: no ok case got worse; no group's non-ok count rose"
    )
    assert outcomes.main(["compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "differs: seed=2 scan01: stall bb -> ok dd",
        "differs: seed=10 scan00: ok cc -> wrong ee",
        "non-ok cases per group (old -> new):",
        "  seed=2: 1 -> 0",
        "  seed=10: 0 -> 1",
        "totals (old -> new): ok 2 -> 2, stall 1 -> 0, wrong 0 -> 1",
        "ok cases no longer ok: 1",
        "  seed=10 scan00: ok -> wrong",
        "2 of 3 cases differ",
        "verdict: ok cases got worse: 1; groups whose non-ok count rose: 1",
    ]


def test_a_stall_whose_records_fail_the_gate_reads_wrong(monkeypatch):
    # wrong wins over stall: the records a stall carries face the case's gate
    outcomes = _tool(monkeypatch)
    import workloads
    from spps import errors, problems, spectral

    case = workloads.scan_cases(1)[0]
    records = spectral.sweep_eigenvalues(problems.parse_problem(case.text))
    assert case.check([rec.lam for rec in records]) is None
    moved = [dataclasses.replace(records[0], lam=records[0].lam + 1.0)]

    def stalling(carried):
        def sweep_eigenvalues(problem, config, particular):
            exc = errors.SweepStalledError("no further candidate")
            exc.records = carried
            raise exc

        return types.SimpleNamespace(sweep_eigenvalues=sweep_eigenvalues)

    statuses = {}
    for name, carried in (("passing", records[:2]), ("rejected", moved), ("none", [])):
        ((_, _, status, digest),) = outcomes.outcomes(
            "seed=1", [case], errors, problems, stalling(carried)
        )
        statuses[name] = status
        assert digest == outcomes.digest(carried)
    assert statuses == {"passing": "stall", "rejected": "wrong", "none": "stall"}


def _seed_1_statuses(outcomes, baseline, cases, **overrides):
    """Seed 1's statuses as swept here and as ``baseline`` records them."""
    from spps import errors, problems, spectral

    got = {
        label: status
        for _, label, status, _ in outcomes.outcomes(
            "seed=1", cases, errors, problems, spectral, **overrides
        )
    }
    table = outcomes.read(baseline)
    return got, {label: status for (group, label), (status, _) in table.items() if group == "seed=1"}


def test_seed_1_statuses_match_the_baseline(monkeypatch):
    # statuses, unlike digests, do not depend on the machine's rounding
    outcomes = _tool(monkeypatch)
    import workloads

    got, baseline = _seed_1_statuses(outcomes, BASELINE, workloads.scan_cases(1))
    assert got == baseline
    assert sorted(label for label, status in got.items() if status != "ok") == [
        "scan14", "scan16"
    ]


@pytest.mark.parametrize(
    "baseline, overrides, complex_q, stalls",
    [
        ("outcomes_baseline_fixed_center.txt", {"policy": "fixed_center"}, False, 22),
        ("outcomes_baseline_complex_upper.txt", {"policy": "previous_if_upper_half"}, True, 0),
        ("outcomes_baseline_delta20.txt", {"delta": "20"}, False, 4),
    ],
    ids=["fixed_center", "complex-previous_if_upper_half", "delta20"],
)
def test_seed_1_statuses_match_each_policy_baseline(monkeypatch, baseline, overrides, complex_q, stalls):
    outcomes = _tool(monkeypatch)
    import workloads
    from spps import problems

    if "delta" in overrides:  # parsed as ``run --delta`` parses it
        overrides = dict(overrides, delta=problems.parse_complex(overrides["delta"]))
    cases = outcomes.complex_cases(1) if complex_q else workloads.scan_cases(1)
    got, recorded = _seed_1_statuses(outcomes, BASELINE.parent / baseline, cases, **overrides)
    assert got == recorded
    assert list(got.values()).count("stall") == stalls
    assert "wrong" not in got.values()


def test_complex_cases_add_an_imaginary_part_to_each_q(monkeypatch):
    outcomes = _tool(monkeypatch)
    import workloads
    from spps import expressions, problems

    real, made = workloads.scan_cases(2), outcomes.complex_cases(2)
    assert [case.label for case in made] == [case.label for case in real]
    for before, after in zip(real, made):
        old, new = (problems.parse_problem(case.text).pieces for case in (before, after))
        assert [piece.lo for piece in new] == [piece.lo for piece in old]
        for a, b in zip(old, new):
            q_old, q_new = (expressions.const_value(piece.q) for piece in (a, b))
            assert q_new.real == q_old.real and q_old.imag == 0 and 0 < abs(q_new.imag) <= 3


def test_run_replaces_delta_in_every_case(monkeypatch, capsys):
    outcomes = _tool(monkeypatch)
    import workloads
    from spps import errors, problems, spectral

    cases = workloads.scan_cases(1)[:2]
    monkeypatch.setattr(workloads, "scan_cases", lambda seed: cases)
    monkeypatch.setattr(os, "environ", dict(os.environ))  # run pins BLAS threads
    assert outcomes.main(["run", "--seeds", "1", "--delta", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "# every case solved with delta = 20"
    assert len(lines) == 2 + len(cases)
    for case, line in zip(cases, lines[2:]):
        problem = problems.parse_problem(case.text)
        assert problem.solver.delta == 0
        try:
            records = spectral.sweep_eigenvalues(problems.with_overrides(problem, delta=20.0))
        except errors.SolverError as exc:
            records = exc.records
        assert line.split()[:2] == ["seed=1", case.label]
        assert line.split()[3] == outcomes.digest(records)
