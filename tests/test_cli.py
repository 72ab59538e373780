import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spps.cli import main
from spps.problems import fixture_path


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(dict(zip(header, cells)))
    return rows


TRIVIAL = fixture_path("trivial.prob")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(*args):
    """Run the CLI in its own interpreter, so an uncaught exception shows."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "spps.cli", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_solve_trivial(capsys):
    code, out, _ = run_cli(capsys, "solve", TRIVIAL)
    assert code == 0
    assert out.startswith("# n_powers=25 mesh_effective=1000")
    rows = parse_table(out)
    assert len(rows) == 2
    lams = sorted(float(r["re_lambda"]) for r in rows)
    assert lams[0] == pytest.approx(-4 * math.pi**2, abs=1e-8)
    assert lams[1] == pytest.approx(-math.pi**2, abs=1e-9)
    for r in rows:
        assert float(r["residual"]) <= 1e-8


def test_solve_builds_the_mesh_once(capsys, monkeypatch):
    import spps

    calls = []
    original = spps.mesh.build_mesh

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("spps") and getattr(
            module, "build_mesh", None
        ) is original:
            monkeypatch.setattr(module, "build_mesh", counting)
    code, out, _ = run_cli(capsys, "solve", TRIVIAL)
    assert code == 0
    assert out.startswith("# n_powers=25 mesh_effective=1000 ")
    assert len(calls) == 1


def test_solve_writes_out_file(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "solve", TRIVIAL, "--max-eigs", "1", "--out", out_file)
    assert code == 0
    assert out_file.read_text() == out


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_solve_nonpositive_budget_exit_2(capsys, budget):
    code, out, err = run_cli(capsys, "solve", TRIVIAL, "--max-eigs", budget)
    assert code == 2
    assert err == "error: max_eigenvalues must be at least 1\n"
    assert out == ""


@pytest.mark.parametrize(
    "line",
    ["n_powers = 1e400", "mesh = 1e400", "max_eigenvalues = 1e400", "n_powers = 2.5",
     "delta = 1e400"],
)
def test_solve_malformed_solver_value_exit_2(capsys, tmp_path, line):
    key = line.split(" = ")[0]
    text = TRIVIAL.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.prob"
    bad.write_text("\n".join(line if ln.startswith(key + " ") else ln for ln in text) + "\n")
    code, out, err = run_cli(capsys, "solve", bad)
    assert code == 2
    assert err.startswith(f"error: {key} must be ")
    assert out == ""


def test_solve_infinite_delta_flag_exit_2(capsys):
    code, out, err = run_cli(capsys, "solve", TRIVIAL, "--delta", "1e400")
    assert code == 2
    assert err.startswith("error: delta must be finite")
    assert out == ""


@pytest.mark.parametrize("flag", ["--n-powers", "--mesh"])
def test_solve_power_set_numpy_cannot_index_exit_2(capsys, flag):
    code, out, err = run_cli(capsys, "solve", TRIVIAL, flag, "100000000000000000000")
    assert code == 2
    assert err.startswith("error: n_powers = ")
    assert "numpy can index at most" in err
    assert out == ""


def test_out_of_memory_is_a_solver_error(capsys, monkeypatch):
    import spps.cli

    def exhausted(problem):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(spps.cli, "sweep_eigenvalues", exhausted)
    code, out, err = run_cli(capsys, "solve", TRIVIAL)
    assert code == 3
    assert err == "solver error: Unable to allocate 1.00 TiB\n"
    assert out == ""


def test_solve_superscript_digit_exit_2(tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text(TRIVIAL.read_text(encoding="utf-8").replace('q = "0"', 'q = "2²"'), encoding="utf-8")
    assert 'q = "2²"' in bad.read_text(encoding="utf-8")
    proc = run_cli_process("solve", bad)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: piece 0 q: trailing input '²'")
    assert proc.stdout == ""


def _trivial_variant(tmp_path, old, new, seeded=False):
    """trivial.prob with the first ``old`` made ``new``; ``seeded`` drops f and f_prime."""
    text = TRIVIAL.read_text(encoding="utf-8")
    assert old in text
    text = text.replace(old, new, 1)
    if seeded:
        text = text.replace('f = "1"\n', "").replace('f_prime = "0"\n', "")
    path = tmp_path / "variant.prob"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "old, new, seeded, message",
    [
        ('q = "0"', 'q = "1e400"', False, "error: 'inf' is not finite at x=0.0 on piece [0.0, 1.0]\n"),
        ('r = "1"', 'r = "1e400"', True, "error: 'inf' is not finite at x=0.0 on piece [0.0, 1.0]\n"),
        ("alpha = 1", "alpha = 1e400", False, "error: [bc_left]: alpha and beta must be finite\n"),
    ],
    ids=["q", "seeded_r", "bc_left_alpha"],
)
def test_solve_nonfinite_value_exit_2(capsys, tmp_path, old, new, seeded, message):
    code, out, err = run_cli(capsys, "solve", _trivial_variant(tmp_path, old, new, seeded))
    assert (code, out, err) == (2, "", message)


def test_count_nonfinite_center_exit_2(capsys):
    code, out, err = run_cli(capsys, "count", TRIVIAL, "--radius", "5", "--center", "1e400")
    assert (code, out, err) == (2, "", "error: center must be finite, got (inf+0j)\n")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_solve_overflowing_seed_exit_3(capsys, tmp_path):
    # q is finite, but the seed series overflows to NaN: every check on it must fail
    code, out, err = run_cli(capsys, "solve", _trivial_variant(tmp_path, 'q = "0"', 'q = "1e300"', True))
    assert (code, out) == (3, "")
    assert err.startswith(
        "solver error: no pair of the 45-pair pool yields a nonvanishing seed solution"
    )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_solve_overflowing_polynomial_exit_3(capsys, tmp_path):
    # 1/p = -1e300: the powers, and so the characteristic polynomial, overflow
    code, out, err = run_cli(capsys, "solve", _trivial_variant(tmp_path, 'p = "1"', 'p = "-1e-300"'))
    assert (code, out) == (3, "")
    assert err == "solver error: characteristic polynomial has non-finite coefficients\n"


@pytest.mark.parametrize("flag", ["--delta=7", "--policy=fixed_center", "--max-eigs=3", "--threshold=1e-6"])
@pytest.mark.parametrize(
    "command",
    [["count", "--radius", "5"], ["landscape", "--radius", "5"], ["powers", "--n", "0", "--at", "0"]],
    ids=["count", "landscape", "powers"],
)
def test_sweep_flags_only_on_sweeps(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command[0], str(TRIVIAL), *command[1:], flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_schema_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("[interval]\na = 0\n")  # missing everything else
    code, _, err = run_cli(capsys, "solve", bad)
    assert code == 2
    assert "error" in err


def test_solve_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve", "no-such-file.prob")
    assert code == 2


def test_solve_solver_failure_exit_3(capsys):
    # a 3-term series cannot bridge to the second eigenvalue
    code, _, err = run_cli(capsys, "solve", TRIVIAL, "--n-powers", "3", "--max-eigs", "2")
    assert code == 3
    assert "solver error" in err


def test_powers_command(capsys):
    code, out, _ = run_cli(capsys, "powers", TRIVIAL, "--n", "3", "--at", "1.0")
    assert code == 0
    value = float(out.split("tilde_3=")[1].split()[0])
    assert value == pytest.approx(1.0 / 6.0, rel=1e-12)
    # anchor values of n >= 1 powers are exactly zero
    code, out, _ = run_cli(capsys, "powers", TRIVIAL, "--n", "3", "--at", "0.0")
    assert code == 0
    assert "tilde_3=0 " in out


def test_powers_bad_index(capsys, monkeypatch):
    import spps.basis

    calls = []
    original = spps.basis.compute_formal_powers

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spps.basis, "compute_formal_powers", counting)
    code, _, err = run_cli(capsys, "powers", TRIVIAL, "--n", "999", "--at", "0.0")
    assert code == 2
    assert err == "error: power index must be in 0..51\n"
    assert calls == []  # the index is checked before anything is built


@pytest.mark.parametrize("at", ["inf", "nan"])
def test_powers_nonfinite_point_exit_2(at):
    proc = run_cli_process("powers", TRIVIAL, "--n", "0", "--at", at)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: x={at} is not a mesh node")
    assert proc.stdout == ""


def test_powers_cross_checked_against_closed_form(capsys):
    # X^(1)(b) = int_a^b dx/(p f^2) for the step-potential fixture:
    # p = -1 and f = cos x / cos(sqrt2 x) give -(tan 1 + tan(sqrt2)/sqrt2)
    code, out, _ = run_cli(
        capsys, "powers", fixture_path("example1.prob"),
        "--mesh", "4000", "--n-powers", "10", "--n", "1", "--at", "1.0",
    )
    assert code == 0
    value = float(out.split("plain_1=")[1].split()[0])
    expect = -(math.tan(1.0) + math.tan(math.sqrt(2)) / math.sqrt(2))
    assert value == pytest.approx(expect, rel=1e-9)


def _recorded_power_orders(monkeypatch):
    """The n_terms of every compute_formal_powers call, in order."""
    import spps.basis

    orders = []
    original = spps.basis.compute_formal_powers

    def recording(f, p, r, n_terms):
        orders.append(n_terms)
        return original(f, p, r, n_terms)

    monkeypatch.setattr(spps.basis, "compute_formal_powers", recording)
    return orders


@pytest.mark.parametrize("n", [0, 3, 4, 51])
def test_powers_builds_only_the_rows_it_prints(capsys, monkeypatch, n):
    # trivial.prob supplies f, so nothing is built for a seed
    orders = _recorded_power_orders(monkeypatch)
    code, _, _ = run_cli(capsys, "powers", TRIVIAL, "--n", n, "--at", "0.5")
    assert code == 0
    assert orders == [n // 2]


def test_powers_output_unchanged_by_the_short_build(capsys, monkeypatch):
    # the bytes the full set (N = 90) printed, from a set of 3 // 2 = 1 term
    orders = _recorded_power_orders(monkeypatch)
    code, out, _ = run_cli(capsys, "powers", fixture_path("example2_complex.prob"), "--n", "3", "--at", "0.5")
    assert code == 0
    assert out == (
        "x=0.5 tilde_3=-58.988542070547297+62.706932210940458i "
        "plain_3=-0.84845084495137102-3.09924192401277i\n"
    )
    assert orders[-1] == 1  # after the seed's own builds


def test_powers_point_checked_before_any_build(capsys, monkeypatch):
    orders = _recorded_power_orders(monkeypatch)
    code, out, err = run_cli(capsys, "powers", TRIVIAL, "--n", "3", "--at", "7")
    assert (code, out) == (2, "")
    assert err == "error: x=7.0 is not a mesh node\n"
    assert orders == []


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", TRIVIAL, "--center", "0", "--radius", "15")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "count", TRIVIAL, "--center", "0", "--radius", "1")
    assert code == 0 and out.strip() == "0"


def test_count_step_potential_unit_disk(capsys):
    code, out, _ = run_cli(
        capsys, "count", fixture_path("example1.prob"),
        "--mesh", "4000", "--n-powers", "40", "--center", "0", "--radius", "1",
    )
    assert code == 0
    assert out.strip() == "2"


def test_count_expands_at_the_contour_center():
    # -(7 pi)^2 lies inside, but one shift from 0 cannot reach it: a failure, not a count
    proc = run_cli_process("count", TRIVIAL, "--center=-483.61", "--radius", "5")
    assert proc.returncode == 3
    assert proc.stderr.startswith("solver error: ")
    assert "leaves the trust region" in proc.stderr
    assert proc.stdout == ""
    proc = run_cli_process("count", TRIVIAL, "--center=-88.83", "--radius", "5")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("center", ["1e15", "1e100"])
def test_count_center_overflowing_the_series_exit_3(capsys, center):
    # there the series sums overflow; that leaves the trust region too
    code, out, err = run_cli(capsys, "count", TRIVIAL, "--center", center, "--radius", "5")
    assert (code, out) == (3, "")
    assert err.startswith(
        f"solver error: shift from 0j to {complex(float(center))} leaves the trust region"
    )


def test_count_overflow_prints_only_the_error_line():
    # README's example: the sums overflow at 1e15, and no numpy warning is printed
    proc = run_cli_process("count", TRIVIAL, "--center", "1e15", "--radius", "5")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "solver error: shift from 0j to (1000000000000000+0j) leaves the trust region "
        "(series tail inf > 1e-10); use a smaller step or more series terms\n"
    )


def test_count_radius_overflowing_phi_prints_only_the_error_line():
    proc = run_cli_process("count", TRIVIAL, "--radius", "1e300")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "solver error: characteristic function not finite on the contour\n"


def test_landscape_radius_overflowing_phi_exit_3():
    # an overflow is not drawn as an eigenvalue peak at LANDSCAPE_CAP
    proc = run_cli_process("landscape", TRIVIAL, "--radius", "1e300", "--grid", "16")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "solver error: characteristic function not finite on the landscape grid\n"


def test_solve_short_sweep_prints_table_and_exit_3(tmp_path):
    # with r = 1 - i every eigenvalue lies in the lower half plane, so under
    # previous_if_upper_half the walk shifts back from each validation basis;
    # on 200 subintervals that shift fails after three eigenvalues, and its
    # own reason follows the table
    out_file = tmp_path / "table.csv"
    problem = _trivial_variant(tmp_path, 'r = "1"', 'r = "1-1i"')
    proc = run_cli_process(
        "solve", problem, "--policy", "previous_if_upper_half", "--mesh", "200",
        "--max-eigs", "6", "--out", out_file,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("solver error: shift from ")
    assert " lost accuracy: " in proc.stderr
    assert proc.stderr.count("\n") == 1
    rows = parse_table(proc.stdout)
    assert len(rows) == 3
    assert all(float(row["im_lambda"]) < 0 for row in rows)
    assert out_file.read_text(encoding="utf-8") == proc.stdout


def test_verify_short_sweep_exit_3(capsys, tmp_path):
    # every reference row passes, yet the walk stopped on a failed shift
    # after three of six eigenvalues: not an answer
    problem = _trivial_variant(tmp_path, 'r = "1"', 'r = "1-1i"')
    flags = ["--policy", "previous_if_upper_half", "--mesh", "200", "--max-eigs", "6"]
    code, out, _ = run_cli(capsys, "solve", problem, *flags)
    assert code == 3
    reference = tmp_path / "three.ref"
    reference.write_text(
        "".join(
            f"{row['n']},{row['re_lambda']}{float(row['im_lambda']):+.16g}i,1e-8\n"
            for row in parse_table(out)
        )
    )
    code, out, err = run_cli(capsys, "verify", problem, reference, *flags)
    assert code == 3
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == ["pass"] * 3
    assert err.startswith("solver error: shift from ") and " lost accuracy: " in err


def test_solve_stalled_sweep_prints_what_it_found_and_exit_3(tmp_path):
    # with delta = 60 the walk accepts five eigenvalues, then stalls
    out_file = tmp_path / "table.csv"
    proc = run_cli_process(
        "solve", TRIVIAL, "--delta", "60", "--max-eigs", "6", "--out", out_file
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("solver error: three consecutive candidates failed validation")
    assert proc.stderr.count("\n") == 1
    rows = parse_table(proc.stdout)
    assert [row["n"] for row in rows] == ["0", "1", "2", "3", "4"]
    for row, k in zip(rows, (5, 4, 3, 2, 1)):
        assert abs(float(row["re_lambda"]) + (k * math.pi) ** 2) <= 1e-9 * (k * math.pi) ** 2
    assert out_file.read_text(encoding="utf-8") == proc.stdout
    # a stall with nothing found prints only the error line: a 3-term series
    # reaches no eigenvalue
    for command in (("solve", TRIVIAL), ("verify", TRIVIAL, fixture_path("table5.ref"))):
        proc = run_cli_process(*command, "--n-powers", "3", "--max-eigs", "2")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("solver error: three consecutive candidates")
        assert proc.stderr.count("\n") == 1


def test_verify_stalled_sweep_reports_what_it_found(capsys, tmp_path):
    # the sixth eigenvalue was never reached, so its row fails
    reference = tmp_path / "six.ref"
    reference.write_text(
        "".join(f"{k - 1},{-(k * math.pi) ** 2:.12f},1e-8\n" for k in range(1, 7))
    )
    code, out, err = run_cli(capsys, "verify", TRIVIAL, reference, "--delta", "60", "--max-eigs", "6")
    assert code == 3
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == ["pass"] * 5 + ["FAIL"]
    assert err.startswith("solver error: three consecutive candidates failed validation")


def test_count_nonpositive_radius_exit_2():
    proc = run_cli_process("count", TRIVIAL, "--radius", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: radius must be positive")
    assert "Traceback" not in proc.stderr


def test_count_too_many_samples_exit_2():
    proc = run_cli_process("count", TRIVIAL, "--radius", "1", "--samples", "100000000000000000000")
    assert proc.returncode == 2
    assert proc.stderr == "error: samples must be at most 262144, got 100000000000000000000\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_count_too_few_samples_exit_2(samples):
    proc = run_cli_process("count", TRIVIAL, "--radius", "1", "--samples", samples)
    assert proc.returncode == 2
    assert proc.stderr == f"error: samples must be at least 1, got {samples}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_count_malformed_radius_exit_2(radius):
    proc = run_cli_process("count", TRIVIAL, "--radius", radius)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: radius must be positive")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("radius", ["0", "-3", "nan", "inf"])
def test_landscape_malformed_radius_exit_2(radius):
    proc = run_cli_process("landscape", TRIVIAL, f"--radius={radius}", "--grid", "16")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: radius must be positive")
    assert proc.stdout == ""


def test_landscape_small_grid_exit_2():
    proc = run_cli_process("landscape", TRIVIAL, "--radius", "3", "--grid", "8")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: grid must be at least 16")
    assert "Traceback" not in proc.stderr


def test_landscape_huge_grid_exit_2():
    # numpy refuses this size before allocating; the check must come first
    proc = run_cli_process("landscape", TRIVIAL, "--radius", "5", "--grid", str(10**20))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: grid = {10**20} needs {10**40} samples")
    assert "Traceback" not in proc.stderr


def test_landscape_command(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "landscape", TRIVIAL, "--center", "0", "--radius", "5",
        "--grid", "16", "--out", out_file,
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# center=0 radius=5 grid=16 trust_radius=")
    assert len(lines) == 17
    assert all(len(row.split(",")) == 16 for row in lines[1:])


def test_verify_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "good.ref"
    good.write_text(
        f"0,{-math.pi**2:.12f},1e-6\n1,{-4 * math.pi**2:.12f},1e-6\n"
    )
    code, out, _ = run_cli(capsys, "verify", TRIVIAL, good)
    assert code == 0
    assert "FAIL" not in out

    corrupted = tmp_path / "bad.ref"
    corrupted.write_text(f"0,{-math.pi**2 + 0.001:.12f},1e-8\n")
    code, out, _ = run_cli(capsys, "verify", TRIVIAL, corrupted)
    assert code == 3
    assert "FAIL" in out


def test_verify_bundled_reference_end_to_end(capsys):
    # full fixture resolution; the fastest of the bundled problems
    code, out, _ = run_cli(
        capsys, "verify", fixture_path("example4.prob"), fixture_path("table5.ref")
    )
    assert code == 0
    assert out.count("pass") == 6


def test_verify_malformed_reference_exit_2(capsys, tmp_path):
    bad = tmp_path / "broken.ref"
    bad.write_text("0;1.0;1e-8\n")
    code, _, err = run_cli(capsys, "verify", TRIVIAL, bad)
    assert code == 2


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
def test_verify_bad_tolerance_exit_2(capsys, tmp_path, tolerance):
    ref = tmp_path / "bad_tolerance.ref"
    ref.write_text(f"0,-9.8696,{tolerance}\n")
    code, out, err = run_cli(capsys, "verify", TRIVIAL, ref)
    assert code == 2
    assert err == (
        f"error: {ref}:1: tolerance must be finite and nonnegative, got {tolerance!r}\n"
    )
    assert out == ""


def test_solve_nan_threshold_exit_2(capsys):
    code, out, err = run_cli(capsys, "solve", TRIVIAL, "--threshold", "nan", "--max-eigs", "2")
    assert code == 2
    assert err == "error: accept_threshold must be positive\n"
    assert out == ""


@pytest.mark.parametrize("threshold", ["1", "inf"])
def test_solve_threshold_not_below_1_exit_2(capsys, threshold):
    # the validation residual |c0|/max|c_k| is at most 1: such a threshold checks nothing
    code, out, err = run_cli(capsys, "solve", TRIVIAL, "--threshold", threshold, "--max-eigs", "2")
    assert (code, out, err) == (2, "", "error: accept_threshold must be below 1\n")


def test_solve_file_threshold_not_below_1_exit_2(capsys, tmp_path):
    variant = _trivial_variant(tmp_path, "accept_threshold = 1e-8", "accept_threshold = 2")
    code, out, err = run_cli(capsys, "solve", variant)
    assert (code, out, err) == (2, "", "error: accept_threshold must be below 1\n")


def test_help_lists_the_five_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{solve,landscape,count,verify,powers}" in out
    assert "==SUPPRESS==" not in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
