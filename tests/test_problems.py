import numpy as np
import pytest

from spps.errors import MeshError, ProblemFormatError
from spps.problems import (
    Problem,
    SolverConfig,
    fixture_path,
    format_complex,
    load_reference,
    match_reference,
    parse_complex,
    parse_problem,
    prepare,
    sample_problem,
    with_overrides,
)
from spps.spectral import sweep_eigenvalues

MINIMAL = """
[interval]
a = 0
b = 1

[piece]
from = 0
to = 1
p = "1"
q = "0"
r = "1"

[bc_left]
alpha = 1
beta = 0

[bc_right]
alpha = 1
beta = 0
"""


def test_minimal_problem_defaults():
    problem = parse_problem(MINIMAL)
    assert problem.solver == SolverConfig()
    assert problem.particular is None
    assert problem.bc_left.derivative_form == "u_prime"


def test_missing_section():
    with pytest.raises(ProblemFormatError, match=r"missing \[bc_right\]"):
        parse_problem(MINIMAL.replace("[bc_right]", "[bc_left]"))


def test_duplicate_bc_section():
    text = MINIMAL + "\n[bc_right]\nalpha = 1\nbeta = 0\n"
    with pytest.raises(ProblemFormatError, match="duplicate"):
        parse_problem(text)


def test_unknown_section_and_keys():
    with pytest.raises(ProblemFormatError, match="unknown section"):
        parse_problem(MINIMAL + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ProblemFormatError, match="unknown key"):
        parse_problem(MINIMAL.replace('r = "1"', 'r = "1"\nrr = "1"'))
    with pytest.raises(ProblemFormatError, match="duplicate key"):
        parse_problem(MINIMAL.replace('q = "0"', 'q = "0"\nq = "1"'))


def test_unquoted_expression_rejected():
    with pytest.raises(ProblemFormatError, match="double-quoted"):
        parse_problem(MINIMAL.replace('p = "1"', "p = 1"))


def test_bad_expression_position_reported():
    with pytest.raises(ProblemFormatError, match="piece 0 p"):
        parse_problem(MINIMAL.replace('p = "1"', 'p = "co(x)"'))


def test_content_before_section():
    with pytest.raises(ProblemFormatError, match="before any"):
        parse_problem("a = 1\n" + MINIMAL)


def test_partial_particular_rejected():
    text = """
[interval]
a = 0
b = 1

[piece]
from = 0
to = 0.5
p = "1"
q = "0"
r = "1"
f = "1"
f_prime = "0"

[piece]
from = 0.5
to = 1
p = "1"
q = "0"
r = "1"

[bc_left]
alpha = 1
beta = 0

[bc_right]
alpha = 1
beta = 0
"""
    with pytest.raises(ProblemFormatError, match="all pieces or none"):
        parse_problem(text)


def test_particular_requires_exactly_one_derivative():
    both = MINIMAL.replace('r = "1"', 'r = "1"\nf = "1"\nf_prime = "0"\npf_prime = "0"')
    with pytest.raises(ProblemFormatError, match="exactly one"):
        parse_problem(both)
    neither = MINIMAL.replace('r = "1"', 'r = "1"\nf = "1"')
    with pytest.raises(ProblemFormatError, match="exactly one"):
        parse_problem(neither)
    orphan = MINIMAL.replace('r = "1"', 'r = "1"\nf_prime = "0"')
    with pytest.raises(ProblemFormatError, match="without f"):
        parse_problem(orphan)


def _hexed(records):
    """Every field of every record, floats as float.hex."""
    return [
        (r.index, *(float.hex(x) for x in (r.lam.real, r.lam.imag, r.center_used.real,
                                           r.center_used.imag, r.validation_residual,
                                           r.tail_indicator)))
        for r in records
    ]


def test_pieces_may_mix_f_prime_and_pf_prime(sweep_cache):
    # example1's second piece has p = -1, so pf' = -f' there
    text = fixture_path("example1.prob").read_text(encoding="utf-8")
    old = 'f_prime = "-sqrt(2)*sin(sqrt(2)*x)"'
    assert text.count(old) == 1
    mixed = parse_problem(text.replace(old, 'pf_prime = "sqrt(2)*sin(sqrt(2)*x)"'))
    assert mixed.particular[0].f_prime is not None and mixed.particular[1].pf_prime is not None
    records, _ = sweep_cache("example1")
    assert _hexed(sweep_eigenvalues(mixed)) == _hexed(records)


def test_both_bc_polynomials_zero_rejected():
    with pytest.raises(ProblemFormatError):
        parse_problem(MINIMAL.replace("[bc_left]\nalpha = 1\nbeta = 0", "[bc_left]\nalpha = 0\nbeta = 0"))


def test_bad_policy_rejected():
    with pytest.raises(ProblemFormatError, match="policy"):
        parse_problem(MINIMAL + "\n[solver]\npolicy = wander\n")


def test_solver_overrides():
    problem = parse_problem(MINIMAL)
    tweaked = with_overrides(problem, n_terms=33, delta=0.5 + 0.1j)
    assert tweaked.solver.n_terms == 33
    assert tweaked.solver.delta == 0.5 + 0.1j
    assert problem.solver.n_terms == SolverConfig().n_terms  # original untouched


def test_solver_counts_accept_exponent_notation():
    problem = parse_problem(MINIMAL + "[solver]\nn_powers = 3e1\nmesh = 1e3\nmax_eigenvalues = 2e0\n")
    counts = (problem.solver.n_terms, problem.solver.mesh_m, problem.solver.max_eigenvalues)
    assert counts == (30, 1000, 2)
    assert all(type(n) is int for n in counts)


def test_parse_complex_tokens():
    assert parse_complex("1e-8") == 1e-8
    assert parse_complex("-11-1i") == -11 - 1j
    assert parse_complex("0.5+2i") == 0.5 + 2j
    assert parse_complex("2i") == 2j
    assert parse_complex("i") == 1j
    assert parse_complex("-0.25") == -0.25
    with pytest.raises(ProblemFormatError):
        parse_complex("x + 1")
    with pytest.raises(ProblemFormatError):
        parse_complex("not a number")


def test_format_complex_roundtrip():
    for z in (0.0, -1.5, 2j, -0.5 + 2j, 3 - 4e-12j, 1e-300 + 1e-300j):
        assert parse_complex(format_complex(z)) == complex(z)


def test_sample_problem_effective_mesh():
    problem = parse_problem(MINIMAL)
    samples = sample_problem(problem, 37)
    assert samples.mesh.n_subintervals == 40
    assert np.all(samples.p.values == 1.0)


def test_prepare_uses_seed_without_particular():
    problem = parse_problem(MINIMAL)
    config, samples, bcl, bcr, start = prepare(problem, None, None)
    assert start.lambda_star == 0.0
    assert start.min_abs > 0


def test_prepare_honours_injected_particular():
    problem = parse_problem(MINIMAL)
    _, samples, _, _, seed = prepare(problem, None, None)
    config2, _, _, _, injected = prepare(problem, None, seed)
    assert injected is seed


def test_prepare_rejects_particular_from_another_mesh():
    problem = parse_problem(MINIMAL)
    _, _, _, _, start = prepare(problem, SolverConfig(mesh_m=1000), None)
    with pytest.raises(MeshError, match="another mesh"):
        prepare(problem, SolverConfig(mesh_m=2000), start)
    with pytest.raises(MeshError, match="another mesh"):
        sweep_eigenvalues(problem, SolverConfig(mesh_m=2000), particular=start)


def test_solver_rejects_power_sets_numpy_cannot_index():
    for key in ("n_powers", "mesh"):
        with pytest.raises(ProblemFormatError, match="numpy can index at most"):
            parse_problem(MINIMAL + f"[solver]\n{key} = 100000000000000000000\n")
    # 2 families x 2 rows x (M + 1) nodes at N = 0, 16 bytes per sample
    limit = np.iinfo(np.intp).max // 16
    with pytest.raises(ProblemFormatError):
        SolverConfig(n_terms=0, mesh_m=limit // 4)
    assert SolverConfig(n_terms=0, mesh_m=limit // 4 - 1).mesh_m == limit // 4 - 1


def test_reference_loading_and_matching(tmp_path):
    ref = tmp_path / "vals.ref"
    ref.write_text("# comment\n0,-9.87,1e-2\n1,1+2i,1e-6\n")
    rows = load_reference(ref)
    assert rows == [(0, -9.87, 1e-2), (1, 1 + 2j, 1e-6)]
    report = match_reference([1 + 2j, -9.8696], rows)
    assert report[0][5] and report[1][5]
    report = match_reference([5.0], rows)
    assert not report[0][5]
    with pytest.raises(ValueError):
        match_reference([], rows)


def test_reference_malformed(tmp_path):
    bad = tmp_path / "bad.ref"
    bad.write_text("0,1.0\n")
    with pytest.raises(ProblemFormatError):
        load_reference(bad)
    empty = tmp_path / "empty.ref"
    empty.write_text("# nothing\n")
    with pytest.raises(ProblemFormatError):
        load_reference(empty)
    with pytest.raises(ProblemFormatError):
        load_reference(tmp_path / "missing.ref")
