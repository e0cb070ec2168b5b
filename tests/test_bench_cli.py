"""Problem registry, suite runner, table emission, and the gvi CLI."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from oracles import example3_dense

import gvikit
from gvikit.bench_cli import _CERT_CHECKS, cli, main, parse_config_file
from gvikit.registry import (
    ALGORITHMS,
    BenchResult,
    ProblemSpec,
    build_problem,
    emit_table,
    run_suite,
)
from gvikit.core import SolveConfig
from gvikit.errors import ProblemSpecError
from gvikit.sets import Simplex


def all_output(result):
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


def test_problem_spec_validation():
    with pytest.raises(ProblemSpecError):
        ProblemSpec("nosuch")
    with pytest.raises(ProblemSpecError):
        ProblemSpec("example3")
    with pytest.raises(ProblemSpecError):
        ProblemSpec("example4", n=0)
    with pytest.raises(ProblemSpecError):
        ProblemSpec("obstacle", n=10)
    with pytest.raises(ProblemSpecError):
        ProblemSpec("obstacle", n=3)
    with pytest.raises(ProblemSpecError):
        ProblemSpec("custom")
    with pytest.raises(ProblemSpecError, match="fixed size"):
        ProblemSpec("example2", n=10)
    with pytest.raises(ProblemSpecError, match="fixed size"):
        ProblemSpec("custom", n=10, path="problem.py")


def test_algorithm_registry_contents():
    assert set(ALGORITHMS) == {
        "projection", "extragradient", "two-step", "whe",
        "dp-basic", "dp-optimal", "three-step", "gap-descent",
        "dynamical-forward", "dynamical-implicit", "dynamical-explicit",
    }
    assert main is cli


def test_build_example3_matrix_and_shift():
    prob = build_problem(ProblemSpec("example3", n=3))
    q = prob.T(np.zeros(3))
    columns = [prob.T(np.eye(3)[i]) - q for i in range(3)]
    np.testing.assert_allclose(np.column_stack(columns),
                               [[4, -1, 0], [-1, 4, -1], [0, -1, 4]])
    np.testing.assert_allclose(q, -np.ones(3))
    np.testing.assert_allclose(prob.known_solution,
                               np.linalg.solve(np.column_stack(columns), np.ones(3)))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 2000])
def test_example3_stencil_and_closed_form_match_the_dense_matrix(n):
    prob = build_problem(ProblemSpec("example3", n=n))
    M, solution = example3_dense(n)
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.uniform(0.0, 1.0, n), 1e6 * rng.standard_normal(n)):
        kept = x.copy()
        y = prob.T(x)
        np.testing.assert_array_equal(x, kept)
        np.testing.assert_array_equal(prob.T(list(x)), y)
        # Each entry sums at most three products, all below 6 |x|_inf.
        bound = 4 * np.spacing(6.0 * np.max(np.abs(x)))
        assert np.max(np.abs(y - (M @ x - 1.0))) <= bound
    assert np.max(np.abs(prob.known_solution - solution)) <= 1e-14


def test_example3_build_stores_no_matrix():
    tracemalloc.start()
    try:
        build_problem(ProblemSpec("example3", n=2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A dense 2000 x 2000 matrix alone would take 32 MB.
    assert peak < 1_000_000


def test_build_example4_diagonal_operator():
    prob = build_problem(ProblemSpec("example4", n=2))
    np.testing.assert_allclose(prob.T(np.zeros(2)), [-1.0, -1.0])
    np.testing.assert_allclose(prob.T(np.ones(2)), [-0.5, 0.0])
    np.testing.assert_allclose(prob.known_solution, np.ones(2))


def test_build_example2_operator_values():
    prob = build_problem(ProblemSpec("example2"))
    np.testing.assert_allclose(prob.T(np.array([1.0, 0.0, 0.0, 0.0])), [0.0, 1.0, 4.0, 2.0])
    np.testing.assert_allclose(prob.T(np.zeros(4)), [0.0, 0.0, 5.0, 3.0])
    assert isinstance(prob.K, Simplex) and prob.K.total == 4.0


def test_run_suite_empty_specs():
    assert run_suite([], ["projection"]) == []


def test_run_suite_rejects_unknown_algorithm():
    with pytest.raises(ProblemSpecError, match="unknown algorithm"):
        run_suite([ProblemSpec("example4", n=5)], ["nosuch"])


def test_run_suite_records_solver_failures_per_row():
    rows = run_suite(
        [ProblemSpec("example4", n=10)],
        ["gap-descent", "projection"],
        SolveConfig(rho=0.5, alpha=0.3),
    )
    stalled, fine = rows
    assert stalled.error is not None and not stalled.converged
    assert math.isnan(stalled.residual_norm)
    assert fine.converged and fine.error is None


def test_run_suite_deterministic_modulo_time():
    specs = [ProblemSpec("example4", n=5)]
    first = run_suite(specs, ["projection", "two-step"], SolveConfig(rho=0.5))
    second = run_suite(specs, ["projection", "two-step"], SolveConfig(rho=0.5))
    for a, b in zip(first, second):
        assert (a.problem, a.algorithm, a.n, a.iterations, a.converged) == (
            b.problem, b.algorithm, b.n, b.iterations, b.converged)
        assert a.residual_norm == b.residual_norm


def test_run_suite_build_error_row_per_algorithm(tmp_path):
    path = tmp_path / "nobuild.py"
    path.write_text("x = 1\n")
    rows = run_suite([ProblemSpec("custom", path=str(path))], ["projection", "dp-basic"])
    assert [r.algorithm for r in rows] == ["projection", "dp-basic"]
    for row in rows:
        assert row.n is None
        assert row.iterations is None
        assert not row.converged
        assert math.isnan(row.residual_norm)
        assert row.wall_time == 0.0
        assert row.error == f"custom module {str(path)!r} defines no build() function"


def test_cli_bench_puts_each_failed_row_message_on_stderr(tmp_path):
    path = tmp_path / "nobuild.py"
    path.write_text("x = 1\n")
    result = CliRunner().invoke(cli, ["bench", "--problem", "custom", "--path", str(path),
                                      "--alg", "projection,dp-basic"])
    assert result.exit_code == 2
    assert result.stdout == (
        "problem,n,algorithm,iterations,converged,residual,time\n"
        "custom,,projection,—,false,nan,0.0000\n"
        "custom,,dp-basic,—,false,nan,0.0000\n"
    )
    message = f"custom module {str(path)!r} defines no build() function"
    assert result.stderr == f"error: custom/projection: {message}\nerror: custom/dp-basic: {message}\n"


def test_cli_bench_rows_without_an_error_leave_stderr_empty():
    result = CliRunner().invoke(cli, ["bench", "--problem", "example4", "--n", "10", "--alg", "projection",
                                      "--rho", "0.5", "--max-iters", "2"])
    assert result.exit_code == 2
    assert result.stderr == ""


def test_custom_module_build_runs_through_the_suite_and_the_command_line(tmp_path):
    path = tmp_path / "shifted.py"
    path.write_text(
        "import numpy as np\n"
        "from gvikit import Box, GviProblem\n"
        "\n"
        "\n"
        "def build():\n"
        "    return GviProblem(dim=3, T=lambda u: u - np.array([0.5, 2.0, -1.0]), K=Box(0.0, 1.0))\n"
    )
    rows = run_suite([ProblemSpec("custom", path=str(path))], ["projection", "whe"], SolveConfig(rho=0.5))
    assert [(r.problem, r.n, r.algorithm, r.iterations, r.converged, r.error) for r in rows] == [
        ("custom", 3, "projection", 22, True, None),
        ("custom", 3, "whe", 11, True, None),
    ]
    result = CliRunner().invoke(cli, ["bench", "--problem", "custom", "--path", str(path),
                                      "--alg", "projection", "--rho", "0.5"])
    assert result.exit_code == 0
    assert result.output.splitlines()[1].startswith("custom,3,projection,22,true,")


def test_emit_table_csv_and_nonconverged_marker():
    ok = BenchResult("example4", "projection", 5, 23, True, 1.5e-9, 0.0123)
    bad = BenchResult("example3", "extragradient", 10, 200, False, 1.62, 0.5)
    text = emit_table([ok, bad])
    lines = text.splitlines()
    assert lines[0] == "problem,n,algorithm,iterations,converged,residual,time"
    assert lines[1] == "example4,5,projection,23,true,1.500000e-09,0.0123"
    assert lines[2].startswith("example3,10,extragradient,—,false,")
    assert text.endswith("\n")


def test_emit_table_markdown_shape():
    ok = BenchResult("example4", "projection", 5, 23, True, 1.5e-9, 0.0123)
    lines = emit_table([ok], format="markdown").splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("| problem |")
    assert set(lines[1].replace("|", "").strip()) <= {"-", " "}
    assert lines[2].startswith("| example4 |")


def test_emit_table_format_validation():
    with pytest.raises(ValueError):
        emit_table([], format="xml")


def test_parse_config_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(
        "# benchmark manifest\n"
        "problem = example4\n"
        "n 10\n"
        "\n"
        "alg=projection\n"
        "rho = 0.5\n"
    )
    values = parse_config_file(path)
    assert values == {"problem": "example4", "n": "10", "alg": "projection", "rho": "0.5"}


def test_parse_config_file_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("problem\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_config_file(path)


def test_cli_bench_success_exit_zero():
    runner = CliRunner()
    result = runner.invoke(cli, ["bench", "--problem", "example4", "--n", "10",
                                 "--alg", "projection", "--rho", "0.5"])
    assert result.exit_code == 0
    assert result.output.startswith("problem,n,algorithm")
    assert ",true," in result.output


def test_cli_bench_nonconverged_exit_two():
    runner = CliRunner()
    result = runner.invoke(cli, ["bench", "--problem", "example3", "--n", "10",
                                 "--alg", "extragradient", "--rho", "0.2",
                                 "--max-iters", "200"])
    assert result.exit_code == 2
    assert ",false," in result.output


def test_cli_bench_bad_problem_exit_one():
    runner = CliRunner()
    result = runner.invoke(cli, ["bench", "--problem", "nosuch", "--alg", "projection"])
    assert result.exit_code == 1
    assert "error" in all_output(result)


def test_cli_bench_flags_override_config_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text("problem = example3\nn = 10\nalg = extragradient\nrho = 0.2\nmax_iters = 200\n")
    runner = CliRunner()
    from_file = runner.invoke(cli, ["bench", "--config", str(path)])
    assert from_file.exit_code == 2
    overridden = runner.invoke(cli, ["bench", "--config", str(path), "--alg", "projection"])
    assert overridden.exit_code == 0


def test_cli_bench_rejects_n_for_fixed_size_problem():
    runner = CliRunner()
    result = runner.invoke(cli, ["bench", "--problem", "example2", "--n", "10,20", "--alg", "projection"])
    assert result.exit_code == 1
    assert "fixed size" in all_output(result)


def test_cli_bench_multi_size_rows():
    runner = CliRunner()
    result = runner.invoke(cli, ["bench", "--problem", "example4", "--n", "5,10",
                                 "--alg", "projection,three-step", "--rho", "0.5"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 5


def test_cli_bench_writes_out_file(tmp_path):
    out = tmp_path / "table.csv"
    runner = CliRunner()
    result = runner.invoke(cli, ["bench", "--problem", "example4", "--n", "10",
                                 "--alg", "projection", "--rho", "0.5",
                                 "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_text().startswith("problem,n,algorithm")


def test_cli_obstacle_scan():
    runner = CliRunner()
    result = runner.invoke(cli, ["obstacle", "--n", "15,31"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,h,max_error"
    assert lines[1].startswith("15,6.250000e-02,")
    assert lines[2].startswith("31,3.125000e-02,")


@pytest.mark.parametrize("grids", ["10", "3", "-1", "15,10"])
def test_cli_obstacle_rejects_bad_grid(grids):
    runner = CliRunner()
    result = runner.invoke(cli, ["obstacle", "--n", grids])
    assert result.exit_code == 1
    # A handled error exits through SystemExit; any other exception is a traceback.
    assert isinstance(result.exception, SystemExit)
    assert "error: " in all_output(result)


def test_cli_certify_pass_fail_and_error():
    runner = CliRunner()
    passed = runner.invoke(cli, ["certify", "--class", "hos-convex", "--function", "quadratic"])
    assert passed.exit_code == 0
    assert passed.output.splitlines()[1].endswith("pass")
    failed = runner.invoke(cli, ["certify", "--class", "hos-convex", "--function", "sine"])
    assert failed.exit_code == 2
    assert failed.output.splitlines()[1].endswith("fail")
    missing = runner.invoke(cli, ["certify", "--class", "hos-convex"])
    assert missing.exit_code == 1
    unknown = runner.invoke(cli, ["certify", "--class", "hos-convex", "--function", "nosuch"])
    assert unknown.exit_code == 1


def test_cli_certify_parallelogram_and_overrides():
    runner = CliRunner()
    identity = runner.invoke(cli, ["certify", "--class", "parallelogram", "--p", "2", "--mu", "1"])
    assert identity.exit_code == 0
    oversized = runner.invoke(cli, ["certify", "--class", "parallelogram", "--p", "2", "--mu", "1.5"])
    assert oversized.exit_code == 2
    pushed = runner.invoke(cli, ["certify", "--class", "hos-convex", "--function", "affine",
                                 "--mu", "0.5"])
    assert pushed.exit_code == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("class_id", list(_CERT_CHECKS))
def test_cli_certify_rejects_nonpositive_samples(class_id, samples):
    args = ["certify", "--class", class_id, "--samples", samples]
    if class_id != "parallelogram":
        args += ["--function", "sine"]
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: samples must be at least 1" in all_output(result)


@pytest.mark.parametrize("command", [
    ["bench", "--problem", "example4", "--n", "10", "--alg", "projection", "--rho", "0.5"],
    ["obstacle", "--n", "15"],
])
def test_cli_unwritable_out_path_is_an_error_line(tmp_path, command):
    result = CliRunner().invoke(cli, [*command, "--out", str(tmp_path / "missing" / "x.csv")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: " in all_output(result)


def _fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gvikit.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_import_gvikit_leaves_scipy_and_the_command_line_unloaded():
    probe = "import sys, gvikit; print(sorted({'click', 'scipy', 'gvikit.bench_cli'} & set(sys.modules)))"
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solve_and_erf_sqrt_certificate_run_without_scipy():
    probe = "; ".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import gvikit",
        "from gvikit.convexity_lab import builtin_functions, check_exp_convex",
        "problem = gvikit.build_problem(gvikit.ProblemSpec('example4', n=10))",
        "report = gvikit.ALGORITHMS['projection'](problem, gvikit.SolveConfig(rho=0.5))",
        "cert = check_exp_convex(builtin_functions()['erf-sqrt'], concave=True)",
        "print(report.converged, cert.verdict)",
    ])
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "pass"]


def test_obstacle_solve_fit_and_command_run_without_scipy():
    probe = "; ".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from gvikit import benchmark_problem, solve_grid, spline_fit",
        "prob = benchmark_problem()",
        "s = solve_grid(prob, 15)",
        "pp = spline_fit(prob, s)",
        "print(pp.c.shape, bool(abs(pp(0.5) - s[8]) <= 1e-12))",
    ])
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(4, 16) True"
    command = "; ".join([
        "import runpy, sys",
        "sys.modules['scipy'] = None",
        "sys.argv = ['gvi', 'obstacle', '--n', '15,31']",
        "runpy.run_module('gvikit.bench_cli', run_name='__main__')",
    ])
    proc = _fresh_python("-c", command)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n,h,max_error\n15,6.250000e-02,")
    assert len(proc.stdout.splitlines()) == 3


def test_module_entry_point_writes_nothing_to_stderr():
    proc = _fresh_python("-m", "gvikit.bench_cli", "obstacle", "--n", "15")
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,h,max_error\n15,6.250000e-02,")
    assert proc.stderr == ""
