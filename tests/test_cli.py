import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredsolve
from fredsolve import baselines, cli, fredholm2, grid, kernels, method_core, reduction2d
from fredsolve.cli import main
from fredsolve.expr import compile_expr
from fredsolve.grid import gauss_legendre


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def per_value_rows(rows):
    """The writer's reference: one f"{v:.17g}" per cell, None as an empty cell."""
    return "".join(",".join("" if v is None else f"{v:.17g}" for v in row) + "\n"
                   for row in rows)


def from_bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def assert_same_files(a, b):
    """Directories a and b hold the same file names with the same bytes."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


class TestWriteCsv:
    def test_edge_values_match_per_value_formatting(self, tmp_path):
        neg_nan, payload_nan = from_bits(0xFFF8000000000000, 0x7FF8000000000001)
        assert np.signbit(neg_nan) and math.isnan(payload_nan)
        table = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [neg_nan, payload_nan, np.nan],
                          [np.inf, -np.inf, 5e-324], [1e16, 1.0, 1e16], [1.0, 1.0, 1.0]])
        cli.write_csv(tmp_path / "t.csv", ["a", "b", "c"], table)
        text = (tmp_path / "t.csv").read_text()
        assert text == "a,b,c\n" + per_value_rows(table.tolist())
        assert text.splitlines()[1:4] == ["-0,0,1", "0,-0,1", "nan,nan,nan"]

    def test_zero_row_table_writes_the_header_only(self, tmp_path):
        cli.write_csv(tmp_path / "t.csv", ["x", "psi"], np.empty((0, 2)))
        assert (tmp_path / "t.csv").read_bytes() == b"x,psi\n"

    def test_mixed_rows_format_per_cell(self, tmp_path):
        rows = [["v2", 0.1, None, float("nan"), "ok"], ["tikhonov", -0.0, 3, None, "excluded"]]
        cli.write_csv(tmp_path / "t.csv", list("abcde"), rows)
        assert (tmp_path / "t.csv").read_text() == ("a,b,c,d,e\nv2,0.10000000000000001,,nan,ok\n"
                                                    "tikhonov,-0,3,,excluded\n")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),
                           st.sampled_from([0, 1 << 63, 0x7FF0000000000000, 0x3FF0000000000000])),
                 min_size=m, max_size=m),
        max_size=12)))
    def test_random_bit_patterns_match_per_value_formatting(self, rows):
        width = len(rows[0]) if rows else 3
        table = np.array(rows, dtype=np.uint64).reshape(-1, width).view(np.float64)
        assert cli._float_rows(table) == per_value_rows(table.tolist())


class TestParserReuse:
    """main() builds its parser once per process; no call may see another's flags."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_flag_does_not_leak_into_the_next_call(self, tmp_path):
        for name, extra in (("first", ["--mu", "0.3"]), ("second", [])):
            assert main(["solve", "--method", "lavrentiev", "--grid", "16",
                         "--out", str(tmp_path / name)] + extra) == 0
        first, second = (json.loads((tmp_path / name / "summary.json").read_text())
                         for name in ("first", "second"))
        assert first["params"]["mu"] == 0.3 and second["params"]["mu"] is None

    def test_a_usage_error_does_not_break_the_next_call(self, tmp_path):
        assert main(["solve", "--grid", "abc", "--out", str(tmp_path / "bad")]) == 1
        assert main(["solve", "--method", "lavrentiev", "--grid", "16",
                     "--out", str(tmp_path / "good")]) == 0
        assert (tmp_path / "good" / "solution.csv").exists()

    def test_reused_parser_matches_a_fresh_process(self, tmp_path):
        assert main(["reduce", "heat", "--grid2d", "8", "--u0-expr", "x*(1-x)",
                     "--out", str(tmp_path / "warm0")]) == 0
        assert main(["reduce", "heat", "--grid2d", "8", "--out", str(tmp_path / "warm")]) == 0
        src = os.path.dirname(os.path.dirname(fredsolve.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "fredsolve.cli", "reduce", "heat", "--grid2d", "8",
                        "--out", str(tmp_path / "fresh")], env=env, check=True,
                       capture_output=True, timeout=120)
        assert_same_files(tmp_path / "warm", tmp_path / "fresh")


@pytest.mark.parametrize("method", ["v2", "lavrentiev"])
def test_a_solve_leaves_numpy_ma_unimported(tmp_path, method):
    # np.unique imports numpy.ma on its first call, about 10 ms of a fresh process
    src = os.path.dirname(os.path.dirname(fredsolve.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from fredsolve.cli import main; "
            f"assert main(['solve', '--method', '{method}', '--out', sys.argv[1]]) == 0; "
            "print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    assert run.stdout.split()[-1] == "False"


class TestWarmMatrixCache:
    """A run whose assemblies and verifications take their matrices from grid's
    cache writes the same bytes as a run that builds them."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--method", "v2", "--grid", "128"],
        *(["solve", "--method", m, "--r", "0.9", "--grid", "128"] for m in ("v2", "v2_single", "v1")),
        ["bench", "--methods", "lavrentiev,quasisolution,v2", "--grid", "64"],
        ["solve", "--method", "v1", "--grid", "64"],
        *(["solve", "--method", m, "--grid", "64"] for m in (
            "tikhonov", "fridman", "krasnoselskii", "implicit", "steepest", "v2_single")),
        ["solve", "--problem", "poisson_r", "--method", "v1"],
        ["forward", "--grid", "64"]],
        ids=["solve", "v2-r0.9-128", "v2_single-r0.9-128", "v1-r0.9-128", "bench", "solve-v1", "tikhonov", "fridman", "krasnoselskii",
             "implicit", "steepest", "v2_single", "poisson_r-v1", "forward"])
    def test_warm_run_writes_the_cold_bytes(self, tmp_path, argv, sweeps, kernel_work):
        # every entry kind is met warm: matrices, moment sweeps, forward
        # matrices, free-term rules, the grid route's Poisson blocks and gate
        # verdicts, and the baselines' eigendecompositions.  forward assembles
        # nothing, and poisson_r's assembly is the plain Nystrom rule, so
        # neither sweeps
        assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
        assert grid._forward_cache._entries
        assert bool(sweeps) == (argv[0] != "forward" and "poisson_r" not in argv)
        cold_sweeps = len(sweeps)
        kernel_work.clear()
        assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
        assert len(sweeps) == cold_sweeps
        assert kernel_work == []
        assert_same_files(tmp_path / "cold", tmp_path / "warm")

    @pytest.mark.parametrize("method", ["v2", "v2_single", "v1", "lavrentiev", "tikhonov",
                                        "fridman", "krasnoselskii", "implicit", "steepest",
                                        "quasisolution"])
    def test_a_warm_request_skips_the_kernel_work(self, tmp_path, monkeypatch, sweeps,
                                                  kernel_work, method):
        # a registered kernel keys its matrices, free-term rules, Poisson blocks,
        # gate verdicts and eigendecompositions on itself: an identical warm
        # request evaluates no product rule, sweeps nothing, sums no series and
        # runs no SVD or eigh
        rules, solves = [], []
        row_rule = grid._row_rule
        monkeypatch.setattr(grid, "_row_rule", lambda *args: rules.append(args) or row_rule(*args))
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a) or solve(*a))
        argv = ["solve", "--method", method, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert rules and sweeps
        # the paper's methods sum series and gate; the other baselines diagonalize
        assert bool(kernel_work) == (method != "lavrentiev")
        rules.clear()
        sweeps.clear()
        kernel_work.clear()
        solves.clear()
        assert main(argv) == 0
        assert rules == [] and sweeps == [] and kernel_work == []
        # a baseline on a kept eigenbasis solves nothing either
        assert bool(solves) == (method in ("v2", "v2_single", "v1", "lavrentiev"))

    def test_a_warm_tabulated_request_skips_the_kernel_work(self, tmp_path, monkeypatch, sweeps):
        # a CSV table is a value too: a new load of the same file hits its free-term
        # rule and forward matrix (its assembly is the plain Nystrom rule, no sweep)
        table = tmp_path / "k.csv"
        table.write_text("x,0,0.5,1\n0,1,0.5,0\n0.5,0.5,1,0.5\n1,0,0.5,1\n")
        rules = []
        row_rule = grid._row_rule
        monkeypatch.setattr(grid, "_row_rule", lambda *args: rules.append(args) or row_rule(*args))
        argv = ["solve", "--method", "v2", "--problem", "tabulated", "--csv", str(table),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert rules and not sweeps
        rules.clear()
        assert main(argv) == 0
        assert rules == []

    @pytest.mark.parametrize("argv", [
        ["reduce", "membrane", "--solve", "--verify", "--grid2d", "24"],
        ["reduce", "heat", "--solve", "--verify", "--grid2d", "24", "--u0-expr", "x*(1-x)"]],
        ids=["membrane", "heat"])
    def test_a_2d_request_keeps_nothing_and_sweeps_each_time(self, tmp_path, argv, sweeps):
        # the tau stacks are closures: each request assembles T1 and T2 once and
        # leaves no entry behind, so a warm request sweeps as a cold one did
        assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
        assert not grid._forward_cache._entries and len(sweeps) == 2
        assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
        assert not grid._forward_cache._entries and len(sweeps) == 4
        assert_same_files(tmp_path / "cold", tmp_path / "warm")

    def test_an_ode_request_assembles_its_cumulative_rows_once(self, tmp_path, sweeps):
        # both routes integrate psi with the x - xi kernel, a value kept under itself;
        # the two routes' own kernels close over a(x) and keep nothing
        argv = ["reduce", "ode", "--solve", "--grid", "32"]
        assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
        assert len(grid._forward_cache._entries) == 1 and len(sweeps) == 3
        assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
        assert len(grid._forward_cache._entries) == 1 and len(sweeps) == 5
        assert_same_files(tmp_path / "cold", tmp_path / "warm")

    def test_cold_v1_request_sweeps_once(self, tmp_path, sweeps):
        # select_mu's workspace assembles the kernel on kernel_fourier_coeffs's
        # grid, so the second assembly reuses the first's stored matrix
        assert main(["solve", "--method", "v1", "--grid", "64",
                     "--out", str(tmp_path / "out")]) == 0
        assert sweeps == [64]

    @pytest.fixture
    def kernel_work(self, monkeypatch):
        # the name of every Poisson series, SVD and eigh call
        calls = []

        def counted(name, fn):
            return lambda *a, **k: calls.append(name) or fn(*a, **k)

        series = counted("kernel_matrix", kernels.kernel_matrix)
        for module in (kernels, method_core):
            monkeypatch.setattr(module, "kernel_matrix", series)
        for name in ("svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        return calls

    @pytest.fixture
    def sweeps(self, monkeypatch):
        # an empty matrix cache, and the size n of every moment sweep run after it
        monkeypatch.setattr(grid, "_forward_cache", grid._ForwardCache(grid._FORWARD_CACHE_BYTES))
        sweeps = []
        moments = grid._legendre_moments
        monkeypatch.setattr(grid, "_legendre_moments",
                            lambda z, kw, n: sweeps.append(n) or moments(z, kw, n))
        return sweeps


class TestGridOrder:
    # every subcommand that reads --grid refuses an order below 1 before it writes anything
    @pytest.mark.parametrize("grid_order", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ["solve"], ["solve", "--method", "lavrentiev"], ["forward", "--psi", "x"], ["bench"],
        ["reduce", "ode", "--solve"], ["reduce", "membrane", "--solve"],
        ["reduce", "heat", "--solve", "--verify"]],
        ids=["solve-v2", "solve-lavrentiev", "forward", "bench", "reduce-ode",
             "reduce-membrane", "reduce-heat"])
    def test_exit_1_and_no_output(self, tmp_path, capsys, argv, grid_order):
        assert main(argv + ["--grid", grid_order, "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCountOrder:
    # solve and bench refuse an iteration count or Fourier order below 1 before any work
    @pytest.mark.parametrize("argv", [
        ["solve", "--method", "fridman", "--iters", "-1"],
        ["solve", "--method", "fridman", "--iters", "0"],
        ["solve", "--method", "v1", "--fourier-n", "0"],
        ["bench", "--methods", "fridman", "--iters", "0"],
        ["bench", "--methods", "v1", "--fourier-n", "0"]],
        ids=["solve-iters-negative", "solve-iters-0", "solve-fourier-n-0", "bench-iters-0",
             "bench-fourier-n-0"])
    def test_exit_1_and_no_output(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestProblemsCommand:
    def test_lists_registry(self, capsys):
        assert main(["problems"]) == 0
        out = capsys.readouterr().out
        assert "green_triangular" in out

    def test_json_format(self, capsys):
        assert main(["problems", "--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert "green_triangular" in table

    def test_tabulated_entry_shows_path(self, capsys):
        assert main(["problems", "--csv", "/data/kern.csv"]) == 0
        assert "/data/kern.csv" in capsys.readouterr().out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [], ["plate"], ["solve", "--grid", "abc"], ["solve", "--no-such-flag"],
        ["reduce", "plate"], ["problems", "--format", "svg"]],
        ids=["no_command", "unknown_command", "bad_int", "unknown_flag", "unknown_bvp", "svg_format"])
    def test_exit_1_with_an_error_line(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)] if argv else argv) == 1
        assert "error: fredsolve" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # each subcommand accepts only the flags it reads, and no abbreviation of one
    @pytest.mark.parametrize("argv", [
        ["problems", "--alpha", "1"], ["forward", "--iters", "3"],
        ["reduce", "membrane", "--method", "lavrentiev"], ["bench", "--method", "v2"],
        ["solve", "--meth", "v2"]],
        ids=["problems-alpha", "forward-iters", "reduce-method", "bench-method",
             "solve-abbreviation"])
    def test_a_flag_the_command_never_reads_is_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ([] if argv[0] == "problems" else ["--out", str(out)])) == 1
        captured = capsys.readouterr()
        # the usage and error lines are the subcommand's own
        command = f"fredsolve {argv[0]}"
        assert captured.err.startswith(f"usage: {command} ")
        assert f"error: {command}: unrecognized arguments: {' '.join(argv[-2:])}\n" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv, code, lines", [
        (["solve", "--method", "v1"], 2, 1), (["solve", "--method", "lavrentiev"], 2, 1),
        (["bench"], 0, 0)], ids=["solve-v1", "solve-lavrentiev", "bench"])
    def test_an_overflowing_free_term_prints_no_warning(self, tmp_path, argv, code, lines):
        # the finite checks report exp(1000) on their own line; numpy stays silent
        src = os.path.dirname(os.path.dirname(fredsolve.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "fredsolve.cli", *argv, "--grid", "16",
                              "--f", "exp(1000*x)", "--out", str(tmp_path / "o")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == code
        assert len(run.stderr.splitlines()) == lines, run.stderr
        assert run.stderr == "" or run.stderr.startswith("numerical parameter error:")

    @pytest.mark.parametrize("psi", ["(" * 260 + "x" + ")" * 260, "+".join(["x"] * 1000)],
                             ids=["nested-parentheses", "flat-sum"])
    def test_a_too_deep_expression_exits_1_with_one_line(self, tmp_path, capsys, psi):
        # refused while parsing, before any recursion could run out of stack
        out = tmp_path / "out"
        assert main(["solve", f"--psi={psi}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: expression nested deeper than") and err.count("\n") == 1
        assert "column" in err and not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: fredsolve" in capsys.readouterr().out


class TestForwardCommand:
    def test_sine_forward(self, tmp_path):
        out = str(tmp_path)
        assert main(["forward", "--problem", "green_triangular",
                     "--psi", "sin(3.14159265*x)", "--out", out]) == 0
        _, rows = read_csv(tmp_path / "forward.csv")
        x = np.array([float(r[0]) for r in rows])
        f = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(f - np.sin(np.pi * x) / np.pi ** 2)) < 1e-6

    def test_zero_expression(self, tmp_path):
        assert main(["forward", "--psi", "0", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "forward.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_malformed_expression_exit_code(self, tmp_path, capsys):
        assert main(["forward", "--psi", "sin(", "--out", str(tmp_path)]) == 1
        assert "column 4" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", ["green_triangular", "poisson_r"])
    def test_problem_file_matches_flags(self, tmp_path, kernel):
        spec = tmp_path / "case.prob"
        spec.write_text(f"kernel={kernel}\nr=0.7\npsi_expr=sin(3.141592653589793*x)\n")
        assert main(["forward", "--problem", str(spec), "--grid", "32",
                     "--out", str(tmp_path / "file")]) == 0
        assert main(["forward", "--problem", kernel, "--r", "0.7", "--grid", "32",
                     "--psi", "sin(3.141592653589793*x)", "--out", str(tmp_path / "flags")]) == 0
        assert ((tmp_path / "file" / "forward.csv").read_bytes()
                == (tmp_path / "flags" / "forward.csv").read_bytes())

    @pytest.mark.parametrize("lines", ["f_expr=x\n",
                                       "psi_expr=x\nnoise.epsilon=0.001\n"])
    def test_problem_file_without_psi_to_map_exit_code_1(self, tmp_path, capsys, lines):
        spec = tmp_path / "case.prob"
        spec.write_text("kernel=green_triangular\n" + lines)
        assert main(["forward", "--problem", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert "forward needs psi_expr" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSolveCommand:
    def test_lavrentiev_summary(self, tmp_path):
        out = str(tmp_path)
        assert main(["solve", "--method", "lavrentiev", "--alpha", "1e-4",
                     "--problem", "green_triangular", "--out", out]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["method"] == "lavrentiev"
        assert summary["solvable"] in ("yes", "no", "unknown")
        assert summary["reconstruction_error_if_known"] == pytest.approx(6.972e-4, rel=0.05)

    def test_excluded_lambda_exit_code_2(self, tmp_path, capsys):
        rc = main(["solve", "--method", "v2", "--lambda", "0.5", "--out", str(tmp_path)])
        assert rc == 2
        assert "(1/2) r^-n" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["lavrentiev", "tikhonov"])
    def test_a_baseline_never_reads_lambda(self, tmp_path, method):
        # lambda = 0.5 is excluded for the paper's methods; a baseline runs as at 0.2
        for lam in ("0.2", "0.5"):
            assert main(["solve", "--method", method, "--lambda", lam,
                         "--out", str(tmp_path / lam)]) == 0
        assert ((tmp_path / "0.2" / "solution.csv").read_bytes()
                == (tmp_path / "0.5" / "solution.csv").read_bytes())

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # main silences the overflow
    def test_non_finite_free_term_exit_code_2(self, tmp_path, capsys):
        assert main(["solve", "--f", "exp(1000*x)", "--out", str(tmp_path)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("method", ["v2", "v2_single", "v1", "lavrentiev", "tikhonov"])
    @pytest.mark.parametrize("flag", [["--mu", "nan"], ["--mu", "inf"], ["--lambda", "nan"]])
    def test_non_finite_parameter_exit_code_2(self, tmp_path, capsys, method, flag):
        assert main(["solve", "--method", method, "--out", str(tmp_path / "o")] + flag) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", ["v2", "v2_single", "v1", "fridman", "quasisolution"])
    @pytest.mark.parametrize("header,cell", [("0,0.5,1", "nan"), ("0,nan,1", "1"),
                                             ("0,0.5,1", "-inf")])
    def test_non_finite_tabulated_kernel_exit_code_2(self, tmp_path, capsys, method,
                                                      header, cell):
        table = tmp_path / "k.csv"
        table.write_text(f"x,{header}\n0,1,1,1\n0.5,1,{cell},1\n1,1,1,1\n")
        spec = tmp_path / "case.prob"
        spec.write_text(f"kernel=tabulated\ncsv={table}\nf_expr=x\n")
        assert main(["solve", "--method", method, "--problem", str(spec), "--grid", "16",
                     "--out", str(tmp_path / "o")]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["--threshold", "nan"], ["--threshold", "inf"],
        ["--r", "nan"], ["--r", "nan", "--problem", "poisson_r"],
        ["--method", "fridman", "--step", "nan"], ["--method", "fridman", "--step", "inf"],
        ["--method", "krasnoselskii", "--step", "nan"],
        ["--method", "krasnoselskii", "--step", "inf"],
    ], ids=lambda argv: "-".join(a.strip("-") for a in argv))
    def test_non_finite_threshold_r_or_step_exit_code_2(self, tmp_path, capsys, argv):
        argv = ["solve", "--method", "lavrentiev"] + argv
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_tabulated_csv_flag_matches_problem_file(self, tmp_path, command):
        # --problem tabulated --csv builds the problem a file's csv= line builds
        table = tmp_path / "k.csv"
        table.write_text("x,0,0.5,1\n0,1,0.5,0\n0.5,0.5,1,0.5\n1,0,0.5,1\n")
        spec = tmp_path / "case.prob"
        spec.write_text(f"kernel=tabulated\ncsv={table}\nf_expr=1+x\n")
        argv = [command] + (["--methods", "lavrentiev", "--epsilons", "0,0.001"]
                            if command == "bench" else ["--method", "lavrentiev"])
        assert main(argv + ["--problem", "tabulated", "--csv", str(table), "--f", "1+x",
                            "--out", str(tmp_path / "flags")]) == 0
        assert main(argv + ["--problem", str(spec), "--out", str(tmp_path / "file")]) == 0
        name = "bench.csv" if command == "bench" else "solution.csv"
        flags = (tmp_path / "flags" / name).read_bytes()
        assert flags == (tmp_path / "file" / name).read_bytes()
        assert b"error:" not in flags and b"excluded" not in flags and b"nan" not in flags

    @pytest.mark.parametrize("kernel", ["poisson_r", "constant"])
    def test_fridman_default_step_follows_the_kernel(self, tmp_path, kernel):
        # without --step, fridman steps by the kernel's own lambda_1 (1 for both, not pi^2)
        assert main(["solve", "--method", "fridman", "--problem", kernel, "--grid", "32",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["solvable"] in ("yes", "no", "unknown")

    @pytest.mark.parametrize("method,code", [("fridman", 1), ("implicit", 1),
                                             ("krasnoselskii", 0)])
    def test_asymmetric_table_needs_the_normal_equations(self, tmp_path, capsys, method, code):
        # k(x, xi) = (1 + x) / 2: fridman and implicit run on a symmetric eigenbasis
        # and refuse it; krasnoselskii's default step 1 lies inside (0, 2/||A*A||)
        table = tmp_path / "k.csv"
        table.write_text("x,0,0.5,1\n0,0.5,0.5,0.5\n0.5,0.75,0.75,0.75\n1,1,1,1\n")
        rc = main(["solve", "--method", method, "--problem", "tabulated", "--csv", str(table),
                   "--f", "x", "--grid", "16", "--out", str(tmp_path / "o")])
        assert rc == code
        assert ("kernel asymmetry" in capsys.readouterr().err) == (code == 1)
        assert (tmp_path / "o" / "summary.json").exists() == (code == 0)

    def test_method_is_looked_up_when_it_runs(self, tmp_path, monkeypatch):
        # a replaced module attribute (perfbench's span wrapper, say) is the one called
        calls = []
        real = baselines.fridman_iterate

        def patched(*args, **kwargs):
            calls.append(kwargs["max_iter"])
            return real(*args, **kwargs)

        monkeypatch.setattr(baselines, "fridman_iterate", patched)
        assert main(["solve", "--method", "fridman", "--iters", "7", "--grid", "16",
                     "--out", str(tmp_path)]) == 0
        assert calls == [7]

    def test_zero_free_term(self, tmp_path):
        out = str(tmp_path)
        assert main(["solve", "--method", "v2", "--f", "0", "--mu", "0.05",
                     "--out", out]) == 0
        _, rows = read_csv(tmp_path / "solution.csv")
        assert all(float(r[1]) == 0.0 for r in rows)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["residual_l2"] == 0.0
        # no manufactured truth here, so the comparison field stays null
        assert summary["reconstruction_error_if_known"] is None

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["solve", "--method", "v2", "--mu", "0.05",
                         "--out", str(out), "--seedless"]) == 0
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_json_round_trip(self, tmp_path):
        assert main(["solve", "--method", "lavrentiev", "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "summary.json").read_text()
        redumped = json.dumps(json.loads(raw), indent=2, sort_keys=True, allow_nan=True) + "\n"
        assert redumped == raw

    @pytest.mark.parametrize("line", ["r=abc", "noise.epsilon=abc", "noise.omega=1e"])
    def test_non_numeric_problem_file_value_exit_code_1(self, tmp_path, capsys, line):
        spec = tmp_path / "case.prob"
        spec.write_text(f"kernel=poisson_r\npsi_expr=sin(3.141592653589793*x)\n{line}\n")
        assert main(["solve", "--problem", str(spec), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and line.split("=")[0] + " must be a number" in err
        assert not (tmp_path / "o").exists()

    def test_problem_spec_file(self, tmp_path):
        spec = tmp_path / "case.prob"
        spec.write_text("kernel=green_triangular\npsi_expr=sin(3.141592653589793*x)\n"
                        "noise.epsilon=0.0\n")
        assert main(["solve", "--method", "lavrentiev", "--alpha", "1e-4",
                     "--problem", str(spec), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["relative_residual"] < 0.01


class TestBenchCommand:
    def test_single_cell_matches_clean_run(self, tmp_path):
        out = str(tmp_path)
        assert main(["bench", "--methods", "lavrentiev", "--epsilons", "0",
                     "--omegas", "3.14159", "--alpha", "1e-4", "--out", out]) == 0
        header, rows = read_csv(tmp_path / "bench.csv")
        assert len(rows) == 1
        idx = header.index("reconstruction_error")
        assert float(rows[0][idx]) == pytest.approx(6.972e-4, rel=0.05)
        assert (tmp_path / "bench.svg").read_text().startswith("<svg")

    def test_noise_amplification_ratio(self, tmp_path):
        out = str(tmp_path)
        assert main(["bench", "--methods", "lavrentiev", "--epsilons", "0.001",
                     "--omegas", f"{math.pi:.17g},{5 * math.pi:.17g}",
                     "--alpha", "1e-6", "--out", out]) == 0
        header, rows = read_csv(tmp_path / "bench.csv")
        idx = header.index("reconstruction_error")
        errs = [float(r[idx]) for r in rows]
        ratio = errs[1] / errs[0]
        assert 12.5 <= ratio <= 50.0

    def test_excluded_row_recorded_not_fatal(self, tmp_path):
        out = str(tmp_path)
        assert main(["bench", "--methods", "v2", "--epsilons", "0",
                     "--omegas", "3.14", "--lambda", "0.5", "--out", out]) == 0
        header, rows = read_csv(tmp_path / "bench.csv")
        assert rows[0][header.index("status")].startswith("excluded")

    def test_an_excluded_lambda_leaves_the_baseline_rows_ok(self, tmp_path):
        assert main(["bench", "--methods", "lavrentiev,v2", "--lambda", "0.5", "--grid", "32",
                     "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "bench.csv")
        status = {(row[0], row[header.index("status")]) for row in rows}
        assert status == {("lavrentiev", "ok"), ("v2", "excluded: ParameterExclusionError")}

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # main silences the overflow
    @pytest.mark.parametrize("method", ["v1", "v2_single", "v2"])
    def test_non_finite_row_excluded(self, tmp_path, method):
        assert main(["bench", "--methods", method, "--epsilons", "0", "--f", "exp(1000*x)",
                     "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "bench.csv")
        assert rows[0][header.index("status")] == "excluded: NonFiniteValueError"

    @pytest.mark.parametrize("argv,code", [
        (["--epsilons", "nan,0"], 2), (["--epsilons", "0,inf"], 2), (["--epsilons=-0.01"], 1),
        (["--omegas", "nan"], 2), (["--epsilons", "0", "--omegas", "3,-inf"], 2),
        (["--epsilons", "abc"], 1), (["--omegas", "x"], 1),
    ], ids=["eps-nan", "eps-inf", "eps-negative", "omega-nan", "omega-minus-inf",
            "eps-not-a-number", "omega-not-a-number"])
    def test_invalid_noise_level_writes_nothing(self, tmp_path, capsys, argv, code):
        assert main(["bench", "--methods", "lavrentiev", "--out", str(tmp_path / "o")]
                    + argv) == code
        err = capsys.readouterr().err
        assert "epsilon" in err or "omega" in err
        assert not (tmp_path / "o" / "bench.csv").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_refused_before_any_row(self, tmp_path, capsys, monkeypatch,
                                                         threshold):
        ran = []
        monkeypatch.setattr(cli, "_bench_one", lambda *args: ran.append(args))
        assert main(["bench", "--methods", "lavrentiev,v2", "--threshold", threshold,
                     "--out", str(tmp_path / "o")]) == 2
        assert "threshold" in capsys.readouterr().err
        assert ran == [] and not (tmp_path / "o").exists()

    def test_unknown_method_refused_before_any_row(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "_bench_one", lambda *args: ran.append(args))
        assert main(["bench", "--methods", "lavrentiev,nosuch",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --methods") and "nosuch" in err
        assert ran == [] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line,code", [("noise.epsilon=nan", 2), ("noise.epsilon=-1", 1),
                                           ("noise.omega=inf", 2)])
    def test_invalid_problem_file_noise_writes_nothing(self, tmp_path, line, code):
        spec = tmp_path / "case.prob"
        spec.write_text(f"kernel=green_triangular\npsi_expr=sin(3.141592653589793*x)\n{line}\n")
        assert main(["bench", "--methods", "lavrentiev", "--problem", str(spec),
                     "--out", str(tmp_path / "o")]) == code
        assert not (tmp_path / "o" / "bench.csv").exists()


class TestReduceCommand:
    def test_membrane_kernels_csv(self, tmp_path):
        out = str(tmp_path)
        assert main(["reduce", "membrane", "--out", out, "--grid2d", "8"]) == 0
        header, rows = read_csv(tmp_path / "membrane_kernels.csv")
        ix, iy, i_f = header.index("x"), header.index("y"), header.index("f")
        for row in rows:
            assert float(row[i_f]) == pytest.approx(
                0.5 * float(row[iy]) * (1 - float(row[iy])), abs=1e-12)

    @pytest.mark.parametrize("bvp", ["membrane", "heat"])
    def test_kernel_table_matches_pointwise_samples(self, tmp_path, bvp):
        assert main(["reduce", bvp, "--out", str(tmp_path), "--grid2d", "6"]) == 0
        red = (reduction2d.reduce_membrane() if bvp == "membrane"
               else reduction2d.reduce_heat(compile_expr("sin(3.141592653589793*x)")))
        nodes = gauss_legendre(6, 0.0, 1.0).nodes
        want = [[cli._fmt(v) for v in (x, y, float(red.tau1(x, y, 0.5)),
                                       float(red.tau2(x, y, 0.5)),
                                       float(np.asarray(red.free_term(x, y))))]
                for x in nodes for y in nodes]
        assert read_csv(tmp_path / f"{bvp}_kernels.csv")[1] == want

    def test_ode_solve(self, tmp_path):
        out = str(tmp_path)
        assert main(["reduce", "ode", "--solve", "--out", out]) == 0
        header, rows = read_csv(tmp_path / "ode.csv")
        iu = header.index("u_volterra")
        for row in rows:
            x = float(row[header.index("x")])
            assert float(row[iu]) == pytest.approx(1 - math.cosh(x) / math.cosh(1), abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # main silences the overflow
    def test_ode_non_finite_writes_nothing(self, tmp_path):
        assert main(["reduce", "ode", "--solve", "--f-expr", "exp(1000*x)",
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["reduce", "membrane", "--grid2d", "0"], ["reduce", "heat", "--solve", "--grid2d", "-3"],
        ["reduce", "ode", "--solve", "--grid", "0"], ["reduce", "ode"]])
    def test_configuration_error_creates_no_directory(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # main silences the overflow
    @pytest.mark.parametrize("extra", [
        ["--u0-expr", "sin(3.141592653589793*x)*exp(4000*x*(1-x))"],
        ["--u0-expr", "sin(3.141592653589793*x)*exp(4000*x*(1-x))", "--solve"],
        ["--u0-expr", "exp(1000*x)*0*x", "--solve"],
    ])
    def test_heat_non_finite_writes_nothing(self, tmp_path, extra):
        assert main(["reduce", "heat", "--grid2d", "8", "--out", str(tmp_path / "out")] + extra) == 2
        assert not (tmp_path / "out").exists()

    def test_membrane_non_finite_mu_writes_nothing(self, tmp_path):
        assert main(["reduce", "membrane", "--solve", "--mu", "nan", "--grid2d", "8",
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_membrane_non_finite_threshold_writes_nothing(self, tmp_path, capsys, threshold):
        assert main(["reduce", "membrane", "--solve", "--threshold", threshold, "--grid2d", "8",
                     "--out", str(tmp_path / "out")]) == 2
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_membrane_solve_verify(self, tmp_path):
        out = str(tmp_path)
        assert main(["reduce", "membrane", "--solve", "--verify", "--out", out,
                     "--grid2d", "12", "--mu", "0.05"]) == 0
        summary = json.loads((tmp_path / "reduce.json").read_text())
        assert "residual_l2" in summary and "solvable" in summary
        assert "closure_delta" in summary

    @pytest.mark.parametrize("bvp", ["membrane", "heat"])
    def test_solve_verify_assembles_each_tau_direction_once(self, tmp_path, monkeypatch, bvp):
        # the solve's stacks serve its verification and both reconstructions
        calls = []
        real = grid.operator_matrix

        def counting(*args, **kwargs):
            calls.append(args[1].n)
            return real(*args, **kwargs)
        for module in (grid, baselines, fredholm2, method_core, reduction2d):
            monkeypatch.setattr(module, "operator_matrix", counting)
        assert main(["reduce", bvp, "--solve", "--verify", "--grid2d", "12",
                     "--out", str(tmp_path)]) == 0
        assert calls == [12] * 2

    @pytest.mark.parametrize("grid_order", ["32", "96"])
    def test_grid_does_not_reach_the_2d_artifacts(self, tmp_path, grid_order):
        # the 2D product rule follows --grid2d alone; --grid is only validated
        argv = ["reduce", "heat", "--solve", "--verify", "--grid2d", "24", "--u0-expr", "x*(1-x)"]
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        assert main(argv + ["--grid", grid_order, "--out", str(tmp_path / "grid")]) == 0
        assert_same_files(tmp_path / "default", tmp_path / "grid")

    def test_unknown_bvp(self, tmp_path):
        assert main(["reduce", "plate", "--out", str(tmp_path)]) == 1
