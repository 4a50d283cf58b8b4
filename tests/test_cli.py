import concurrent.futures
import csv
import json
import math

import numpy as np
import pytest

from fredsolve import cli
from fredsolve.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp(1000) overflows
    def test_non_finite_free_term_exit_code_2(self, tmp_path, capsys):
        assert main(["solve", "--f", "exp(1000*x)", "--out", str(tmp_path)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp(1000) overflows
    def test_non_finite_row_excluded(self, tmp_path):
        assert main(["bench", "--methods", "v2", "--epsilons", "0", "--f", "exp(1000*x)",
                     "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "bench.csv")
        assert rows[0][header.index("status")] == "excluded: NonFiniteValueError"


    def test_rows_independent_of_pool_size(self, tmp_path, monkeypatch):
        # the baseline rows run concurrently; one worker must give the same bytes
        argv = ["bench", "--methods",
                "lavrentiev,tikhonov,fridman,krasnoselskii,implicit,steepest,quasisolution"]
        assert main(argv + ["--out", str(tmp_path / "pool")]) == 0
        monkeypatch.setattr(cli, "ThreadPoolExecutor",
                            lambda max_workers: concurrent.futures.ThreadPoolExecutor(1))
        assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
        assert ((tmp_path / "pool" / "bench.csv").read_bytes()
                == (tmp_path / "serial" / "bench.csv").read_bytes())


class TestReduceCommand:
    def test_membrane_kernels_csv(self, tmp_path):
        out = str(tmp_path)
        assert main(["reduce", "membrane", "--out", out, "--grid2d", "8"]) == 0
        header, rows = read_csv(tmp_path / "membrane_kernels.csv")
        ix, iy, i_f = header.index("x"), header.index("y"), header.index("f")
        for row in rows:
            assert float(row[i_f]) == pytest.approx(
                0.5 * float(row[iy]) * (1 - float(row[iy])), abs=1e-12)

    def test_ode_solve(self, tmp_path):
        out = str(tmp_path)
        assert main(["reduce", "ode", "--solve", "--out", out]) == 0
        header, rows = read_csv(tmp_path / "ode.csv")
        iu = header.index("u_volterra")
        for row in rows:
            x = float(row[header.index("x")])
            assert float(row[iu]) == pytest.approx(1 - math.cosh(x) / math.cosh(1), abs=1e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp(1000) overflows
    def test_ode_non_finite_writes_nothing(self, tmp_path):
        assert main(["reduce", "ode", "--solve", "--f-expr", "exp(1000*x)",
                     "--out", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp(...) overflows
    @pytest.mark.parametrize("extra", [
        ["--u0-expr", "sin(3.141592653589793*x)*exp(4000*x*(1-x))"],
        ["--u0-expr", "sin(3.141592653589793*x)*exp(4000*x*(1-x))", "--solve"],
        ["--u0-expr", "exp(1000*x)*0*x", "--solve"],
    ])
    def test_heat_non_finite_writes_nothing(self, tmp_path, extra):
        assert main(["reduce", "heat", "--grid2d", "8", "--out", str(tmp_path)] + extra) == 2
        assert list(tmp_path.iterdir()) == []

    def test_membrane_solve_verify(self, tmp_path):
        out = str(tmp_path)
        assert main(["reduce", "membrane", "--solve", "--verify", "--out", out,
                     "--grid2d", "12", "--mu", "0.05"]) == 0
        summary = json.loads((tmp_path / "reduce.json").read_text())
        assert "residual_l2" in summary and "solvable" in summary
        assert "closure_delta" in summary

    def test_unknown_bvp(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["reduce", "plate", "--out", str(tmp_path)])
