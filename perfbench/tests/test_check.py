import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import workloads
from conftest import BENCH

CASES = [("solve_1d", "v2-n64-r0.5-0"), ("solve_1d", "v1-n64-r0.9-9"),
         ("solve_1d", "lavrentiev-eps0"), ("solve_1d", "fridman-eps0.01")]


def _run(name, label, tmp_path):
    import fredsolve.cli as cli

    pool = workloads.make_pool(name, 11)
    argvs = workloads.materialize(pool, str(tmp_path))
    i = [r.label for r in pool].index(label)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argvs[i]) == 0
    return argvs[i][-1], pool[i].truth


def _scale_psi(out_dir, factor):
    path = os.path.join(out_dir, "solution.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = [lines[0]] + [f"{x},{float(p) * factor!r}" for x, p in
                         (ln.split(",") for ln in lines[1:])]
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


@pytest.mark.parametrize("name,label", CASES)
def test_check_passes_real_output_and_flags_psi_scaled_by_two(name, label, tmp_path):
    out, truth = _run(name, label, tmp_path)
    quality = check.check_solve(out, truth)
    with open(os.path.join(out, "summary.json")) as fh:
        reported = json.load(fh)["relative_residual"]
    assert abs(quality["relative_residual"] - reported) <= 1e-9 * reported + 1e-13
    _scale_psi(out, 2.0)
    with pytest.raises(check.CheckError):
        check.check_solve(out, truth)


def test_check_flags_a_missing_artifact(tmp_path):
    out, truth = _run("solve_1d", "lavrentiev-eps0", tmp_path)
    os.remove(os.path.join(out, "summary.json"))
    with pytest.raises(check.CheckError):
        check.check_solve(out, truth)


def test_reduce_check_requires_finite_figures(tmp_path):
    g = 2
    with open(tmp_path / "heat_solution.csv", "w") as fh:
        fh.write("x,y,psi\n" + "0.1,0.2,0.3\n" * (g * g))
    summary = {"bvp": "heat", "mu": 0.05, "residual_l2": 0.1, "relative_residual": 0.9,
               "solvable": "no", "closure_delta": 1.9}
    (tmp_path / "reduce.json").write_text(json.dumps(summary))
    truth = {"bvp": "heat", "grid2d": g}
    assert check.check_reduce(str(tmp_path), truth)["relative_residual"] == 0.9
    (tmp_path / "reduce.json").write_text(json.dumps(dict(summary, closure_delta=None)))
    with pytest.raises(check.CheckError):
        check.check_reduce(str(tmp_path), truth)
    (tmp_path / "reduce.json").write_text(
        json.dumps(dict(summary, relative_residual=float("nan"))))
    with pytest.raises(check.CheckError):
        check.check_reduce(str(tmp_path), truth)


def test_interpolation_is_exact_on_polynomials():
    nodes, _ = check.gauss(12, 0.0, 1.0)
    poly = np.polynomial.Polynomial([0.3, -1.0, 2.0, 0.5, -0.25])
    z = np.array([[0.0, 0.37, nodes[3]], [1.0, 0.5, nodes[-1]]])
    got = check.interpolate(nodes, check.bary_weights(12), poly(nodes), z)
    np.testing.assert_allclose(got, poly(z), rtol=0, atol=1e-13)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reduce_2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
