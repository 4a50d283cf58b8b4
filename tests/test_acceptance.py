"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines and the
logged (non-asserted) diagnostics.
"""

import contextlib
import json
import time

import numpy as np
import pytest

import fredsolve as fs
from fredsolve import kernels
from fredsolve.cli import main as cli_main
from fredsolve.fredholm2 import gated_system
from fredsolve.grid import operator_matrix
from fredsolve.kernels import kernel_matrix
from fredsolve.method_core import MethodParams, _fourier_route, _Workspace

from oracles import composite_gauss, membrane_psi, split_gauss, textbook_trajectory, tri_green


@contextlib.contextmanager
def criterion(num, description, max_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    if max_seconds is not None and elapsed > max_seconds:
        print(f"[criterion {num:2d}] FAIL - {description} (runtime {elapsed:.2f} s "
              f"> {max_seconds} s)")
        raise AssertionError(f"criterion {num} exceeded {max_seconds} s: {elapsed:.2f} s")
    print(f"[criterion {num:2d}] PASS - {description} ({elapsed:.2f} s)")


def m1_problem():
    return fs.make_manufactured("green_triangular",
                                lambda x: np.sin(np.pi * np.asarray(x)))


def test_criterion_01_poisson_kernel_identities(monkeypatch):
    with criterion(1, "Poisson kernel identities (series bound, unit mass, eigen-action)",
                   max_seconds=1.0):
        p = fs.PoissonParams.create(r=0.5, lam=0.2)
        xs = np.linspace(0.0, 1.0, 101)
        bound = 2.0 * 0.5 ** 41 / 0.5
        assert bound <= 4e-12
        # at lambda = 0 the H series is the h series, here cut at N = 40
        monkeypatch.setattr(kernels, "MIN_REL_DIST", 0.0)
        p40 = fs.PoissonParams.create(r=0.5, lam=0.0, n_trunc=40, series_tol=bound)
        series = kernel_matrix("H", p40, xs, [0.3])[:, 0]
        dev = np.abs(series - fs.poisson_h(xs, 0.3, p))
        assert np.max(dev) <= bound
        g = fs.gauss_legendre(64, 0.0, 1.0)
        for x in (0.0, 0.31, 0.77):
            assert abs(float(fs.poisson_h(x, g.nodes, p) @ g.weights) - 1.0) <= 1e-10
        pts = np.linspace(0, 1, 33)
        for n in range(1, 9):
            lhs = (fs.poisson_h(pts[:, None], g.nodes[None, :], p)
                   * g.weights[None, :]) @ np.cos(2 * n * np.pi * g.nodes)
            assert np.max(np.abs(lhs - 0.5 ** n * np.cos(2 * n * np.pi * pts))) <= 1e-9


def test_criterion_02_resolvent_identities_lattice():
    with criterion(2, "resolvent identities for H and L over the (r, lambda) lattice",
                   max_seconds=5.0):
        for r in (0.3, 0.5, 0.7):
            for lam in (-0.3, 0.2, 0.35):
                p = fs.PoissonParams.create(r=r, lam=lam)
                s = np.linspace(-1, 1, 33)
                g = fs.Grid1D(*composite_gauss(-1.0, 1.0, 2, 128), -1.0, 1.0)
                res_H = kernel_matrix("H", p, s, s) - (
                    fs.poisson_h(s[:, None], s[None, :], p)
                    + lam * (fs.poisson_h(s[:, None], g.nodes[None, :], p)
                             * g.weights[None, :]) @ kernel_matrix("H", p, g.nodes, s))
                assert np.max(np.abs(res_H)) < 1e-8
                s1 = np.linspace(0, 1, 33)
                g1 = fs.gauss_legendre(128, 0.0, 1.0)
                res_L = kernel_matrix("L", p, s1, s1) - (
                    kernel_matrix("l", p, s1, s1)
                    + p.Lambda * (kernel_matrix("l", p, s1, g1.nodes) * g1.weights[None, :])
                    @ kernel_matrix("L", p, g1.nodes, s1))
                assert np.max(np.abs(res_L)) < 1e-8


def test_criterion_03_nystrom_vs_eigen_expansion():
    with criterion(3, "second-kind Nystrom solve matches the analytic eigen-expansion",
                   max_seconds=1.0):
        grid = fs.gauss_legendre(64, 0.0, 1.0)
        alpha = 0.1
        M = gated_system(operator_matrix(tri_green, grid, diag_split=True), -1.0 / alpha)
        psi = fs.solve_direct(M, np.sin(np.pi * grid.nodes) / alpha)
        exact = np.pi ** 2 / (1.0 + alpha * np.pi ** 2) * np.sin(np.pi * grid.nodes)
        assert np.max(np.abs(psi - exact)) < 1e-8


def test_criterion_04_lavrentiev_accuracy_law():
    with criterion(4, "Lavrentiev error follows (alpha pi^2/(1+alpha pi^2))/sqrt(2)",
                   max_seconds=1.0):
        prob = m1_problem()
        errs = []
        for alpha in (1e-2, 1e-4, 1e-6):
            psi = fs.lavrentiev(prob, alpha)
            err = psi.grid.l2_norm(psi.values - np.sin(np.pi * psi.grid.nodes))
            law = (alpha * np.pi ** 2 / (1 + alpha * np.pi ** 2)) / np.sqrt(2.0)
            assert abs(err - law) <= 0.05 * law
            errs.append(err)
        assert errs[0] > errs[1] > errs[2]


def test_criterion_05_iteration_families():
    with criterion(5, "iteration families: monotone decrease and fixed points",
                   max_seconds=5.0):
        prob = m1_problem()
        grid = fs.gauss_legendre(64, 0.0, 1.0)
        exact = np.sin(np.pi * grid.nodes)
        eps = np.finfo(float).eps
        # monotone decrease (multi-mode starts keep every contraction active) along
        # the textbook trajectory; the production iterate matches it at sampled k
        # within the rounding bound of test_baselines.TestTextbookOracle
        # (kappa = cond(I + A) < 1.2 for implicit at alpha = 1)
        for method, run, param, psi0, k in (
                ("fridman", fs.fridman_iterate, np.pi ** 2, lambda x: x, 200),
                ("krasnoselskii", fs.krasnoselskii_iterate, 1.0, np.zeros(grid.n), 200),
                ("implicit", fs.implicit_iterate, 1.0, np.zeros(grid.n), 100)):
            traj = textbook_trajectory(method, prob, grid, param, psi0, k)
            errs = np.array([grid.l2_norm(v - exact) for v in traj])
            assert len(errs) == k + 1 and np.all(np.diff(errs) < 0)
            scale = max(grid.l2_norm(v) for v in traj)
            for j in (1, 7, k // 2, k):
                got = run(prob, param, psi0, max_iter=j).values
                assert grid.l2_norm(got - traj[j]) <= 1.2 * (j + 1) * grid.n * eps * scale
        # the exact solution is a fixed point of both explicit schemes
        A = operator_matrix(prob.kernel, grid, diag_split=True)
        assert grid.l2_norm(A @ exact - prob.free_term(grid.nodes)) < 1e-10
        for runner, step in ((fs.fridman_iterate, np.pi ** 2),
                             (fs.krasnoselskii_iterate, 1.0)):
            for j in (1, 2, 3):
                psi = runner(prob, step, lambda x: np.sin(np.pi * x), max_iter=j)
                assert grid.l2_norm(psi.values - exact) < 1e-10


def test_criterion_06_noise_amplification():
    with criterion(6, "output-perturbation ratio between modes 5 and 1 sits in [12.5, 50]",
                   max_seconds=2.0):
        prob = m1_problem()
        alpha, eps = 1e-6, 1e-4
        clean = fs.lavrentiev(prob, alpha)
        norms = {}
        for m in (1, 5):
            noisy = fs.perturb(prob, fs.NoiseSpec(eps, m * np.pi))
            out = fs.lavrentiev(noisy, alpha)
            norms[m] = out.grid.l2_norm(out.values - clean.values)
        assert 12.5 <= norms[5] / norms[1] <= 50.0


def test_criterion_07_method_v2_structural_suite():
    with criterion(7, "grid-route structural suite (exactness, exclusions, linearity, "
                      "eigencomponent factors, end-to-end run)", max_seconds=5.0):
        prob = m1_problem()
        params = MethodParams.create(r=0.5, lam=0.2, mu=0.05)
        started = time.perf_counter()
        state = fs.method_v2(prob, params)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        assert np.array_equal(state.psi.values, state.psi0.values + state.psi1.values)
        recon = state.psi.grid.l2_norm(state.psi.values - prob.psi_star(state.psi.grid.nodes))
        print(f"    [logged] v2 residual={state.residual_l2:.6e} "
              f"relative={state.relative_residual:.6e} "
              f"reconstruction={recon:.6e}")
        for lam in (0.5, -1.0 + np.sqrt(2.0)):
            with pytest.raises(fs.ParameterExclusionError):
                fs.method_v2(prob, MethodParams.create(r=0.5, lam=lam, mu=0.05))
        # linearity of every pipeline stage, on the workspace that method_v2 runs
        ws = _Workspace(params, prob)
        x, xm = ws.grid01.nodes, ws.gridm.nodes
        u, v = np.sin(2 * np.pi * x) + 0.25, x * np.cos(4 * np.pi * x)
        um, vm = np.sin(2 * np.pi * xm) + 0.25, xm * np.cos(4 * np.pi * xm)
        for stage, (a, b) in ((ws.rho, (u, v)), (ws.kappa, (um, vm)), (ws.F0, (um, vm)),
                              (lambda g: ws.F1(0.05, g), (u, v))):
            ra, rb, rc = stage(a), stage(b), stage(1.5 * a - 2.0 * b)
            assert np.max(np.abs(rc - 1.5 * ra + 2.0 * rb)) < 1e-10
        # eigencomponent propagation factors
        lam, r = 0.2, 0.5
        for n in (1, 2, 4):
            out = ws.F0(ws.kappa(ws.rho(np.cos(2 * n * np.pi * x))))
            rn = r ** n
            factor = (-lam * rn) * ((1 - 2 * lam * rn)
                                    / (1 - 2 * lam * rn - lam ** 2 * rn ** 2)) \
                * (lam * rn / (1 - 2 * lam * rn))
            assert np.max(np.abs(out - factor * np.cos(2 * n * np.pi * x))) < 1e-9


def test_criterion_08_cross_route_consistency():
    with criterion(8, "single-integration route reproduces the two-solve route's "
                      "psi0 = (psi0+psi1) - psi1", max_seconds=5.0):
        prob = m1_problem()
        params = MethodParams.create(r=0.5, lam=0.2, mu=0.02)
        state = fs.method_v2(prob, params)
        single, _ = fs.method_v2_single(prob, params)
        dev = np.max(np.abs(single.values - state.psi0.values))
        print(f"    [logged] |single - psi0|_max = {dev:.3e}, "
              f"|single - (psi0+psi1)|_L2 = "
              f"{state.psi.grid.l2_norm(single.values - state.psi.values):.3e}")
        assert dev < 1e-6


def test_criterion_09_fourier_route():
    with criterion(9, "Fourier route: zero input, closed-form row, bounded solve, "
                      "end-to-end run", max_seconds=10.0):
        params = MethodParams.create(r=0.5, lam=0.2, mu=0.1)
        zero = fs.FirstKindProblem(name="zero", kernel=lambda x, xi: 0.0 * x * xi,
                                   free_term=lambda x: 0.0 * x, provenance="test")
        assert np.max(np.abs(fs.method_v1(zero, params, n_fourier=8).values)) == 0.0
        ones = fs.FirstKindProblem(name="k0", kernel=lambda x, xi: 0.0 * x * xi,
                                   free_term=lambda x: np.ones_like(x), provenance="test")
        s, t = _fourier_route(ones, params, 8)
        lam, mu, c0 = 0.2, 0.1, 2.0
        assert s[0] == pytest.approx(-mu * (1 - lam) * c0 / (1 - 2 * lam), abs=1e-12)
        sigma = -mu * lam ** 2 * (1 - lam) / ((1 - 2 * lam) * (1 - 2 * lam - lam ** 2))
        assert t[0] == pytest.approx(sigma * (-c0), abs=1e-12)
        s, _ = _fourier_route(m1_problem(), params, 16)
        assert np.all(np.isfinite(s)) and np.max(np.abs(s)) < 1.0
        psi = fs.method_v1(m1_problem(), params, n_fourier=16)
        recon = psi.grid.l2_norm(psi.values - np.sin(np.pi * psi.grid.nodes))
        print(f"    [logged] v1 reconstruction error = {recon:.6e}")


def test_criterion_10_ode_reduction():
    with criterion(10, "both ODE reduction routes reproduce 1 - cosh(x)/cosh(1)",
                   max_seconds=1.0):
        a = lambda x: np.ones_like(x)
        f = lambda x: -np.ones_like(x)
        _, u_v = fs.reduce_ode_volterra(a, f)
        _, u_f = fs.reduce_ode_fredholm(a, f)
        x = u_v.grid.nodes
        exact = 1.0 - np.cosh(x) / np.cosh(1.0)
        assert np.max(np.abs(u_v.values - exact)) < 1e-6
        assert np.max(np.abs(u_f.values - exact)) < 1e-6
        assert np.max(np.abs(u_v.values - u_f.values)) < 1e-8


def test_criterion_11_membrane():
    with criterion(11, "membrane: oracle substitution, exact boundary vanishing, "
                       "closure delta", max_seconds=10.0):
        red = fs.reduce_membrane()
        gx = fs.gauss_legendre(24, 0.0, 1.0)
        gy = fs.gauss_legendre(24, 0.0, 1.0)
        psi = fs.GridFunction2D(gx, gy, membrane_psi(gx.nodes[:, None],
                                                     gy.nodes[None, :], n_terms=20))
        report = fs.verify2d(red, psi, threshold=0.05)
        assert report.relative < 1e-3
        # exact boundary vanishing of each route at its own pair of edges
        xi = np.linspace(0, 1, 41)
        zq, wq = split_gauss(0.0, 0.37, 1.0, 32)
        for xb in (0.0, 1.0):
            assert np.max(np.abs(red.tau1(xb, 0.5, xi))) == 0.0
            assert float(np.sum(wq * red.tau1(xb, 0.5, zq) * np.exp(zq))) == 0.0
        for yb in (0.0, 1.0):
            assert np.max(np.abs(red.tau2(0.5, yb, xi))) == 0.0
            assert float(red.free_term(0.5, yb)) == 0.0
        u1 = fs.reconstruct_u(red, psi, "x")
        u2 = fs.reconstruct_u(red, psi, "y")
        delta = fs.closure_delta(u1, u2)
        print(f"    [logged] membrane closure delta = {delta:.6e}")
        for c in (0.3, 7.0):
            scaled = fs.closure_delta(
                fs.GridFunction2D(gx, gy, c * u1.values),
                fs.GridFunction2D(gx, gy, c * u2.values))
            assert abs(scaled - delta) < 1e-12
        result = fs.method2d_solve(red, MethodParams.create(r=0.5, lam=0.2, mu=0.05),
                                   nx=24, ny=24)
        assert np.array_equal(result.psi.values,
                              result.psi0.values + result.psi1.values)
        print(f"    [logged] method2d membrane relative residual = "
              f"{result.report.relative:.6e}")


def test_criterion_12_solvability_filter():
    with criterion(12, "solvability filter separates obstructed and manufactured data",
                   max_seconds=10.0):
        obstructed = fs.FirstKindProblem(
            name="tri-f1", kernel=tri_green,
            free_term=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            provenance="test", diag_split=True)
        state = fs.method_v2(obstructed, MethodParams.create(r=0.5, lam=0.2, mu=0.05))
        report = fs.verify_solution(obstructed, state.psi, threshold=0.05)
        assert report.solvable == "no"
        prob = m1_problem()
        grid = fs.gauss_legendre(64, 0.0, 1.0)
        truth = fs.GridFunction(grid, np.sin(np.pi * grid.nodes))
        report = fs.verify_solution(prob, truth, threshold=0.05)
        assert report.residual_l2 < 1e-8
        assert report.solvable == "yes"


def test_criterion_13_cli_determinism(tmp_path):
    with criterion(13, "CLI determinism (byte-identical artifacts) and exit code 2 "
                       "on excluded lambda", max_seconds=30.0):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli_main(["solve", "--method", "v2", "--mu", "0.05",
                             "--out", str(out), "--seedless"]) == 0
            runs.append(((out / "solution.csv").read_bytes(),
                         (out / "summary.json").read_bytes()))
        assert runs[0] == runs[1]
        summary = json.loads(runs[0][1].decode())
        for key in ("method", "params", "residual_l2", "relative_residual",
                    "solvable", "runtime_ms", "reconstruction_error_if_known"):
            assert key in summary
        rc = cli_main(["solve", "--method", "v2", "--lambda", "0.5",
                       "--out", str(tmp_path / "c")])
        assert rc == 2
