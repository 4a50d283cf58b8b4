import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredsolve.errors import ConfigError, NonFiniteValueError, UndefinedDeltaError
from fredsolve.grid import gauss_legendre, operator_matrix
from fredsolve.method_core import MethodParams
from fredsolve.reduction2d import (Bvp2DReduction, GridFunction2D,
                                   closure_delta, forward2d, method2d_solve,
                                   reconstruct_u, reduce_heat, reduce_membrane,
                                   reduce_ode_fredholm, reduce_ode_volterra,
                                   verify2d)

from oracles import heat_mode, membrane_psi, membrane_u, split_gauss

PARAMS = MethodParams.create(r=0.5, lam=0.2, mu=0.05)


def _sample2d(fn, nx=24, ny=24):
    gx = gauss_legendre(nx, 0.0, 1.0)
    gy = gauss_legendre(ny, 0.0, 1.0)
    return GridFunction2D(gx, gy, np.asarray(fn(gx.nodes[:, None], gy.nodes[None, :]), dtype=float))


class TestOdeReduction:
    def test_pure_double_integration(self):
        # a = 0, f = -1: u = (1 - x^2)/2 with u'(0) = 0, u(1) = 0
        psi, u = reduce_ode_volterra(lambda x: 0.0 * x, lambda x: -np.ones_like(x))
        x = u.grid.nodes
        assert np.max(np.abs(u.values - 0.5 * (1.0 - x * x))) < 1e-12
        assert np.max(np.abs(psi.values + 1.0)) < 1e-12
        # boundary values from the analytic form
        assert abs(float(np.polyfit(x, u.values, 2)[0]) + 0.5) < 1e-10

    def test_constant_coefficient_hyperbolic(self):
        psi, u = reduce_ode_volterra(lambda x: np.ones_like(x), lambda x: -np.ones_like(x))
        x = u.grid.nodes
        assert np.max(np.abs(u.values - (1.0 - np.cosh(x) / np.cosh(1.0)))) < 1e-6
        assert np.max(np.abs(psi.values + np.cosh(x) / np.cosh(1.0))) < 1e-6

    def test_fredholm_route_matches(self):
        psi, u = reduce_ode_fredholm(lambda x: np.ones_like(x), lambda x: -np.ones_like(x))
        x = u.grid.nodes
        assert np.max(np.abs(u.values - (1.0 - np.cosh(x) / np.cosh(1.0)))) < 1e-6

    def test_routes_agree_a_zero(self):
        _, uv = reduce_ode_volterra(lambda x: 0.0 * x, lambda x: -np.ones_like(x))
        _, uf = reduce_ode_fredholm(lambda x: 0.0 * x, lambda x: -np.ones_like(x))
        assert np.max(np.abs(uv.values - uf.values)) < 1e-10

    def test_routes_agree_variable_coefficient(self):
        a = lambda x: 1.0 + x * x
        f = lambda x: np.sin(np.pi * x)
        _, uv = reduce_ode_volterra(a, f)
        _, uf = reduce_ode_fredholm(a, f)
        assert np.max(np.abs(uv.values - uf.values)) < 1e-8


class TestMembraneReduction:
    def test_tau1_value(self):
        red = reduce_membrane()
        assert float(red.tau1(0.5, 0.3, 0.25)) == pytest.approx(-0.125, abs=1e-15)

    def test_free_term_profile(self):
        red = reduce_membrane()
        for x in (0.0, 0.4, 1.0):
            assert float(red.free_term(x, 0.0)) == 0.0
            assert float(red.free_term(x, 0.5)) == pytest.approx(0.125, abs=1e-15)

    def test_oracle_substitution_pins_signs(self):
        # the spectral-series psi satisfies the assembled equation; the sign
        # conventions of the tau blocks are pinned by this residual
        red = reduce_membrane()
        psi = _sample2d(lambda x, y: membrane_psi(x, y, n_terms=20))
        lhs = forward2d(red, psi)
        F = np.asarray(red.free_term(psi.x_grid.nodes[:, None], psi.y_grid.nodes[None, :]))
        resid = GridFunction2D(psi.x_grid, psi.y_grid, lhs.values - F)
        rel = resid.l2_norm() / GridFunction2D(psi.x_grid, psi.y_grid, F).l2_norm()
        assert rel < 1e-3


class TestHeatReduction:
    def test_zero_initial_data(self):
        red = reduce_heat(lambda x: 0.0 * np.asarray(x))
        assert np.max(np.abs(red.free_term(np.linspace(0, 1, 5)[:, None],
                                           np.linspace(0, 1, 4)[None, :]))) == 0.0

    def test_shares_membrane_x_kernel(self):
        redh = reduce_heat(lambda x: np.sin(np.pi * np.asarray(x)))
        redm = reduce_membrane()
        pts = np.linspace(0, 1, 9)
        for x in pts:
            for xi in pts:
                assert abs(float(redh.tau1(x, 0.3, xi)) - float(redm.tau1(x, 0.3, xi))) < 1e-12

    def test_single_mode_oracle(self):
        red = reduce_heat(lambda x: np.sin(np.pi * np.asarray(x)))
        psi = _sample2d(lambda x, t: -np.pi ** 2 * heat_mode(x, t))
        lhs = forward2d(red, psi)
        F = np.asarray(red.free_term(psi.x_grid.nodes[:, None], psi.y_grid.nodes[None, :]))
        resid = GridFunction2D(psi.x_grid, psi.y_grid, lhs.values - F)
        rel = resid.l2_norm() / GridFunction2D(psi.x_grid, psi.y_grid, F).l2_norm()
        assert rel < 1e-3

    def test_incompatible_initial_data_rejected(self):
        with pytest.raises(ConfigError):
            reduce_heat(lambda x: np.asarray(x) + 1.0)

    def test_nan_edge_rejected(self):
        # max(0.0, nan) is 0.0, so a magnitude check alone lets a NaN edge through
        with pytest.raises(NonFiniteValueError):
            reduce_heat(lambda x: np.nan * np.asarray(x))


class TestReconstructU:
    def test_zero_psi_x_route(self):
        red = reduce_membrane()
        psi = _sample2d(lambda x, y: 0.0 * x * y)
        u = reconstruct_u(red, psi, "x")
        assert np.max(np.abs(u.values)) == 0.0

    def test_x_route_vanishes_on_x_boundary_exactly(self):
        # structural: tau1(0, y, xi) = tau1(1, y, xi) = 0 for every xi, so the
        # route integral is exactly zero at the boundary regardless of psi
        red = reduce_membrane()
        xi = np.linspace(0, 1, 33)
        assert np.max(np.abs(red.tau1(0.0, 0.4, xi))) == 0.0
        assert np.max(np.abs(red.tau1(1.0, 0.4, xi))) == 0.0
        zq, wq = split_gauss(0.0, 0.3, 1.0, 32)
        psi_vals = np.exp(zq)
        for xb in (0.0, 1.0):
            assert float(np.sum(wq * red.tau1(xb, 0.4, zq) * psi_vals)) == 0.0

    def test_y_route_vanishes_on_y_boundary_exactly(self):
        red = reduce_membrane()
        eta = np.linspace(0, 1, 33)
        for yb in (0.0, 1.0):
            assert np.max(np.abs(red.tau2(0.4, yb, eta))) == 0.0
            assert float(red.free_term(0.4, yb)) == 0.0

    def test_routes_agree_on_oracle(self):
        red = reduce_membrane()
        psi = _sample2d(lambda x, y: membrane_psi(x, y, n_terms=24))
        u1 = reconstruct_u(red, psi, "x")
        u2 = reconstruct_u(red, psi, "y")
        assert np.max(np.abs(u1.values - u2.values)) < 1e-3
        exact = membrane_u(psi.x_grid.nodes[:, None], psi.y_grid.nodes[None, :], n_terms=40)
        assert np.max(np.abs(u1.values - exact)) < 1e-3

    def test_boundary_corrected_variants(self):
        red = reduce_membrane()
        psi = _sample2d(lambda x, y: membrane_psi(x, y, n_terms=16))
        U1 = reconstruct_u(red, psi, "x", boundary_corrected=True)
        U2 = reconstruct_u(red, psi, "y", boundary_corrected=True)
        assert np.all(np.isfinite(U1.values)) and np.all(np.isfinite(U2.values))
        delta = closure_delta(U1, U2)
        print(f"\n[membrane oracle] closure delta = {delta:.6e}")


class TestClosureDelta:
    def test_equal_fields(self):
        a = _sample2d(lambda x, y: 1.0 + x * y, nx=8, ny=8)
        assert closure_delta(a, a) == 0.0

    def test_triple_field(self):
        a = _sample2d(lambda x, y: 1.0 + x * y, nx=8, ny=8)
        b = GridFunction2D(a.x_grid, a.y_grid, 3.0 * a.values)
        assert closure_delta(a, b) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_scale_invariance(self, c):
        a = _sample2d(lambda x, y: np.sin(np.pi * x) * y, nx=8, ny=8)
        b = _sample2d(lambda x, y: np.cos(np.pi * x) + y, nx=8, ny=8)
        base = closure_delta(a, b)
        scaled = closure_delta(
            GridFunction2D(a.x_grid, a.y_grid, c * a.values),
            GridFunction2D(b.x_grid, b.y_grid, c * b.values))
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_undefined_for_zero_fields(self):
        z = _sample2d(lambda x, y: 0.0 * x * y, nx=8, ny=8)
        with pytest.raises(UndefinedDeltaError):
            closure_delta(z, z)


class TestMethod2D:
    def test_zero_free_term(self):
        red = Bvp2DReduction(
            name="zero",
            tau1=reduce_membrane().tau1,
            tau2=reduce_membrane().tau2,
            free_term=lambda x, y: 0.0 * np.asarray(x) * np.asarray(y))
        result = method2d_solve(red, PARAMS, nx=12, ny=12)
        assert np.max(np.abs(result.psi.values)) < 1e-12
        assert result.report.residual_l2 < 1e-12

    def test_lambda_zero_kernel_composition(self):
        # at lam = 0 the second-kind kernels collapse to N = tau1, M = tau2,
        # T = 0, so psi1 solves the plain system psi = mu (tau1+tau2) psi - mu f
        red = reduce_membrane()
        params0 = MethodParams.create(r=0.5, lam=0.0, mu=0.05, min_rel_dist=0.0)
        result = method2d_solve(red, params0, nx=10, ny=10)
        gx = result.psi.x_grid
        gy = result.psi.y_grid
        Rx = operator_matrix(lambda x, xi: red.tau1(x, gy.nodes[0], xi), gx,
                             diag_split=True, quad_order=32)
        Ry = operator_matrix(lambda y, eta: red.tau2(gx.nodes[0], y, eta), gy,
                             diag_split=True, quad_order=32)
        NN = gx.n * gy.n
        A = np.zeros((NN, NN))
        for j in range(gy.n):
            idx = np.arange(gx.n) * gy.n + j
            A[np.ix_(idx, idx)] += Rx
        for i in range(gx.n):
            idx = i * gy.n + np.arange(gy.n)
            A[np.ix_(idx, idx)] += Ry
        F = np.asarray(red.free_term(gx.nodes[:, None], gy.nodes[None, :]))
        mu = result.mu
        psi1_direct = np.linalg.solve(np.eye(NN) - mu * A, (-mu * F).reshape(-1))
        assert np.max(np.abs(psi1_direct.reshape(gx.n, gy.n) - result.psi1.values)) < 1e-10

    def test_membrane_run(self):
        red = reduce_membrane()
        result = method2d_solve(red, PARAMS, nx=24, ny=24)
        assert np.all(np.isfinite(result.psi.values))
        assert np.array_equal(result.psi.values,
                              result.psi0.values + result.psi1.values)
        oracle = membrane_psi(result.psi.x_grid.nodes[:, None],
                              result.psi.y_grid.nodes[None, :], n_terms=24)
        dev = GridFunction2D(result.psi.x_grid, result.psi.y_grid,
                             result.psi.values - oracle).l2_norm()
        print(f"\n[method2d membrane] residual={result.report.residual_l2:.6e} "
              f"relative={result.report.relative:.6e} oracle-dev={dev:.6e}")

    def test_unknown_cap(self):
        with pytest.raises(ConfigError):
            method2d_solve(reduce_membrane(), PARAMS, nx=80, ny=80)


class TestVerify2D:
    def test_oracle_is_solvable(self):
        red = reduce_membrane()
        psi = _sample2d(lambda x, y: membrane_psi(x, y, n_terms=20))
        report = verify2d(red, psi, threshold=0.05)
        assert report.solvable == "yes"

    def test_zero_candidate_is_not(self):
        red = reduce_membrane()
        psi = _sample2d(lambda x, y: 0.0 * x * y)
        report = verify2d(red, psi, threshold=0.05)
        assert report.solvable == "no"

    def test_nan_candidate_has_no_verdict(self):
        psi = _sample2d(lambda x, y: np.nan * x * y)
        with pytest.raises(NonFiniteValueError):
            verify2d(reduce_membrane(), psi)

    def test_structurally_obstructed_free_term(self):
        # f = 1 violates f(x, 0) = 0 forced by the tau2 block; the residual
        # floor is confirmed against both the zero and the oracle candidate
        base = reduce_membrane()
        red = Bvp2DReduction(name="membrane-f1", tau1=base.tau1, tau2=base.tau2,
                             free_term=lambda x, y: np.ones(np.broadcast(
                                 np.asarray(x), np.asarray(y)).shape))
        for cand in (lambda x, y: 0.0 * x * y,
                     lambda x, y: membrane_psi(x, y, n_terms=12)):
            report = verify2d(red, _sample2d(cand), threshold=0.05)
            assert report.solvable == "no"
