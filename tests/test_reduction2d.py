import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredsolve import fredholm2, kernels, reduction2d
from fredsolve.errors import (ConfigError, NonFiniteValueError, OnSpectrumError,
                             UndefinedDeltaError)
from fredsolve.fredholm2 import DEFAULT_MU_CANDIDATES
from fredsolve.grid import gauss_legendre, operator_matrix
from fredsolve.method_core import MethodParams, _Workspace
from fredsolve.reduction2d import (Bvp2DReduction, GridFunction2D,
                                   closure_delta, forward2d, method2d_solve,
                                   reconstruct_u, reduce_heat, reduce_membrane,
                                   reduce_ode_fredholm, reduce_ode_volterra,
                                   verify2d)

from oracles import (forward2d_loops, heat_mode, membrane_psi, membrane_u,
                     method2d_matrix_blocks, reconstruct_u_loops, split_gauss)

PARAMS = MethodParams.create(r=0.5, lam=0.2, mu=0.05)
# |mu| times the Kronecker bound exceeds 1/2: the dense A goes to the SVD gate
UNCERTIFIED = MethodParams.create(r=0.5, lam=0.2, mu=5.0)
EPS = np.finfo(float).eps


def _sample2d(fn, nx=24, ny=24):
    gx = gauss_legendre(nx, 0.0, 1.0)
    gy = gauss_legendre(ny, 0.0, 1.0)
    return GridFunction2D(gx, gy, np.asarray(fn(gx.nodes[:, None], gy.nodes[None, :]), dtype=float))


def _stacks(red, psi):
    """{'x': T1, 'y': T2}: the tau stacks on psi's grid, as method2d_solve assembles them."""
    gx, gy = psi.x_grid, psi.y_grid
    return {"x": reduction2d._tau_stack(red, "x", gx, gy.nodes),
            "y": reduction2d._tau_stack(red, "y", gy, gx.nodes)}


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
        lhs = forward2d(psi, *_stacks(red, psi).values())
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
        lhs = forward2d(psi, *_stacks(red, psi).values())
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
        u = reconstruct_u(red, psi, "x", _stacks(red, psi)["x"])
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
        stacks = _stacks(red, psi)
        u1 = reconstruct_u(red, psi, "x", stacks["x"])
        u2 = reconstruct_u(red, psi, "y", stacks["y"])
        assert np.max(np.abs(u1.values - u2.values)) < 1e-3
        exact = membrane_u(psi.x_grid.nodes[:, None], psi.y_grid.nodes[None, :], n_terms=40)
        assert np.max(np.abs(u1.values - exact)) < 1e-3

    @pytest.mark.parametrize("name", ["membrane", "heat", "varying"])
    @pytest.mark.parametrize("which", ["x", "y"])
    def test_the_solver_stack_gives_its_own_assembly_bit_for_bit(self, name, which):
        red = REDUCTIONS[name]()
        result = method2d_solve(red, PARAMS, nx=11, ny=7)
        stack = result.T1 if which == "x" else result.T2
        assert np.array_equal(stack, _stacks(red, result.psi)[which])
        got = reconstruct_u(red, result.psi, which, stack)
        want = reconstruct_u(red, result.psi, which, _stacks(red, result.psi)[which])
        assert np.array_equal(got.values, want.values)

    def test_a_stack_of_the_wrong_route_is_refused(self):
        red = reduce_membrane()
        result = method2d_solve(red, PARAMS, nx=11, ny=7)
        with pytest.raises(ConfigError):
            reconstruct_u(red, result.psi, "x", result.T2)
        with pytest.raises(ConfigError):
            forward2d(result.psi, result.T2, result.T1)

    @pytest.mark.parametrize("name", ["membrane", "varying"])
    def test_the_solver_stacks_are_read_only(self, name):
        # the solve's stacks feed its verification and both reconstructions
        result = method2d_solve(REDUCTIONS[name](), PARAMS, nx=11, ny=7)
        for stack in (result.T1, result.T2):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0.0


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

    def test_lambda_zero_kernel_composition(self, monkeypatch):
        # at lam = 0 the second-kind kernels collapse to N = tau1, M = tau2,
        # T = 0, so psi1 solves the plain system psi = mu (tau1+tau2) psi - mu f
        red = reduce_membrane()
        monkeypatch.setattr(kernels, "MIN_REL_DIST", 0.0)
        params0 = MethodParams.create(r=0.5, lam=0.0, mu=0.05)
        result = method2d_solve(red, params0, nx=10, ny=10)
        gx = result.psi.x_grid
        gy = result.psi.y_grid
        Rx = operator_matrix(lambda x, xi: red.tau1(x, gy.nodes[0], xi), gx, diag_split=True)
        Ry = operator_matrix(lambda y, eta: red.tau2(gx.nodes[0], y, eta), gy, diag_split=True)
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
        # the cap guards the dense matrix, which a varying tau stack needs
        with pytest.raises(ConfigError):
            method2d_solve(_varying_reduction(), PARAMS, nx=80, ny=80)

    def test_fast_path_runs_beyond_the_dense_cap(self):
        result = method2d_solve(reduce_membrane(), PARAMS, nx=80, ny=80)
        assert result.mu == PARAMS.mu and np.all(np.isfinite(result.psi.values))
        assert result.report.solvable in ("yes", "no")

    def test_fast_path_cap_on_its_largest_array(self):
        # the (nx, ny, ny) stack of theta_i I - mu M would hold 4097^2 floats,
        # more than the dense matrix the cap allows; refused before any assembly
        with pytest.raises(ConfigError):
            method2d_solve(reduce_membrane(), PARAMS, nx=1, ny=4097)


class TestVerify2D:
    def test_oracle_is_solvable(self):
        red = reduce_membrane()
        psi = _sample2d(lambda x, y: membrane_psi(x, y, n_terms=20))
        report = verify2d(red, psi, *_stacks(red, psi).values(), threshold=0.05)
        assert report.solvable == "yes"

    def test_zero_candidate_is_not(self):
        red = reduce_membrane()
        psi = _sample2d(lambda x, y: 0.0 * x * y)
        report = verify2d(red, psi, *_stacks(red, psi).values(), threshold=0.05)
        assert report.solvable == "no"

    def test_nan_candidate_has_no_verdict(self):
        psi = _sample2d(lambda x, y: np.nan * x * y)
        with pytest.raises(NonFiniteValueError):
            verify2d(reduce_membrane(), psi, *_stacks(reduce_membrane(), psi).values())

    def test_structurally_obstructed_free_term(self):
        # f = 1 violates f(x, 0) = 0 forced by the tau2 block; the residual
        # floor is confirmed against both the zero and the oracle candidate
        base = reduce_membrane()
        red = Bvp2DReduction(name="membrane-f1", tau1=base.tau1, tau2=base.tau2,
                             free_term=lambda x, y: np.ones(np.broadcast(
                                 np.asarray(x), np.asarray(y)).shape))
        for cand in (lambda x, y: 0.0 * x * y,
                     lambda x, y: membrane_psi(x, y, n_terms=12)):
            psi = _sample2d(cand)
            report = verify2d(red, psi, *_stacks(red, psi).values(), threshold=0.05)
            assert report.solvable == "no"


def _varying_reduction():
    # tau1 varies with y and tau2 with x, so both directions stack one matrix per point
    base = reduce_membrane()
    return Bvp2DReduction(
        name="varying",
        tau1=lambda x, y, xi: (1.0 + np.asarray(y, dtype=float)) * base.tau1(x, y, xi),
        tau2=lambda x, y, eta: (1.0 + np.asarray(x, dtype=float) ** 2) * base.tau2(x, y, eta),
        free_term=base.free_term)


def _two_point_blind_reduction():
    # tau1 varies with y but takes equal values at y = 0.21 and y = 0.84
    base = reduce_membrane()
    scale = lambda y: 1.0 + (np.asarray(y, dtype=float) - 0.21) * (np.asarray(y, dtype=float) - 0.84)
    return Bvp2DReduction(
        name="two_point_blind",
        tau1=lambda x, y, xi: scale(y) * base.tau1(x, y, xi),
        tau2=base.tau2,
        free_term=base.free_term)


REDUCTIONS = {
    "membrane": reduce_membrane,
    "heat": lambda: reduce_heat(lambda x: np.sin(np.pi * np.asarray(x))),
    "varying": _varying_reduction,
    "two_point_blind": _two_point_blind_reduction,
}


def _psi_rect():
    # nx != ny, so a swapped axis cannot pass
    return _sample2d(lambda x, y: np.sin(3.0 * x) * (1.0 + y * y) - x * y, nx=11, ny=7)


class TestTensorForm:
    @pytest.mark.parametrize("name, varies", [
        ("membrane", (False, False)), ("heat", (False, False)),
        ("varying", (True, True)), ("two_point_blind", (True, False))])
    def test_variation_is_read_from_the_broadcast_shape(self, name, varies):
        red, g, points = REDUCTIONS[name](), gauss_legendre(7, 0.0, 1.0), np.linspace(0.0, 1.0, 5)
        strides = [reduction2d._tau_stack(red, axis, g, points).strides[0] for axis in "xy"]
        assert [s != 0 for s in strides] == list(varies)

    def test_constant_direction_is_one_read_only_matrix(self):
        gx = gauss_legendre(9, 0.0, 1.0)
        T1 = reduction2d._tau_stack(reduce_membrane(), "x", gx, np.linspace(0.0, 1.0, 5))
        assert T1.shape == (5, 9, 9) and T1.strides[0] == 0 and not T1.flags.writeable
        T1 = reduction2d._tau_stack(_varying_reduction(), "x", gx, np.linspace(0.0, 1.0, 5))
        assert T1.shape == (5, 9, 9) and T1.strides[0] != 0
        assert not np.array_equal(T1[0], T1[4])

    @pytest.mark.parametrize("name", REDUCTIONS)
    def test_forward2d_matches_block_loops_bit_for_bit(self, name):
        red, psi = REDUCTIONS[name](), _psi_rect()
        got = forward2d(psi, *_stacks(red, psi).values()).values
        assert np.array_equal(got, forward2d_loops(red, psi))

    @pytest.mark.parametrize("name", REDUCTIONS)
    @pytest.mark.parametrize("which", ["x", "y"])
    def test_reconstruct_u_matches_block_loops_bit_for_bit(self, name, which):
        red, psi = REDUCTIONS[name](), _psi_rect()
        got = reconstruct_u(red, psi, which, _stacks(red, psi)[which]).values
        assert np.array_equal(got, reconstruct_u_loops(red, psi, which))

    @pytest.mark.parametrize("name", REDUCTIONS)
    def test_method2d_matrix_matches_block_loops_bit_for_bit(self, name, monkeypatch):
        # mu = 5 is beyond the certificate, so every reduction builds the
        # dense A for the SVD gate
        seen = []

        def spy(A, mu, **kwargs):
            seen.append(A.copy())
            return gate_mu(A, mu, **kwargs)

        gate_mu = reduction2d.gate_mu
        monkeypatch.setattr(reduction2d, "gate_mu", spy)
        red = REDUCTIONS[name]()
        method2d_solve(red, UNCERTIFIED, nx=9, ny=6)
        assert len(seen) == 1
        assert np.array_equal(seen[0], method2d_matrix_blocks(red, UNCERTIFIED, 9, 6))

    @pytest.mark.parametrize("name", ["membrane", "heat"])
    @pytest.mark.parametrize("nx, ny", [(8, 8), (9, 6)])
    def test_constant_stacks_give_the_kronecker_form(self, name, nx, ny):
        # the identity the fast path rests on: A vec X = vec P (T1 X + X M^T);
        # |A| <= |P| (|T1| (x) I + I (x) |M|) entrywise, so both sides sum at
        # most nx ny terms of the scale below
        red = REDUCTIONS[name]()
        A = method2d_matrix_blocks(red, PARAMS, nx, ny)
        T1, M, P = _kronecker_factors(red, PARAMS, nx, ny)
        X = np.random.default_rng(7).standard_normal((nx, ny))
        want = P @ (T1 @ X + X @ M.T)
        scale = np.abs(P) @ (np.abs(T1) @ np.abs(X) + np.abs(X) @ np.abs(M).T)
        got = (A @ X.reshape(-1)).reshape(nx, ny)
        assert np.all(np.abs(got - want) <= 4 * nx * ny * EPS * scale)


def _kronecker_factors(red, params, nx, ny):
    """T1 = tau1 at one y, M = tau2 at one x, and P = I + lam H_w, each from
    its own assembly (constant stacks do not depend on the point)."""
    gx, gy = gauss_legendre(nx, 0.0, 1.0), gauss_legendre(ny, 0.0, 1.0)
    T1 = operator_matrix(lambda x, xi: red.tau1(x, 0.37, xi), gx, diag_split=True)
    M = operator_matrix(lambda y, eta: red.tau2(0.37, y, eta), gy, diag_split=True)
    ws = _Workspace(params, n=nx)
    return T1, M, np.eye(nx) + params.poisson.lam * ws.H_w


def _kappa_v(nx):
    # kappa_2(V) <= sqrt(w_max / w_min) for V = W^-1/2 Q
    w = gauss_legendre(nx, 0.0, 1.0).weights
    return np.sqrt(w.max() / w.min())


class TestFastDiagonalization:
    """Constant tau stacks solve (I - mu A) X = B without the dense matrix.

    Rounding bound.  The dense route's LU solve and the fast route both
    solve the same system with a normwise backward error of order N eps
    (N = nx ny; Higham 2002, Thm 9.4, for LU with modest growth).  The fast
    route's comes from P^-1 (forward error nx eps kappa(P)), the similarity
    with V (a factor kappa(V)) and the batched ny-square solves, and P maps
    it back to I - mu A.  So each solution lies within
    4 N eps kappa(P) kappa(V) kappa(I - mu A) of the exact one, relatively,
    and the two within twice that.
    """

    SIZES = [(12, 12), (24, 24), (28, 28), (20, 12)]
    SETTINGS = {"l02_r05": (0.2, 0.5), "l07_r09": (0.7, 0.9)}

    @pytest.mark.parametrize("name", ["membrane", "heat"])
    @pytest.mark.parametrize("nx, ny", SIZES)
    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_matches_the_dense_route(self, monkeypatch, name, nx, ny, setting):
        lam, r = self.SETTINGS[setting]
        red, params = REDUCTIONS[name](), MethodParams.create(r=r, lam=lam)
        fast = method2d_solve(red, params, nx=nx, ny=ny)
        monkeypatch.setattr(reduction2d, "_fast_solver", lambda *args: None)
        dense = method2d_solve(red, params, nx=nx, ny=ny)
        assert fast.mu == dense.mu and fast.report.solvable == dense.report.solvable
        A = method2d_matrix_blocks(red, params, nx, ny)
        _, _, P = _kronecker_factors(red, params, nx, ny)
        tol = (8 * nx * ny * EPS * np.linalg.cond(P) * _kappa_v(nx)
               * np.linalg.cond(np.eye(nx * ny) - fast.mu * A))
        for got, want in ((fast.psi, dense.psi), (fast.psi1, dense.psi1)):
            assert np.linalg.norm(got.values - want.values) <= tol * np.linalg.norm(want.values)

    @pytest.mark.parametrize("name", ["membrane", "heat"])
    @pytest.mark.parametrize("nx, ny", [(64, 64), (128, 32)])
    def test_residual_in_tensor_form(self, name, nx, ny):
        # (I - mu A) X = X - mu P (T1 X + X M^T), never forming A; ||A||_2 is
        # at most ||P||_2 (||T1||_2 + ||M||_2).  The fast route works on nx-
        # and ny-square matrices, so its backward error is of order
        # (nx + ny) eps kappa(P) kappa(V) (see the class docstring).
        red = REDUCTIONS[name]()
        result = method2d_solve(red, PARAMS, nx=nx, ny=ny)
        mu, gx, gy = result.mu, result.psi.x_grid, result.psi.y_grid
        T1, M, P = _kronecker_factors(red, PARAMS, nx, ny)
        ws = _Workspace(PARAMS, n=nx)
        F = np.asarray(red.free_term(gx.nodes[:, None], gy.nodes[None, :]), dtype=float)
        B1 = ws.F1(mu, F)
        B0 = ws.F0(ws.kappa(ws.rho(result.psi1.values)))
        norm = lambda X: np.linalg.norm(X, 2)
        op_norm = 1.0 + abs(mu) * norm(P) * (norm(T1) + norm(M))
        tol = 8 * (nx + ny) * EPS * np.linalg.cond(P) * _kappa_v(nx) * op_norm
        for X, B in ((result.psi1.values, B1), (result.psi0.values, B0)):
            R = X - mu * P @ (T1 @ X + X @ M.T) - B
            assert np.linalg.norm(R) <= tol * np.linalg.norm(X)

    def test_asymmetric_tau1_takes_the_dense_route(self):
        # constant in y but not a symmetric kernel: C is not weight-symmetric
        base = reduce_membrane()
        red = Bvp2DReduction(
            name="asymmetric",
            tau1=lambda x, y, xi: base.tau1(x, y, xi) + 0.1 * np.asarray(x - xi, dtype=float),
            tau2=base.tau2, free_term=base.free_term)
        T1, M, P = _kronecker_factors(red, PARAMS, 9, 6)
        w = gauss_legendre(9, 0.0, 1.0).weights
        assert reduction2d._fast_solver(P, T1, M, PARAMS.mu, w) is None
        result = method2d_solve(red, PARAMS, nx=9, ny=6)
        gx, gy = result.psi.x_grid, result.psi.y_grid
        ws = _Workspace(PARAMS, n=9)
        F = np.asarray(red.free_term(gx.nodes[:, None], gy.nodes[None, :]), dtype=float)
        system = np.eye(54) - PARAMS.mu * method2d_matrix_blocks(red, PARAMS, 9, 6)
        psi1 = np.linalg.solve(system, ws.F1(PARAMS.mu, F).reshape(-1)).reshape(9, 6)
        assert np.array_equal(result.psi1.values, psi1)

    def test_symmetric_tau1_takes_the_fast_route(self):
        T1, M, P = _kronecker_factors(reduce_membrane(), PARAMS, 9, 6)
        w = gauss_legendre(9, 0.0, 1.0).weights
        assert reduction2d._fast_solver(P, T1, M, PARAMS.mu, w) is not None


class TestCertifiedGate:
    """Constant tau stacks certify I - mu A from a Kronecker bound on ||A||_2."""

    @staticmethod
    def _dense_svds(monkeypatch):
        svd, shapes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, *r, **k: shapes.append(np.shape(a)) or svd(a, *r, **k))
        return shapes

    @pytest.mark.parametrize("name", ["membrane", "heat"])
    @pytest.mark.parametrize("r", [0.5, 0.9])
    @pytest.mark.parametrize("lam", [0.2, 0.7])
    @pytest.mark.parametrize("nx, ny", [(8, 8), (9, 6), (24, 24)])
    def test_bound_covers_the_spectral_norm(self, monkeypatch, name, r, lam, nx, ny):
        bounds, certified_mu = [], reduction2d.certified_mu
        monkeypatch.setattr(reduction2d, "certified_mu", lambda mu, bound: (
            bounds.append(bound) or certified_mu(mu, bound)))
        red, params = REDUCTIONS[name](), MethodParams.create(r=r, lam=lam, mu=0.05)
        method2d_solve(red, params, nx=nx, ny=ny)
        (bound,) = bounds
        A = method2d_matrix_blocks(red, params, nx, ny)
        assert bound is not None and bound >= np.linalg.norm(A, 2)

    def test_given_mu_on_the_spectrum_is_still_rejected(self):
        red = reduce_membrane()
        evals = np.linalg.eigvals(method2d_matrix_blocks(red, PARAMS, 8, 8))
        mu_hit = float(1.0 / evals[np.argmax(np.abs(evals))].real)
        with pytest.raises(OnSpectrumError):
            method2d_solve(red, MethodParams.create(r=0.5, lam=0.2, mu=mu_hit), nx=8, ny=8)

    @pytest.mark.parametrize("red, params", [
        (_varying_reduction(), PARAMS),
        (REDUCTIONS["heat"](), MethodParams.create(r=0.9, lam=0.7, mu=0.05)),
    ], ids=["varying", "heat_l07_r09"])
    def test_dense_svd_runs_where_no_certificate_holds(self, monkeypatch, red, params):
        shapes = self._dense_svds(monkeypatch)
        method2d_solve(red, params, nx=12, ny=12)
        assert (144, 144) in shapes

    @pytest.mark.parametrize("name", ["membrane", "heat"])
    @pytest.mark.parametrize("stop", range(1, len(DEFAULT_MU_CANDIDATES) + 1))
    def test_certified_and_dense_gates_pick_the_same_mu(self, monkeypatch, name, stop):
        red, params = REDUCTIONS[name](), MethodParams.create(r=0.5, lam=0.2)
        monkeypatch.setattr(fredholm2, "DEFAULT_MU_CANDIDATES", DEFAULT_MU_CANDIDATES[:stop])
        certified = method2d_solve(red, params, nx=9, ny=6)
        mu_svd, _ = reduction2d.gate_mu(method2d_matrix_blocks(red, params, 9, 6), None)
        # the same request with the certificate switched off: the dense A
        # goes through the SVD gate, then the same fast solve
        seen, gate_mu = [], reduction2d.gate_mu

        def svd_gate(A, mu):
            seen.append(A.shape)
            return gate_mu(A, mu)

        monkeypatch.setattr(reduction2d, "certified_mu", lambda mu, bound: None)
        monkeypatch.setattr(reduction2d, "gate_mu", svd_gate)
        dense = method2d_solve(red, params, nx=9, ny=6)
        assert seen == [(54, 54)]
        assert certified.mu == dense.mu == mu_svd
        assert np.array_equal(certified.psi.values, dense.psi.values)
