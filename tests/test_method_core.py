import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredsolve import baselines, fredholm2, grid, kernels, method_core
from fredsolve.errors import (ConfigError, NonFiniteValueError, NoValidMuError, OnSpectrumError,
                              ParameterExclusionError)
from fredsolve.fredholm2 import DEFAULT_MU_CANDIDATES, gate_mu
from fredsolve.grid import GridFunction, gauss_legendre, interp_matrix, operator_matrix
from fredsolve.method_core import (MethodParams, _fourier_route, _verdict, _Workspace,
                                   method_v1, method_v2, method_v2_single, select_mu,
                                   verify_solution)
from fredsolve.problems import FirstKindProblem, make_manufactured
from fredsolve.reduction2d import method2d_solve, reduce_membrane

from oracles import build_K, tri_green

LAM, R, MU = 0.2, 0.5, 0.1
PARAMS = MethodParams.create(r=R, lam=LAM, mu=MU)
GRID = gauss_legendre(64, 0.0, 1.0)
GRIDM = gauss_legendre(64, -1.0, 0.0)


def m1_problem():
    return make_manufactured("green_triangular", lambda x: np.sin(np.pi * np.asarray(x)))


def lambda_zero_params(monkeypatch):
    # lambda = 0 is admitted only once the exclusion distance is 0
    monkeypatch.setattr(kernels, "MIN_REL_DIST", 0.0)
    return MethodParams.create(r=R, lam=0.0, mu=MU)


def zero_kernel_problem(f):
    return FirstKindProblem(name="zero", kernel=lambda x, xi: 0.0 * x * xi,
                            free_term=f)


class TestMethodParams:
    @pytest.mark.parametrize("bad", [{"mu": np.nan}, {"mu": np.inf}, {"lam": np.nan},
                                     {"lam": -np.inf}])
    def test_non_finite_mu_or_lambda_rejected(self, bad):
        with pytest.raises(NonFiniteValueError):
            MethodParams.create(**bad)


class TestSelectMu:
    def test_zero_kernel_accepts_anything(self, monkeypatch):
        prob = zero_kernel_problem(np.sin)
        monkeypatch.setattr(fredholm2, "DEFAULT_MU_CANDIDATES", (123.0,))
        assert select_mu(prob, PARAMS) == 123.0

    def test_triangular_accepts_small(self, monkeypatch):
        monkeypatch.setattr(fredholm2, "DEFAULT_MU_CANDIDATES", (0.1,))
        assert select_mu(m1_problem(), PARAMS) == 0.1

    def test_characteristic_number_rejected(self, monkeypatch):
        # construct the hit from the discrete spectrum of the composed matrix
        from fredsolve.method_core import _Workspace
        ws = _Workspace(PARAMS, m1_problem())
        evals = np.linalg.eigvals(ws.A_K)
        evals = evals[np.abs(evals) > 1e-8]
        mu_hit = float(1.0 / evals[np.argmax(np.abs(evals))].real)
        monkeypatch.setattr(fredholm2, "DEFAULT_MU_CANDIDATES", (mu_hit,))
        with pytest.raises(NoValidMuError):
            select_mu(m1_problem(), PARAMS)


class TestWorkspace:
    @pytest.mark.parametrize("n", [16, 20])
    def test_A_K_smooths_the_baselines_matrix_bit_for_bit(self, n):
        # one product rule per grid: the reformulation and the baselines start
        # from the same Nystrom matrix, assembled as lavrentiev does on the grid
        # of baselines._setup
        prob = m1_problem()
        ws = _Workspace(MethodParams.create(r=R, lam=LAM, mu=MU, n_out=n), prob)
        A = operator_matrix(prob.kernel, baselines._setup(prob, n)[0], diag_split=prob.diag_split)
        assert np.array_equal(ws.A_K, ws.smooth(A))

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_solve_takes_right_hand_sides_as_columns(self, n):
        # (I - mu A_K) Psi = B for B of shape (n, 2) solves its columns.  A
        # column and the single solve of that column are two computed
        # solutions of M psi = b, so they differ by at most ||M^-1||_2 times
        # the sum of their true residual norms; a residual computed in
        # floating point is within gamma_{n+1} (|M| |psi| + |b|) of the true
        # one, entry by entry.  The columns are not bit-equal to single
        # solves: blocked and unblocked kernels may order the sums differently.
        ws = _Workspace(MethodParams.create(r=R, lam=LAM, mu=MU, n_out=n), m1_problem())
        x = ws.grid01.nodes
        B = np.stack([np.sin(np.pi * x), x * x - 0.3], axis=1)
        ws.gate(MU)
        both = ws.solve(B)
        assert both.shape == (n, 2)
        u = np.finfo(float).eps / 2.0
        gamma = (n + 1) * u / (1.0 - (n + 1) * u)
        inv_norm = 1.0 / np.linalg.svd(ws.M, compute_uv=False)[-1]

        def residual_bound(psi, b):
            return (np.linalg.norm(ws.M @ psi - b)
                    + gamma * np.linalg.norm(np.abs(ws.M) @ np.abs(psi) + np.abs(b)))

        for col in range(2):
            b = B[:, col]
            single = ws.solve(b)
            bound = inv_norm * (residual_bound(both[:, col], b) + residual_bound(single, b))
            assert np.linalg.norm(both[:, col] - single) <= bound


class TestBuildK:
    def test_lambda_zero_reduces_to_kernel(self, monkeypatch):
        params0 = lambda_zero_params(monkeypatch)
        K = build_K(tri_green, params0)
        pts = np.linspace(0.05, 0.95, 7)
        for x in pts:
            for xi in pts:
                assert K(x, xi) == pytest.approx(float(tri_green(x, xi)), abs=1e-12)

    def test_r_to_one_limit(self):
        # at r = 0.999 the composed kernel approaches (1 - lam)/(1 - 2 lam) k
        params = MethodParams.create(r=0.999, lam=LAM, mu=MU)
        K = build_K(tri_green, params)
        pts = np.linspace(0.1, 0.9, 5)
        scale = (1 - LAM) / (1 - 2 * LAM)
        ref = np.max(np.abs(scale * tri_green(pts[:, None], pts[None, :])))
        for x in pts:
            for xi in pts:
                target = scale * float(tri_green(x, xi))
                assert abs(K(x, xi) - target) <= 0.02 * ref

    def test_quad_order_self_consistency(self):
        v64 = build_K(tri_green, MethodParams.create(r=R, lam=LAM, mu=MU, n_out=64))(0.3, 0.6)
        v128 = build_K(tri_green, MethodParams.create(r=R, lam=LAM, mu=MU, n_out=128))(0.3, 0.6)
        assert abs(v64 - v128) < 1e-8


class TestStageF1:
    def test_lambda_zero(self, monkeypatch):
        params0 = lambda_zero_params(monkeypatch)
        F1 = _Workspace(params0).F1(MU, np.sin(GRID.nodes))
        assert np.max(np.abs(F1 + MU * np.sin(GRID.nodes))) < 1e-14

    def test_first_cosine_eigencomponent(self):
        F1 = _Workspace(PARAMS).F1(MU, np.cos(2 * np.pi * GRID.nodes))
        factor = -MU * (1 - LAM * R) / (1 - 2 * LAM * R)
        assert np.max(np.abs(F1 - factor * np.cos(2 * np.pi * GRID.nodes))) < 1e-10
        assert factor == pytest.approx(-MU * 0.9 / 0.8, abs=1e-15)

    def test_constant_eigencomponent(self):
        F1 = _Workspace(PARAMS).F1(MU, np.ones(GRID.n))
        assert np.max(np.abs(F1 + MU * (1 - LAM) / (1 - 2 * LAM))) < 1e-10


def psi1_of(problem, params):
    """psi1 from the workspace stages that method_v2 runs."""
    ws = _Workspace(params, problem)
    ws.gate(params.mu)
    return ws.solve(ws.F1(params.mu, ws.f_values()))


class TestStagePsi1:
    def test_zero_free_term(self):
        psi1 = psi1_of(zero_kernel_problem(lambda x: 0.0 * x), PARAMS)
        assert np.max(np.abs(psi1)) == 0.0

    def test_zero_kernel_gives_F1(self, monkeypatch):
        prob = zero_kernel_problem(np.sin)
        psi1 = psi1_of(prob, PARAMS)
        F1 = _Workspace(PARAMS).F1(MU, np.sin(GRID.nodes))
        assert np.max(np.abs(psi1 - F1)) < 1e-14
        # lambda = 0 composes to psi1 = -mu f
        params0 = lambda_zero_params(monkeypatch)
        psi0 = psi1_of(prob, params0)
        assert np.max(np.abs(psi0 + MU * np.sin(GRID.nodes))) < 1e-14

    def test_grid_refinement_consistency(self):
        p64 = MethodParams.create(r=R, lam=LAM, mu=MU, n_out=64)
        p128 = MethodParams.create(r=R, lam=LAM, mu=MU, n_out=128)
        a = psi1_of(m1_problem(), p64)
        b = psi1_of(m1_problem(), p128)
        resampled = interp_matrix(gauss_legendre(128, 0.0, 1.0).nodes, GRID.nodes) @ b
        assert np.max(np.abs(a - resampled)) < 1e-6


class TestRhoKappaF0:
    WS = _Workspace(PARAMS)

    def test_rho_zero(self):
        rho = self.WS.rho(np.zeros(GRID.n))
        assert np.max(np.abs(rho)) == 0.0

    def test_rho_cosine(self):
        rho = self.WS.rho(np.cos(2 * np.pi * GRID.nodes))
        expected = -LAM * R * np.cos(2 * np.pi * GRIDM.nodes)
        assert np.max(np.abs(rho - expected)) < 1e-10

    def test_rho_constant(self):
        rho = self.WS.rho(np.ones(GRID.n))
        assert np.max(np.abs(rho + LAM)) < 1e-10

    def test_kappa_zero(self):
        kap = self.WS.kappa(np.zeros(64))
        assert np.max(np.abs(kap)) == 0.0

    def test_kappa_constant(self):
        kap = self.WS.kappa(np.ones(64))
        expected = (1 - 2 * LAM) / (1 - 2 * LAM - LAM ** 2)
        assert expected == pytest.approx(0.6 / 0.56, abs=1e-15)
        assert np.max(np.abs(kap - expected)) < 1e-10

    def test_kappa_cosine(self):
        kap = self.WS.kappa(np.cos(2 * np.pi * GRIDM.nodes))
        factor = (1 - 2 * LAM * R) / (1 - 2 * LAM * R - LAM ** 2 * R ** 2)
        assert np.max(np.abs(kap - factor * np.cos(2 * np.pi * GRIDM.nodes))) < 1e-10

    def test_F0_zero(self):
        F0 = self.WS.F0(np.zeros(64))
        assert np.max(np.abs(F0)) == 0.0

    def test_F0_constant(self):
        F0 = self.WS.F0(np.ones(64))
        assert np.max(np.abs(F0 - LAM / (1 - 2 * LAM))) < 1e-10

    def test_F0_cosine(self):
        F0 = self.WS.F0(np.cos(2 * np.pi * GRIDM.nodes))
        factor = LAM * R / (1 - 2 * LAM * R)
        assert np.max(np.abs(F0 - factor * np.cos(2 * np.pi * GRID.nodes))) < 1e-10

    def test_stage_linearity(self):
        f1 = np.sin(2 * np.pi * GRID.nodes) + 0.3
        f2 = np.cos(4 * np.pi * GRID.nodes) * GRID.nodes
        a, b, c = (self.WS.rho(v) for v in (f1, f2, 2.0 * f1 - 0.7 * f2))
        assert np.max(np.abs(c - 2.0 * a + 0.7 * b)) < 1e-10
        g1 = np.sin(2 * np.pi * GRIDM.nodes) + 0.3
        g2 = np.cos(4 * np.pi * GRIDM.nodes) * GRIDM.nodes
        for stage in (self.WS.kappa, self.WS.F0):
            a, b, c = stage(g1), stage(g2), stage(2.0 * g1 - 0.7 * g2)
            assert np.max(np.abs(c - 2.0 * a + 0.7 * b)) < 1e-10

    def test_cosine_propagation_chain(self):
        # rho -> kappa -> F0 multiplies cos(2 n pi x) by
        # -lam r^n * (1-2 lam r^n)/(1-2 lam r^n - Lam r^2n) * lam r^n/(1-2 lam r^n)
        for n in (1, 2, 3):
            out = self.WS.F0(self.WS.kappa(self.WS.rho(np.cos(2 * n * np.pi * GRID.nodes))))
            rn = R ** n
            factor = (-LAM * rn) * ((1 - 2 * LAM * rn) / (1 - 2 * LAM * rn - LAM ** 2 * rn ** 2)) \
                * (LAM * rn / (1 - 2 * LAM * rn))
            assert np.max(np.abs(out - factor * np.cos(2 * n * np.pi * GRID.nodes))) < 1e-9


class TestMethodV2:
    def test_zero_free_term(self):
        state = method_v2(zero_kernel_problem(lambda x: 0.0 * x), PARAMS)
        assert np.max(np.abs(state.psi.values)) == 0.0
        assert state.residual_l2 == 0.0

    def test_zero_kernel_stage_composition(self, monkeypatch):
        params0 = lambda_zero_params(monkeypatch)
        state = method_v2(zero_kernel_problem(np.sin), params0)
        assert np.max(np.abs(state.psi1.values + MU * np.sin(GRID.nodes))) < 1e-14
        for part in (state.rho, state.kappa, state.F0, state.psi0):
            assert np.max(np.abs(part.values)) < 1e-14
        assert np.max(np.abs(state.psi.values + MU * np.sin(GRID.nodes))) < 1e-14

    def test_m1_end_to_end(self):
        state = method_v2(m1_problem(), PARAMS)
        assert np.array_equal(state.psi.values, state.psi0.values + state.psi1.values)
        for part in (state.psi1, state.rho, state.kappa, state.F0, state.F1,
                     state.psi0, state.psi):
            assert np.all(np.isfinite(part.values))
        # reconstruction quality is an empirical property of the source method:
        # recorded as benchmark output, never asserted
        recon = state.psi.grid.l2_norm(state.psi.values - np.sin(np.pi * state.psi.grid.nodes))
        print(f"\n[method_v2 m=1] residual_l2={state.residual_l2:.6e} "
              f"relative={state.relative_residual:.6e} "
              f"reconstruction_error={recon:.6e}")

    def test_excluded_lambda_raises(self):
        for lam in (0.5, -1.0 + np.sqrt(2.0)):
            with pytest.raises(ParameterExclusionError):
                method_v2(m1_problem(), MethodParams.create(r=R, lam=lam, mu=MU))

    @pytest.mark.parametrize("n", [64, 128])
    def test_state_holds_the_workspace_stages(self, n):
        # the stage tests above check the path that method_v2 runs, bit for bit
        prob = m1_problem()
        params = MethodParams.create(r=R, lam=LAM, mu=MU, n_out=n)
        state = method_v2(prob, params)
        ws = _Workspace(params, prob)
        pairs = ((state.F1, ws.F1(MU, ws.f_values())),
                 (state.psi1, psi1_of(prob, params)),
                 (state.rho, ws.rho(state.psi1.values)),
                 (state.kappa, ws.kappa(state.rho.values)),
                 (state.F0, ws.F0(state.kappa.values)))
        for stage, direct in pairs:
            assert np.array_equal(stage.values, direct)

    @pytest.mark.parametrize("n", [64, 128])
    def test_stored_residual_matches_recompute(self, n):
        # one verifier grid: the stored figures are those of the CLI's verification
        prob = m1_problem()
        state = method_v2(prob, replace(PARAMS, n_out=n))
        report = verify_solution(prob, state.psi)
        assert state.residual_l2 == report.residual_l2
        assert state.relative_residual == report.relative


class TestNoSolverReadsPsiStar:
    """psi* is the manufacturing input of a problem; no solver may read it."""

    @staticmethod
    def guarded_problem():
        def psi_star(x):
            raise AssertionError("a solver read psi*")
        return replace(m1_problem(), psi_star=psi_star)

    RUNS = {
        "v2": lambda p: method_v2(p, PARAMS).psi,
        "v2_single": lambda p: method_v2_single(p, PARAMS)[0],
        "v1": lambda p: method_v1(p, PARAMS),
        "lavrentiev": lambda p: baselines.lavrentiev(p, 1e-4),
        "tikhonov": lambda p: baselines.tikhonov_weighted(p, 1e-4),
        "fridman": lambda p: baselines.fridman_iterate(p, None, np.zeros(GRID.n)),
        "krasnoselskii": lambda p: baselines.krasnoselskii_iterate(p, 1.0, np.zeros(GRID.n)),
        "implicit": lambda p: baselines.implicit_iterate(p, 1e-4, np.zeros(GRID.n)),
        "steepest": lambda p: baselines.steepest_descent(p, np.zeros(GRID.n)),
        "quasisolution": lambda p: baselines.quasisolution(p, 1.0),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_solver_returns_without_psi_star(self, run):
        psi = self.RUNS[run](self.guarded_problem())
        assert np.all(np.isfinite(psi.values))


class TestOneGatePerMatrix:
    """Each I - mu A is checked by one values-only SVD; its solves reuse it.

    A kernel that is a value keeps the gate's verdict in grid's matrix store,
    so in 1D an operator is gated once for the store's lifetime."""

    @pytest.fixture
    def store(self, monkeypatch):
        cache = grid._ForwardCache(grid._FORWARD_CACHE_BYTES)
        monkeypatch.setattr(grid, "_forward_cache", cache)
        return cache

    @pytest.fixture
    def svd_calls(self, monkeypatch, store):
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        return calls

    @staticmethod
    def workspace_keys(store):
        return {k for k in store._entries if k[0] in ("poisson", "gate")}

    RUNS = {
        "v2_probed": lambda: method_v2(m1_problem(), replace(PARAMS, mu=None)),
        "v2_given": lambda: method_v2(m1_problem(), PARAMS),
        "v2_single_probed": lambda: method_v2_single(m1_problem(), replace(PARAMS, mu=None)),
        "select_mu": lambda: select_mu(m1_problem(), PARAMS),
        "method2d_probed": lambda: method2d_solve(reduce_membrane(), replace(PARAMS, mu=None),
                                                  nx=8, ny=8),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_one_svd_per_request(self, svd_calls, run):
        # one SVD on an empty store; the identical warm call reuses the 1D
        # verdict, while the 2D route's closures are gated on every call.  The
        # 2D route is certified from its three Kronecker factors, one SVD each
        per_request = 3 if run == "method2d_probed" else 1
        self.RUNS[run]()
        assert len(svd_calls) == per_request
        self.RUNS[run]()
        assert len(svd_calls) == (2 * per_request if run == "method2d_probed" else 1)
        if run == "method2d_probed":
            # no SVD of the 64-square matrix
            assert all(np.shape(a[0]) == (8, 8) for a in svd_calls)

    def test_a_warm_probe_reads_the_candidates_of_its_call(self, monkeypatch, store):
        probed = replace(PARAMS, mu=None)
        first = method_v2(m1_problem(), probed).mu
        assert first == DEFAULT_MU_CANDIDATES[0]
        monkeypatch.setattr(fredholm2, "DEFAULT_MU_CANDIDATES", (0.2,))
        assert method_v2(m1_problem(), probed).mu == 0.2
        assert select_mu(m1_problem(), PARAMS) == 0.2

    def test_given_mu_on_the_spectrum_is_still_rejected(self, store):
        ws = _Workspace(PARAMS, m1_problem())
        evals = np.linalg.eigvals(ws.A_K)
        mu_hit = float(1.0 / evals[np.argmax(np.abs(evals))].real)
        # a warm store holds the blocks and the verdicts of other mu; a refused
        # mu leaves no verdict behind, so a second request is refused too
        method_v2(m1_problem(), PARAMS)
        method_v2(m1_problem(), replace(PARAMS, mu=None))
        verdicts = {k for k in store._entries if k[0] == "gate"}
        for _ in range(2):
            with pytest.raises(OnSpectrumError):
                method_v2(m1_problem(), replace(PARAMS, mu=mu_hit))
            assert {k for k in store._entries if k[0] == "gate"} == verdicts

    @pytest.mark.parametrize("mu", [MU, None], ids=["given", "probed"])
    def test_a_warm_M_is_the_gated_matrix(self, svd_calls, mu):
        # the system a warm request solves has the bits of the one the cold
        # gate's SVD checked
        cold = _Workspace(PARAMS, m1_problem())
        assert cold.gate(mu) == (MU if mu is not None else DEFAULT_MU_CANDIDATES[0])
        warm = _Workspace(PARAMS, m1_problem())
        assert warm.gate(mu) == cold.mu
        assert len(svd_calls) == 1
        gated = gate_mu(cold.A_K, mu)[1]
        assert np.array_equal(warm.M.view(np.uint64), gated.view(np.uint64))

    @pytest.mark.parametrize("change", [{"r": 0.9}, {"lam": 0.3}, {"n_out": 32}],
                             ids=["r", "lambda", "n"])
    def test_distinct_operators_never_share_an_entry(self, monkeypatch, store, change):
        base = MethodParams.create(r=R, lam=LAM, mu=MU)
        other = MethodParams.create(**{"r": R, "lam": LAM, "mu": MU, **change})
        kept = method_v2(m1_problem(), base).psi.values
        before = self.workspace_keys(store)
        shared = method_v2(m1_problem(), other).psi.values
        added = self.workspace_keys(store) - before
        # one verdict and the four blocks of the two-solve route, all new
        assert len(added) == 5 and len(self.workspace_keys(store)) == 10
        monkeypatch.setattr(grid, "_forward_cache", grid._ForwardCache(grid._FORWARD_CACHE_BYTES))
        assert np.array_equal(shared, method_v2(m1_problem(), other).psi.values)
        assert np.array_equal(kept, method_v2(m1_problem(), base).psi.values)

    def test_a_closure_kernel_or_a_reduce_request_keeps_no_workspace(self, store):
        closure = FirstKindProblem(name="closure", kernel=lambda x, xi: tri_green(x, xi),
                                   free_term=np.sin, diag_split=True)
        method_v2(closure, PARAMS)
        method_v2_single(closure, replace(PARAMS, mu=None))
        select_mu(closure, PARAMS)
        method2d_solve(reduce_membrane(), replace(PARAMS, mu=None), nx=8, ny=8)
        assert not store._entries


N_LIN = 32
PARAMS_LIN = MethodParams.create(r=0.9, lam=LAM, mu=MU, n_out=N_LIN)
LIN_BASIS = (lambda x: np.sin(np.pi * x), lambda x: x * x - 0.3, np.exp)


def lin_problem(f):
    return FirstKindProblem(name="lin", kernel=tri_green, free_term=f, diag_split=True)


@functools.lru_cache(maxsize=1)
def lin_operator():
    """psi = T f at fixed mu, T read off column by column from the stages,
    with the condition number of I - mu A_K."""
    ws = _Workspace(PARAMS_LIN, lin_problem(np.sin))
    ws.gate(MU)

    def column(e):
        psi1 = ws.solve(ws.F1(MU, e))
        return ws.solve(ws.F0(ws.kappa(ws.rho(psi1)))) + psi1

    T = np.stack([column(e) for e in np.eye(N_LIN)], axis=1)
    return T, np.linalg.cond(np.eye(N_LIN) - MU * ws.A_K)


@settings(max_examples=15, deadline=None)
@given(a=st.floats(-3, 3, allow_nan=False), b=st.floats(-3, 3, allow_nan=False),
       i=st.integers(0, 2), j=st.integers(0, 2))
def test_method_v2_is_linear_in_f(a, b, i, j):
    f, g = LIN_BASIS[i], LIN_BASIS[j]
    fg = lambda x: a * f(x) + b * g(x)
    psi = [method_v2(lin_problem(h), PARAMS_LIN).psi.values for h in (f, g, fg)]
    defect = np.linalg.norm(psi[2] - a * psi[0] - b * psi[1])
    # Each run returns T v + e(v) for its free-term values v.  Two
    # backward-stable solves with I - mu A_K and a chain of n-term matrix
    # products give ||e(v)|| <= gamma_{4n} kappa(I - mu A_K) ||T|| ||v||
    # (gamma_k = k u / (1 - k u), u = eps / 2); the defect sums three such
    # errors.
    T, kappa = lin_operator()
    x = gauss_legendre(N_LIN, 0.0, 1.0).nodes
    k = 4 * N_LIN * np.finfo(float).eps / 2.0
    scale = sum(np.linalg.norm(v) for v in (a * f(x), b * g(x), fg(x)))
    assert defect <= k / (1.0 - k) * kappa * np.linalg.norm(T, 2) * scale


class TestMethodV2Single:
    def test_zero_psi1(self):
        out = GridFunction(GRID, _Workspace(PARAMS).single(np.zeros(GRID.n)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_constant_psi1(self):
        # constant eigencomponents: f' = -Lambda/(1-2 lam), psi = -Lambda/(1-2 lam-Lambda)
        out = GridFunction(GRID, _Workspace(PARAMS).single(np.ones(GRID.n)))
        expected = -LAM ** 2 / (1 - 2 * LAM - LAM ** 2)
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_picks_and_reports_mu(self):
        params = MethodParams.create(r=R, lam=LAM)
        out, mu = method_v2_single(m1_problem(), params)
        assert mu == select_mu(m1_problem(), params)
        given, _ = method_v2_single(m1_problem(), MethodParams.create(r=R, lam=LAM, mu=mu))
        assert np.array_equal(out.values, given.values)

    @pytest.mark.parametrize("n, bound", [(64, 1e-12), (128, 1e-13)])
    @pytest.mark.parametrize("kernel", ["green_triangular", "poisson_r"])
    def test_single_is_the_grid_routes_F0(self, kernel, n, bound):
        # the first step of the psi0 stage check: v2_single's direct form on
        # [0, 1] and v2's chain rho -> kappa -> F0 through [-1, 0) are one F0
        # (measured, green_triangular / poisson_r: 4.5e-13 / 3.8e-13 at n = 64,
        # 3.8e-15 / 4.5e-15 at n = 128)
        prob = make_manufactured(kernel, lambda x: np.sin(np.pi * np.asarray(x)), r=R)
        params = MethodParams.create(r=R, lam=LAM, mu=0.05, n_out=n)
        F0 = method_v2(prob, params).F0.values
        single, _ = method_v2_single(prob, params)
        assert np.linalg.norm(single.values - F0) <= bound * np.linalg.norm(F0)

    def test_cross_route_consistency(self):
        # single-integration route vs the two-solve route's (psi0+psi1) - psi1
        params = MethodParams.create(r=R, lam=LAM, mu=0.02)
        state = method_v2(m1_problem(), params)
        single, _ = method_v2_single(m1_problem(), params)
        against_psi0 = np.max(np.abs(single.values - state.psi0.values))
        assert against_psi0 < 1e-6
        print(f"\n[cross-route] |single - psi0|_max={against_psi0:.3e} "
              f"|single - psi|_L2={state.psi.grid.l2_norm(single.values - state.psi.values):.3e}")


class TestMethodV1:
    def test_zero_free_term(self):
        prob = zero_kernel_problem(lambda x: 0.0 * x)
        s, _ = _fourier_route(prob, PARAMS, 6)
        assert np.max(np.abs(s)) == 0.0
        assert np.max(np.abs(method_v1(prob, PARAMS, n_fourier=6).values)) == 0.0

    def test_zero_kernel_closed_form_row(self):
        s, t = _fourier_route(zero_kernel_problem(lambda x: np.ones_like(x)), PARAMS, 4)
        c0 = 2.0
        assert s[0] == pytest.approx(-MU * (1 - LAM) * c0 / (1 - 2 * LAM), abs=1e-12)
        sigma = -MU * LAM ** 2 * (1 - LAM) / ((1 - 2 * LAM) * (1 - 2 * LAM - LAM ** 2))
        assert t[0] == pytest.approx(sigma * (-c0), abs=1e-12)

    def test_m1_run(self):
        N = 16
        _, t = _fourier_route(m1_problem(), PARAMS, N)
        assert np.all(np.isfinite(t))
        # t = [t0 | cos 1..N | sin 1..N]
        assert np.max(np.abs(t[9:N + 1])) < np.max(np.abs(t[1:5]))
        psi = method_v1(m1_problem(), PARAMS, n_fourier=N)
        assert np.array_equal(psi.grid.nodes, gauss_legendre(PARAMS.n_out, 0.0, 1.0).nodes)
        phase = 2 * np.pi * np.multiply.outer(psi.grid.nodes, np.arange(1, N + 1))
        series = 0.5 * t[0] + np.cos(phase) @ t[1:N + 1] + np.sin(phase) @ t[N + 1:]
        assert np.allclose(psi.values, series, rtol=0.0, atol=1e-14)
        recon = psi.grid.l2_norm(psi.values - np.sin(np.pi * psi.grid.nodes))
        print(f"\n[method_v1 m=1] reconstruction_error={recon:.6e}")

    @pytest.mark.parametrize("n_fourier", [0, -3])
    def test_fourier_order_refused_before_any_assembly(self, monkeypatch, n_fourier):
        # with mu unset, a valid order would probe mu on an assembled A first
        calls = []
        for module in (method_core, grid):
            monkeypatch.setattr(module, "operator_matrix",
                                lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigError, match="n_fourier"):
            method_v1(m1_problem(), MethodParams.create(r=R, lam=LAM), n_fourier=n_fourier)
        assert calls == []

    def test_r1_exclusions(self):
        for lam in (0.5, 1.0, -1.0 + np.sqrt(2.0)):
            with pytest.raises(ParameterExclusionError):
                method_v1(m1_problem(), MethodParams.create(r=R, lam=lam, mu=MU))


class TestVerifySolution:
    @pytest.mark.parametrize("kernel_name,psi_star", [
        ("green_triangular", lambda x: np.sin(np.pi * x)),
        ("green_triangular", lambda x: x * (1.0 - x)),
        ("constant", lambda x: np.cos(2 * np.pi * x) + 0.5),
    ])
    def test_manufactured_truth(self, kernel_name, psi_star):
        prob = make_manufactured(kernel_name, psi_star)
        psi = GridFunction(GRID, psi_star(GRID.nodes))
        report = verify_solution(prob, psi)
        assert report.residual_l2 < 1e-8
        assert report.solvable == "yes"

    def test_constant_free_term_obstruction(self):
        prob = FirstKindProblem(name="tri-f1", kernel=tri_green,
                                free_term=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                diag_split=True)
        state = method_v2(prob, PARAMS)
        report = verify_solution(prob, state.psi, threshold=0.05)
        assert report.solvable == "no"

    @settings(max_examples=200, deadline=None)
    @given(residuals=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=8),
           fnorm=st.floats(min_value=1e-6, max_value=1e6),
           threshold=st.floats(min_value=1e-6, max_value=10.0))
    def test_verdict_monotone_in_residual(self, residuals, fnorm, threshold):
        # for fixed ||f|| > 0 and threshold, a larger residual never gives a
        # more favourable verdict: yes -> unknown -> no
        rank = {"yes": 0, "unknown": 1, "no": 2}
        verdicts = [rank[_verdict(r, fnorm, threshold).solvable] for r in sorted(residuals)]
        assert verdicts == sorted(verdicts)

    def test_nan_candidate_has_no_verdict(self):
        with pytest.raises(NonFiniteValueError):
            verify_solution(m1_problem(), GridFunction(GRID, np.full(GRID.n, np.nan)))

    def test_zero_candidate(self):
        prob = m1_problem()
        psi = GridFunction(GRID, np.zeros(GRID.n))
        report = verify_solution(prob, psi)
        g = gauss_legendre(96, 0.0, 1.0)
        fnorm = g.l2_norm(np.asarray(prob.free_term(g.nodes)))
        assert report.residual_l2 == pytest.approx(fnorm, rel=1e-12)
        assert report.solvable == "no"


def tri_problem(f):
    return FirstKindProblem(name="tri", kernel=tri_green, free_term=f, diag_split=True)


class TestResidualNearOne:
    """Why the grid route scores a relative residual of about 1.

    At fixed mu the route is a linear map T_mu: f -> psi.  The verifier
    evaluates A psi on its own 96-point grid through its forward matrix B, so
    its residual is B T_mu f - f there.  By the triangle inequality, with
    ||.||_n the grid norm on n Gauss points,

        ||B T_mu f - f||_96 / ||f||_96 >= 1 - ||W96^1/2 B T_mu W64^-1/2||_2 ||f||_64 / ||f||_96

    for every free term.  The norm is 0.006 to 0.066 over the five default mu
    on green_triangular at n = 64, so no f can score much below 1.  The
    rounding term 96 n eps covers the 64-term products behind each of the 96
    residual entries, the norms, and psi against T_mu f (about 1e-15 apart).
    """

    FREE_TERMS = {"sin": lambda x: np.sin(np.pi * np.asarray(x)) / np.pi ** 2,
                  "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
                  "x": lambda x: np.asarray(x, dtype=float),
                  "cos3": lambda x: np.cos(3.0 * np.asarray(x))}

    @pytest.mark.parametrize("mu", DEFAULT_MU_CANDIDATES)
    def test_relative_residual_obeys_the_transfer_bound(self, mu):
        n = 64
        params = MethodParams.create(r=R, lam=LAM, mu=mu, n_out=n)
        ws = _Workspace(params, tri_problem(self.FREE_TERMS["one"]))
        # T_mu from the production stages, one column per unit free term
        ws.gate(mu)
        psi1 = ws.solve(ws.F1(mu, np.eye(n)))
        T = ws.solve(ws.F0(ws.kappa(ws.rho(psi1)))) + psi1
        g64, g96 = ws.grid01, gauss_legendre(96, 0.0, 1.0)
        B = grid._forward_matrix(tri_green, g96.nodes, True, g64.nodes, 96)
        gain = np.linalg.norm(np.sqrt(g96.weights)[:, None] * (B @ T)
                              / np.sqrt(g64.weights)[None, :], 2)
        print(f"\n[mu={mu}] ||W^1/2 B T_mu W^-1/2||_2 = {gain:.4f}")
        slack = 96 * n * np.finfo(float).eps
        for name, f in self.FREE_TERMS.items():
            prob = tri_problem(f)
            report = verify_solution(prob, method_v2(prob, params).psi)
            ratio = g64.l2_norm(f(g64.nodes)) / g96.l2_norm(f(g96.nodes))
            assert report.relative >= 1.0 - gain * ratio - slack, name


class TestLavrentievIdentity:
    """The grid route's psi1 is Lavrentiev's method with alpha = -1/mu.

    psi1 solves (I - mu A_K) psi1 = F1 = -mu (I + lam H) f with
    A_K = (I + lam H) A, so psi1 = (A_K - I/mu)^-1 (I + lam H) f: the
    Lavrentiev solve of the smoothed equation (I + lam H) A psi = (I + lam H) f
    (Lavrentiev 1967; Engl, Hanke & Neubauer 1996, ch. 5).  Production and the
    dense solve here are two backward-stable solves of systems that agree to
    O(n eps) relative, so they differ by at most C kappa_2(I - mu A_K) n eps
    relative.  C = 1; the measured ratio to kappa n eps is at most 0.036.
    """

    @pytest.mark.parametrize("mu", [0.05, -1.0, -1e2, -1e4, -1e6])
    @pytest.mark.parametrize("kernel", ["green_triangular", "poisson_r"])
    def test_psi1_is_the_smoothed_lavrentiev_solve(self, kernel, mu):
        n, C = 64, 1.0
        prob = make_manufactured(kernel, lambda x: np.sin(np.pi * np.asarray(x)), r=R)
        params = MethodParams.create(r=R, lam=LAM, mu=mu, n_out=n)
        psi1 = method_v2(prob, params).psi1.values
        g = gauss_legendre(n, 0.0, 1.0)
        A = operator_matrix(prob.kernel, g, diag_split=prob.diag_split)
        H_w = kernels.kernel_matrix("H", params.poisson, g.nodes, g.nodes) * g.weights[None, :]
        f = np.asarray(prob.free_term(g.nodes), dtype=float)
        A_K = A + LAM * (H_w @ A)
        want = np.linalg.solve(A_K - np.eye(n) / mu, f + LAM * (H_w @ f))
        kappa = np.linalg.cond(np.eye(n) - mu * A_K, 2)
        bound = C * kappa * n * np.finfo(float).eps
        assert np.linalg.norm(psi1 - want) <= bound * np.linalg.norm(want)
