import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredsolve.errors import (NonFiniteValueError, NoValidMuError,
                              ParameterExclusionError)
from fredsolve.grid import GridFunction, gauss_legendre, interp_matrix
from fredsolve.method_core import (MethodParams, _verdict, build_F0, build_F1,
                                   build_kappa, build_rho, method_v1,
                                   method_v2, method_v2_single, select_mu,
                                   solve_psi1, verify_solution)
from fredsolve.problems import FirstKindProblem, make_manufactured

from oracles import build_K, tri_green

LAM, R, MU = 0.2, 0.5, 0.1
PARAMS = MethodParams.create(r=R, lam=LAM, mu=MU)
GRID = gauss_legendre(64, 0.0, 1.0)


def m1_problem():
    return make_manufactured("green_triangular", lambda x: np.sin(np.pi * np.asarray(x)))


def zero_kernel_problem(f):
    return FirstKindProblem(name="zero", kernel=lambda x, xi: 0.0 * x * xi,
                            free_term=f, provenance="test")


class TestSelectMu:
    def test_zero_kernel_accepts_anything(self):
        prob = zero_kernel_problem(np.sin)
        assert select_mu(prob, PARAMS, [123.0]) == 123.0

    def test_triangular_accepts_small(self):
        assert select_mu(m1_problem(), PARAMS, [0.1]) == 0.1

    def test_characteristic_number_rejected(self):
        # construct the hit from the discrete spectrum of the composed matrix
        from fredsolve.method_core import _Workspace
        ws = _Workspace(PARAMS, m1_problem())
        evals = np.linalg.eigvals(ws.A_K)
        evals = evals[np.abs(evals) > 1e-8]
        mu_hit = float(1.0 / evals[np.argmax(np.abs(evals))].real)
        with pytest.raises(NoValidMuError):
            select_mu(m1_problem(), PARAMS, [mu_hit])


class TestBuildK:
    def test_lambda_zero_reduces_to_kernel(self):
        params0 = MethodParams.create(r=R, lam=0.0, mu=MU, min_rel_dist=0.0)
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
        v64 = build_K(tri_green, MethodParams.create(r=R, lam=LAM, mu=MU,
                                                     quad_order=64))(0.3, 0.6)
        v128 = build_K(tri_green, MethodParams.create(r=R, lam=LAM, mu=MU,
                                                      quad_order=128))(0.3, 0.6)
        assert abs(v64 - v128) < 1e-8


class TestBuildF1:
    def test_lambda_zero(self):
        params0 = MethodParams.create(r=R, lam=0.0, mu=MU, min_rel_dist=0.0)
        F1 = build_F1(np.sin, params0, GRID)
        assert np.max(np.abs(F1.values + MU * np.sin(GRID.nodes))) < 1e-14

    def test_first_cosine_eigencomponent(self):
        F1 = build_F1(lambda x: np.cos(2 * np.pi * x), PARAMS, GRID)
        factor = -MU * (1 - LAM * R) / (1 - 2 * LAM * R)
        assert np.max(np.abs(F1.values - factor * np.cos(2 * np.pi * GRID.nodes))) < 1e-10
        assert factor == pytest.approx(-MU * 0.9 / 0.8, abs=1e-15)

    def test_constant_eigencomponent(self):
        F1 = build_F1(lambda x: np.ones_like(x), PARAMS, GRID)
        assert np.max(np.abs(F1.values + MU * (1 - LAM) / (1 - 2 * LAM))) < 1e-10


class TestSolvePsi1:
    def test_zero_free_term(self):
        psi1 = solve_psi1(zero_kernel_problem(lambda x: 0.0 * x), PARAMS)
        assert np.max(np.abs(psi1.values)) == 0.0

    def test_zero_kernel_gives_F1(self):
        prob = zero_kernel_problem(np.sin)
        psi1 = solve_psi1(prob, PARAMS)
        F1 = build_F1(np.sin, PARAMS, psi1.grid)
        assert np.max(np.abs(psi1.values - F1.values)) < 1e-14
        # lambda = 0 composes to psi1 = -mu f
        params0 = MethodParams.create(r=R, lam=0.0, mu=MU, min_rel_dist=0.0)
        psi0 = solve_psi1(prob, params0)
        assert np.max(np.abs(psi0.values + MU * np.sin(psi0.grid.nodes))) < 1e-14

    def test_grid_refinement_consistency(self):
        p64 = MethodParams.create(r=R, lam=LAM, mu=MU, n_out=64)
        p128 = MethodParams.create(r=R, lam=LAM, mu=MU, n_out=128, quad_order=128)
        a = solve_psi1(m1_problem(), p64)
        b = solve_psi1(m1_problem(), p128)
        resampled = interp_matrix(b.grid.nodes, a.grid.nodes) @ b.values
        assert np.max(np.abs(a.values - resampled)) < 1e-6


class TestRhoKappaF0:
    def test_rho_zero(self):
        rho = build_rho(GridFunction(GRID, np.zeros(GRID.n)), PARAMS)
        assert np.max(np.abs(rho.values)) == 0.0

    def test_rho_cosine(self):
        rho = build_rho(GridFunction.sample(lambda x: np.cos(2 * np.pi * x), GRID), PARAMS)
        expected = -LAM * R * np.cos(2 * np.pi * rho.grid.nodes)
        assert np.max(np.abs(rho.values - expected)) < 1e-10

    def test_rho_constant(self):
        rho = build_rho(GridFunction(GRID, np.ones(GRID.n)), PARAMS)
        assert np.max(np.abs(rho.values + LAM)) < 1e-10

    def test_kappa_zero(self):
        gm = gauss_legendre(64, -1.0, 0.0)
        kap = build_kappa(GridFunction(gm, np.zeros(64)), PARAMS)
        assert np.max(np.abs(kap.values)) == 0.0

    def test_kappa_constant(self):
        gm = gauss_legendre(64, -1.0, 0.0)
        kap = build_kappa(GridFunction(gm, np.ones(64)), PARAMS)
        expected = (1 - 2 * LAM) / (1 - 2 * LAM - LAM ** 2)
        assert expected == pytest.approx(0.6 / 0.56, abs=1e-15)
        assert np.max(np.abs(kap.values - expected)) < 1e-10

    def test_kappa_cosine(self):
        gm = gauss_legendre(64, -1.0, 0.0)
        kap = build_kappa(GridFunction.sample(lambda x: np.cos(2 * np.pi * x), gm), PARAMS)
        factor = (1 - 2 * LAM * R) / (1 - 2 * LAM * R - LAM ** 2 * R ** 2)
        assert np.max(np.abs(kap.values - factor * np.cos(2 * np.pi * gm.nodes))) < 1e-10

    def test_F0_zero(self):
        gm = gauss_legendre(64, -1.0, 0.0)
        F0 = build_F0(GridFunction(gm, np.zeros(64)), PARAMS, GRID)
        assert np.max(np.abs(F0.values)) == 0.0

    def test_F0_constant(self):
        gm = gauss_legendre(64, -1.0, 0.0)
        F0 = build_F0(GridFunction(gm, np.ones(64)), PARAMS, GRID)
        assert np.max(np.abs(F0.values - LAM / (1 - 2 * LAM))) < 1e-10

    def test_F0_cosine(self):
        gm = gauss_legendre(64, -1.0, 0.0)
        F0 = build_F0(GridFunction.sample(lambda x: np.cos(2 * np.pi * x), gm), PARAMS, GRID)
        factor = LAM * R / (1 - 2 * LAM * R)
        assert np.max(np.abs(F0.values - factor * np.cos(2 * np.pi * GRID.nodes))) < 1e-10

    def test_stage_linearity(self):
        f1 = GridFunction.sample(lambda x: np.sin(2 * np.pi * x) + 0.3, GRID)
        f2 = GridFunction.sample(lambda x: np.cos(4 * np.pi * x) * x, GRID)
        combo = GridFunction(GRID, 2.0 * f1.values - 0.7 * f2.values)
        for stage in (lambda g: build_rho(g, PARAMS),):
            a, b, c = stage(f1), stage(f2), stage(combo)
            assert np.max(np.abs(c.values - 2.0 * a.values + 0.7 * b.values)) < 1e-10
        gm = gauss_legendre(64, -1.0, 0.0)
        g1 = GridFunction.sample(lambda x: np.sin(2 * np.pi * x) + 0.3, gm)
        g2 = GridFunction.sample(lambda x: np.cos(4 * np.pi * x) * x, gm)
        gc = GridFunction(gm, 2.0 * g1.values - 0.7 * g2.values)
        for stage in (lambda g: build_kappa(g, PARAMS), lambda g: build_F0(g, PARAMS, GRID)):
            a, b, c = stage(g1), stage(g2), stage(gc)
            assert np.max(np.abs(c.values - 2.0 * a.values + 0.7 * b.values)) < 1e-10

    def test_cosine_propagation_chain(self):
        # rho -> kappa -> F0 multiplies cos(2 n pi x) by
        # -lam r^n * (1-2 lam r^n)/(1-2 lam r^n - Lam r^2n) * lam r^n/(1-2 lam r^n)
        for n in (1, 2, 3):
            src = GridFunction.sample(lambda x: np.cos(2 * n * np.pi * x), GRID)
            out = build_F0(build_kappa(build_rho(src, PARAMS), PARAMS), PARAMS, GRID)
            rn = R ** n
            factor = (-LAM * rn) * ((1 - 2 * LAM * rn) / (1 - 2 * LAM * rn - LAM ** 2 * rn ** 2)) \
                * (LAM * rn / (1 - 2 * LAM * rn))
            assert np.max(np.abs(out.values - factor * np.cos(2 * n * np.pi * GRID.nodes))) < 1e-9


class TestMethodV2:
    def test_zero_free_term(self):
        state = method_v2(zero_kernel_problem(lambda x: 0.0 * x), PARAMS)
        assert np.max(np.abs(state.psi.values)) == 0.0
        assert state.residual_l2 == 0.0

    def test_zero_kernel_stage_composition(self):
        params0 = MethodParams.create(r=R, lam=0.0, mu=MU, min_rel_dist=0.0)
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
        print(f"\n[method_v2 m=1] residual_l2={state.residual_l2:.6e} "
              f"relative={state.relative_residual:.6e} "
              f"reconstruction_error={state.reconstruction_error:.6e}")

    def test_excluded_lambda_raises(self):
        for lam in (0.5, -1.0 + np.sqrt(2.0)):
            with pytest.raises(ParameterExclusionError):
                method_v2(m1_problem(), MethodParams.create(r=R, lam=lam, mu=MU))

    @pytest.mark.parametrize("n", [64, 128])
    def test_stages_are_the_public_stage_functions(self, n):
        # the tests of build_* check the path that method_v2 runs, bit for bit
        prob = m1_problem()
        params = MethodParams.create(r=R, lam=LAM, mu=MU, quad_order=n, n_out=n)
        state = method_v2(prob, params)
        pairs = ((state.F1, build_F1(prob.free_term, params)),
                 (state.psi1, solve_psi1(prob, params)),
                 (state.rho, build_rho(state.psi1, params)),
                 (state.kappa, build_kappa(state.rho, params)),
                 (state.F0, build_F0(state.kappa, params)))
        for stage, public in pairs:
            assert np.array_equal(stage.values, public.values)

    def test_stored_residual_matches_recompute(self):
        prob = m1_problem()
        state = method_v2(prob, PARAMS)
        report = verify_solution(prob, state.psi)
        assert state.residual_l2 == pytest.approx(report.residual_l2, rel=1e-12)
        assert state.relative_residual == pytest.approx(report.relative, rel=1e-12)


class TestMethodV2Single:
    def test_zero_psi1(self):
        out, _ = method_v2_single(zero_kernel_problem(lambda x: 0.0 * x), PARAMS,
                                  psi1=GridFunction(GRID, np.zeros(GRID.n)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_constant_psi1(self):
        # constant eigencomponents: f' = -Lambda/(1-2 lam), psi = -Lambda/(1-2 lam-Lambda)
        out, _ = method_v2_single(m1_problem(), PARAMS,
                                  psi1=GridFunction(GRID, np.ones(GRID.n)))
        expected = -LAM ** 2 / (1 - 2 * LAM - LAM ** 2)
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_picks_and_reports_mu(self):
        params = MethodParams.create(r=R, lam=LAM)
        out, mu = method_v2_single(m1_problem(), params)
        assert mu == select_mu(m1_problem(), params)
        given, _ = method_v2_single(m1_problem(), MethodParams.create(r=R, lam=LAM, mu=mu))
        assert np.array_equal(out.values, given.values)

    def test_cross_route_consistency(self):
        # single-integration route vs the two-solve route's (psi0+psi1) - psi1
        params = MethodParams.create(r=R, lam=LAM, mu=0.02)
        state = method_v2(m1_problem(), params)
        single, _ = method_v2_single(m1_problem(), params, psi1=state.psi1)
        against_psi0 = np.max(np.abs(single.values - state.psi0.values))
        assert against_psi0 < 1e-6
        print(f"\n[cross-route] |single - psi0|_max={against_psi0:.3e} "
              f"|single - psi|_L2={state.psi.grid.l2_norm(single.values - state.psi.values):.3e}")


class TestMethodV1:
    def test_zero_free_term(self):
        state = method_v1(zero_kernel_problem(lambda x: 0.0 * x), PARAMS, n_fourier=6)
        assert max(abs(state.s.c0), np.max(np.abs(state.s.cn)),
                   np.max(np.abs(state.s.cn_prime))) == 0.0
        assert np.max(np.abs(state.evaluate(np.linspace(0, 1, 11)))) == 0.0

    def test_zero_kernel_closed_form_row(self):
        state = method_v1(zero_kernel_problem(lambda x: np.ones_like(x)), PARAMS, n_fourier=4)
        c0 = 2.0
        assert state.s.c0 == pytest.approx(-MU * (1 - LAM) * c0 / (1 - 2 * LAM), abs=1e-12)
        sigma = -MU * LAM ** 2 * (1 - LAM) / ((1 - 2 * LAM) * (1 - 2 * LAM - LAM ** 2))
        assert state.sigma == pytest.approx(sigma, abs=1e-15)
        assert state.t.c0 == pytest.approx(sigma * (-c0), abs=1e-12)

    def test_m1_run(self):
        state = method_v1(m1_problem(), PARAMS, n_fourier=16)
        coeffs = np.concatenate([[state.t.c0], state.t.cn, state.t.cn_prime])
        assert np.all(np.isfinite(coeffs))
        assert np.max(np.abs(state.t.cn[8:])) < np.max(np.abs(state.t.cn[:4]))
        g = gauss_legendre(128, 0.0, 1.0)
        recon = g.l2_norm(state.evaluate(g.nodes) - np.sin(np.pi * g.nodes))
        print(f"\n[method_v1 m=1] reconstruction_error={recon:.6e}")

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
        psi = GridFunction.sample(psi_star, GRID)
        report = verify_solution(prob, psi)
        assert report.residual_l2 < 1e-8
        assert report.solvable == "yes"

    def test_constant_free_term_obstruction(self):
        prob = FirstKindProblem(name="tri-f1", kernel=tri_green,
                                free_term=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                provenance="test", diag_split=True)
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
