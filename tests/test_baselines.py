import numpy as np
import pytest

from fredsolve import baselines, fredholm2, grid
from fredsolve.baselines import (fridman_iterate, implicit_iterate, krasnoselskii_iterate,
                                 lavrentiev, quasisolution, steepest_descent,
                                 tikhonov_weighted)
from fredsolve.errors import ConfigError, InvalidRadiusError
from fredsolve.fredholm2 import estimate_spectrum
from fredsolve.grid import gauss_legendre, operator_matrix
from fredsolve.problems import FirstKindProblem, NoiseSpec, make_manufactured, perturb

from oracles import lavrentiev_exact_m1, textbook_trajectory, tri_green

GRID = gauss_legendre(64, 0.0, 1.0)
# step counts at which the monotonicity tests sample the production iterates
SAMPLED_STEPS = (0, 1, 2, 3, 5, 10, 20, 50, 100, 200)


def m1_problem():
    return make_manufactured("green_triangular", lambda x: np.sin(np.pi * np.asarray(x)))


def zero_kernel_problem(f):
    return FirstKindProblem(name="zero", kernel=lambda x, xi: 0.0 * x * xi,
                            free_term=f, provenance="test")


def asymmetric_problem():
    return FirstKindProblem(name="asym", kernel=lambda x, xi: np.exp(x - 2.0 * xi),
                            free_term=np.cos, provenance="test")


def constant_x_problem(scale=1.0):
    # rank one: f = x has a null component x - 1/2 that the iterations must keep
    return FirstKindProblem(name="constant-x", kernel=lambda x, xi: 1.0 + 0.0 * (x + xi),
                            free_term=lambda x: scale * np.asarray(x, dtype=float),
                            provenance="test")


def exact_m1(x):
    return np.sin(np.pi * np.asarray(x, dtype=float))


class TestLavrentiev:
    def test_zero_kernel(self):
        alpha = 0.3
        psi = lavrentiev(zero_kernel_problem(np.sin), alpha)
        assert np.max(np.abs(psi.values - np.sin(psi.grid.nodes) / alpha)) < 1e-13

    @pytest.mark.parametrize("alpha", [1e-2, 1e-4, 1e-6])
    def test_accuracy_law(self, alpha):
        psi = lavrentiev(m1_problem(), alpha)
        err = psi.grid.l2_norm(psi.values - exact_m1(psi.grid.nodes))
        law = (alpha * np.pi ** 2 / (1 + alpha * np.pi ** 2)) / np.sqrt(2.0)
        assert abs(err - law) <= 0.05 * law
        # pointwise check against the exact regularized solution
        assert np.max(np.abs(psi.values - lavrentiev_exact_m1(alpha, psi.grid.nodes))) < 1e-8

    def test_error_decreases_with_alpha(self):
        errs = []
        for alpha in (1e-2, 1e-4, 1e-6):
            psi = lavrentiev(m1_problem(), alpha)
            errs.append(psi.grid.l2_norm(psi.values - exact_m1(psi.grid.nodes)))
        assert errs[0] > errs[1] > errs[2]

    def test_huge_alpha_dominant_diagonal(self):
        alpha = 1e6
        psi = lavrentiev(m1_problem(), alpha)
        f = np.asarray(m1_problem().free_term(psi.grid.nodes))
        assert np.max(np.abs(psi.values - f / alpha)) <= 0.01 * np.max(np.abs(f)) / alpha


class TestTikhonov:
    @pytest.mark.parametrize("alpha, make", [
        pytest.param(alpha, make, id=f"{alpha}{kind}") for alpha in (1e-3, 1e-6)
        for kind, make in (("", m1_problem), ("-asymmetric", asymmetric_problem),
                           ("-constant", constant_x_problem))])
    def test_solves_the_regularized_least_squares_problem(self, alpha, make):
        # (alpha I + A*A) psi = A* f is the normal equation of
        # min ||A psi - f||^2 + alpha ||psi||^2 in the grid norm; in z = W^1/2 psi
        # that is the stacked least-squares problem [S; sqrt(alpha) I] z = [W^1/2 f; 0]
        prob = make()
        psi = tikhonov_weighted(prob, alpha)
        A = operator_matrix(prob.kernel, GRID, diag_split=prob.diag_split)
        sw = np.sqrt(GRID.weights)
        S = sw[:, None] * A / sw[None, :]
        f = np.asarray(prob.free_term(GRID.nodes))
        z = np.linalg.lstsq(np.vstack([S, np.sqrt(alpha) * np.eye(GRID.n)]),
                            np.concatenate([sw * f, np.zeros(GRID.n)]), rcond=None)[0]
        # both solves are backward stable; cond(alpha I + S^T S) <= (||S||^2 + alpha) / alpha
        norm2 = np.linalg.norm(S, 2) ** 2
        bound = 64 * GRID.n * np.finfo(float).eps * (norm2 + alpha) / alpha
        assert GRID.l2_norm(psi.values - z / sw) <= bound * GRID.l2_norm(psi.values)

    def test_filter_factor_on_the_first_mode(self):
        # f = sin(pi x) / pi^2 is one eigenmode: psi = lambda^2 / (lambda^2 + alpha) sin(pi x)
        alpha, lam = 1e-6, 1.0 / np.pi ** 2
        psi = tikhonov_weighted(m1_problem(), alpha)
        want = lam ** 2 / (lam ** 2 + alpha) * exact_m1(psi.grid.nodes)
        assert np.max(np.abs(psi.values - want)) < 1e-8

    def test_zero_kernel_gives_zero(self):
        psi = tikhonov_weighted(zero_kernel_problem(np.cos), 0.5)
        assert np.max(np.abs(psi.values)) == 0.0

    def test_accepts_an_asymmetric_kernel(self):
        psi = tikhonov_weighted(asymmetric_problem(), 1e-3)
        assert np.all(np.isfinite(psi.values))

    @pytest.mark.parametrize("alpha", [0.0, -1e-3])
    def test_nonpositive_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError):
            tikhonov_weighted(m1_problem(), alpha)


def sampled(run, ks=SAMPLED_STEPS):
    """The production iterates psi_k at the sampled step counts."""
    return [run(k).values for k in ks]


class TestFridman:
    def test_exact_solution_is_fixed_point(self):
        for k in (1, 3):
            psi = fridman_iterate(m1_problem(), np.pi ** 2, exact_m1, max_iter=k)
            assert GRID.l2_norm(psi.values - exact_m1(GRID.nodes)) < 1e-10

    def test_single_step_from_zero(self):
        step = 2.0
        psi = fridman_iterate(m1_problem(), step, np.zeros(GRID.n), max_iter=1)
        f = np.asarray(m1_problem().free_term(GRID.nodes))
        assert np.max(np.abs(psi.values - step * f)) < 1e-12

    def test_monotone_error_decrease(self):
        # psi0 = x spreads the error across modes; every contraction factor
        # |1 - lambda_1/lambda_n| < 1 so the L2 error strictly decreases
        iterates = sampled(lambda k: fridman_iterate(m1_problem(), np.pi ** 2, lambda x: x,
                                                     max_iter=k))
        errs = np.array([GRID.l2_norm(it - exact_m1(GRID.nodes)) for it in iterates])
        assert np.all(np.diff(errs) < 0)

    def test_default_step_is_the_first_characteristic_number(self):
        prob = m1_problem()
        lam1 = estimate_spectrum(prob.kernel, GRID)[0][0]
        assert lam1 == pytest.approx(np.pi ** 2, rel=1e-12)
        assert np.array_equal(fridman_iterate(prob, None, lambda x: x, max_iter=6).values,
                              fridman_iterate(prob, lam1, lambda x: x, max_iter=6).values)

    def test_step_bound_enforced(self):
        with pytest.raises(ConfigError) as exc:
            fridman_iterate(m1_problem(), 2.1 * np.pi ** 2, np.zeros(GRID.n))
        assert "lambda_1" in str(exc.value)

    def test_zero_kernel_refused(self):
        with pytest.raises(ConfigError, match="lambda_max"):
            fridman_iterate(zero_kernel_problem(np.sin), None, np.zeros(GRID.n))

    def test_asymmetric_kernel_refused(self):
        with pytest.raises(ConfigError, match="asymmetry"):
            fridman_iterate(asymmetric_problem(), 0.1, np.zeros(GRID.n))


class TestKrasnoselskii:
    def test_exact_solution_is_fixed_point(self):
        for k in (1, 3):
            psi = krasnoselskii_iterate(m1_problem(), 1.0, exact_m1, max_iter=k)
            assert GRID.l2_norm(psi.values - exact_m1(GRID.nodes)) < 1e-10

    def test_single_step_from_zero(self):
        nu = 1.0
        psi = krasnoselskii_iterate(m1_problem(), nu, np.zeros(GRID.n), max_iter=1)
        # independent adjoint application: <A* f, .> via the weighted transpose
        A = operator_matrix(tri_green, GRID, diag_split=True)
        f = np.asarray(m1_problem().free_term(GRID.nodes))
        Astar_f = (A.T * GRID.weights[None, :]) @ f / GRID.weights
        assert np.max(np.abs(psi.values - nu * Astar_f)) < 1e-12

    def test_residual_monotone(self):
        prob = m1_problem()
        A = operator_matrix(prob.kernel, GRID, diag_split=True)
        f = np.asarray(prob.free_term(GRID.nodes))
        iterates = sampled(lambda k: krasnoselskii_iterate(prob, 1.0, np.zeros(GRID.n),
                                                           max_iter=k))
        res = np.array([GRID.l2_norm(A @ it - f) for it in iterates])
        assert np.all(np.diff(res) <= 1e-15)

    def test_step_bound_is_two_over_the_largest_squared_singular_value(self):
        prob = m1_problem()
        A = operator_matrix(prob.kernel, GRID, diag_split=True)
        sw = np.sqrt(GRID.weights)
        norm = np.linalg.norm(sw[:, None] * A / sw[None, :], 2) ** 2  # ||A*A|| in the grid norm
        krasnoselskii_iterate(prob, 1.99 / norm, np.zeros(GRID.n), max_iter=1)
        with pytest.raises(ConfigError, match="outside"):
            krasnoselskii_iterate(prob, 2.01 / norm, np.zeros(GRID.n), max_iter=1)

    def test_step_bound_enforced(self):
        with pytest.raises(ConfigError):
            krasnoselskii_iterate(m1_problem(), 1e9, np.zeros(GRID.n))

    def test_accepts_an_asymmetric_kernel(self):
        psi = krasnoselskii_iterate(asymmetric_problem(), 1.0, np.zeros(GRID.n), max_iter=5)
        assert np.all(np.isfinite(psi.values))


class TestImplicit:
    def test_exact_solution_is_fixed_point(self):
        for k in (1, 3):
            psi = implicit_iterate(m1_problem(), 1.0, exact_m1, max_iter=k)
            assert GRID.l2_norm(psi.values - exact_m1(GRID.nodes)) < 1e-10

    def test_first_step_equals_lavrentiev(self):
        alpha = 0.7
        psi = implicit_iterate(m1_problem(), alpha, np.zeros(GRID.n), max_iter=1)
        direct = lavrentiev(m1_problem(), alpha)
        assert np.max(np.abs(psi.values - direct.values)) < 1e-12

    def test_monotone_error_decrease(self):
        iterates = sampled(lambda k: implicit_iterate(m1_problem(), 1.0, np.zeros(GRID.n),
                                                      max_iter=k), ks=SAMPLED_STEPS[:-1])
        errs = np.array([GRID.l2_norm(it - exact_m1(GRID.nodes)) for it in iterates])
        assert np.all(np.diff(errs) < 0)

    def test_asymmetric_kernel_refused(self):
        with pytest.raises(ConfigError, match="asymmetry"):
            implicit_iterate(asymmetric_problem(), 1.0, np.zeros(GRID.n))


@pytest.mark.parametrize("run", [
    lambda prob: fridman_iterate(prob, 2.0, np.zeros(GRID.n), max_iter=2),
    lambda prob: implicit_iterate(prob, 1e-3, np.zeros(GRID.n), max_iter=2),
    lambda prob: tikhonov_weighted(prob, 1e-4),
    lambda prob: krasnoselskii_iterate(prob, 1.0, np.zeros(GRID.n), max_iter=2),
    lambda prob: steepest_descent(prob, np.zeros(GRID.n), max_iter=2)],
    ids=["fridman", "implicit", "tikhonov", "krasnoselskii", "steepest"])
def test_a_symmetric_basis_assembles_A_cold_only(monkeypatch, run):
    # A serves only the eigendecomposition (symmetric or normal; the normal
    # basis keeps S beside it): a cold request assembles A once, and a warm
    # one takes the kept basis and assembles nothing
    monkeypatch.setattr(grid, "_forward_cache", grid._ForwardCache(grid._FORWARD_CACHE_BYTES))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].n)
        return operator_matrix(*args, **kwargs)

    monkeypatch.setattr(baselines, "operator_matrix", counted)
    monkeypatch.setattr(fredholm2, "operator_matrix", counted)
    run(m1_problem())
    assert calls == [GRID.n]
    run(m1_problem())
    assert calls == [GRID.n]


class TestSteepestDescent:
    def test_exact_start_stops_at_once(self):
        psi = steepest_descent(m1_problem(), exact_m1, max_iter=5)
        assert np.array_equal(psi.values, exact_m1(GRID.nodes))

    def test_closure_error_nonincreasing(self):
        prob = m1_problem()
        A = operator_matrix(prob.kernel, GRID, diag_split=True)
        f = np.asarray(prob.free_term(GRID.nodes))
        iterates = sampled(lambda k: steepest_descent(prob, np.zeros(GRID.n), max_iter=k))
        res = np.array([GRID.l2_norm(A @ it - f) for it in iterates])
        assert np.all(np.diff(res) <= 1e-15)

    def test_first_step_double_evaluation(self):
        psi = steepest_descent(m1_problem(), np.zeros(GRID.n), max_iter=1)
        A = operator_matrix(tri_green, GRID, diag_split=True)
        f = np.asarray(m1_problem().free_term(GRID.nodes))
        g = (A.T * GRID.weights[None, :]) @ (-f) / GRID.weights
        beta = np.sum(GRID.weights * g * g) / np.sum(GRID.weights * (A @ g) ** 2)
        assert np.max(np.abs(psi.values - (-beta) * g)) < 1e-12

    @pytest.mark.parametrize("scale", [1e3, 1e9])
    def test_a_rank_one_kernel_at_any_data_scale(self, scale):
        # the null modes' rounding noise grows with f: the line search must not follow it
        want = steepest_descent(constant_x_problem(), np.zeros(GRID.n)).values
        psi = steepest_descent(constant_x_problem(scale), np.zeros(GRID.n)).values / scale
        assert np.max(np.abs(psi - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_residual_start_is_returned(self):
        prob = make_manufactured("green_triangular", lambda x: 0.0 * np.asarray(x))
        assert np.array_equal(steepest_descent(prob, np.zeros(GRID.n), max_iter=5).values,
                              np.zeros(GRID.n))


class TestTextbookOracle:
    """Each iteration family's k-th iterate against its textbook update applied
    k times on the same matrix (``oracles.textbook_trajectory``).

    Rounding bound: each route commits O(n eps) relative rounding a step (an
    n-term product, or an implicit solve whose error is amplified by
    kappa = cond(alpha I + A)), and the eigen-route once more in each change
    of basis.  Every update is a contraction or, on null modes, a shift, so
    the errors add: ||psi_k - oracle_k|| <= (k + 1) n eps kappa max_j ||oracle_j||.
    Measured at n = 64 the gap stays below 0.06 of that bound.
    """

    CASES = {
        "fridman-pi2": ("fridman", fridman_iterate, np.pi ** 2, m1_problem),
        "fridman-2": ("fridman", fridman_iterate, 2.0, m1_problem),
        "fridman-constant": ("fridman", fridman_iterate, 1.0, constant_x_problem),
        "krasnoselskii": ("krasnoselskii", krasnoselskii_iterate, 1.0, m1_problem),
        "krasnoselskii-constant": ("krasnoselskii", krasnoselskii_iterate, 1.0,
                                   constant_x_problem),
        "implicit-1": ("implicit", implicit_iterate, 1.0, m1_problem),
        "implicit-1e-4": ("implicit", implicit_iterate, 1e-4, m1_problem),
        "implicit-constant": ("implicit", implicit_iterate, 1e-4, constant_x_problem),
        "steepest": ("steepest", None, None, m1_problem),
        "steepest-constant": ("steepest", None, None, constant_x_problem),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_kth_iterate_matches_the_textbook_update(self, case):
        method, run, param, make = self.CASES[case]
        prob = make()
        traj = textbook_trajectory(method, prob, GRID, param, lambda x: x, 200)
        kappa = 1.0
        if method == "implicit":
            A = operator_matrix(prob.kernel, GRID, diag_split=prob.diag_split)
            kappa = np.linalg.cond(param * np.eye(GRID.n) + A)
        scale = max(GRID.l2_norm(t) for t in traj)
        for k in (1, 6, 200):
            psi = (steepest_descent(prob, lambda x: x, max_iter=k) if run is None
                   else run(prob, param, lambda x: x, max_iter=k))
            bound = (k + 1) * GRID.n * np.finfo(float).eps * kappa * scale
            assert GRID.l2_norm(psi.values - traj[k]) <= bound

    def test_lavrentiev_is_one_implicit_step(self):
        prob = m1_problem()
        one = textbook_trajectory("implicit", prob, GRID, 1e-3, np.zeros(GRID.n), 1)[1]
        assert np.max(np.abs(lavrentiev(prob, 1e-3).values - one)) < 1e-12 * np.max(np.abs(one))


class TestQuasisolution:
    def test_unconstrained_branch(self):
        psi = quasisolution(m1_problem(), R=1.0)
        assert psi.grid.l2_norm(psi.values) <= 1.0 + 1e-10
        assert np.max(np.abs(psi.values - exact_m1(psi.grid.nodes))) < 1e-4

    def test_constrained_branch_norm(self):
        psi = quasisolution(m1_problem(), R=0.1)
        assert psi.grid.l2_norm(psi.values) == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize("R", [1e-3, 0.1], ids=["bracket-grown", "first-bracket"])
    def test_bisection_ends_where_two_hundred_steps_do(self, R):
        # the bisection stops at its fixed point, so its nu has the bits of the
        # full 200-step reference run here on the same Picard coefficients
        prob = m1_problem()
        lam, Phi = estimate_spectrum(prob.kernel, GRID)
        picard = (Phi.T @ (GRID.weights * np.asarray(prob.free_term(GRID.nodes)))) * lam

        def norm2(nu):
            a = picard / (1.0 + nu * lam * lam)
            return float(np.sum(a * a))

        assert norm2(0.0) > R * R
        # only the smaller radius enters the loop that widens the bracket [0, 1]
        assert (norm2(1.0) > R * R) == (R < 0.01)
        lo, hi = 0.0, 1.0
        while norm2(hi) > R * R:
            hi *= 8.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if norm2(mid) > R * R:
                lo = mid
            else:
                hi = mid
        nu = 0.5 * (lo + hi)
        assert np.array_equal(quasisolution(prob, R).values,
                              Phi @ (picard / (1.0 + nu * lam * lam)))

    def test_zero_free_term(self):
        prob = make_manufactured("green_triangular", lambda x: 0.0 * np.asarray(x))
        psi = quasisolution(prob, R=1.0)
        assert np.max(np.abs(psi.values)) < 1e-12

    def test_invalid_radius(self):
        with pytest.raises(InvalidRadiusError):
            quasisolution(m1_problem(), R=-1.0)


def test_noise_amplification_factor():
    # perturbing f by eps sin(m pi x) amplifies the output by ~ (m pi)^2 at
    # small alpha; the m = 5 to m = 1 ratio must sit within a factor 2 of 25
    alpha, eps = 1e-6, 1e-4
    clean = lavrentiev(m1_problem(), alpha)
    deltas = {}
    for m in (1, 5):
        noisy = perturb(m1_problem(), NoiseSpec(eps, m * np.pi))
        out = lavrentiev(noisy, alpha)
        deltas[m] = out.grid.l2_norm(out.values - clean.values)
    ratio = deltas[5] / deltas[1]
    assert 12.5 <= ratio <= 50.0
