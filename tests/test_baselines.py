import numpy as np
import pytest

from fredsolve.baselines import (averaged_iterate, fridman_iterate,
                                 implicit_iterate, krasnoselskii_iterate,
                                 lavrentiev, quasisolution, steepest_descent,
                                 stopping_rule, tikhonov_weighted)
from fredsolve.errors import ConfigError, InvalidRadiusError
from fredsolve.grid import gauss_legendre, operator_matrix
from fredsolve.problems import FirstKindProblem, NoiseSpec, make_manufactured, perturb

from oracles import lavrentiev_exact_m1

GRID = gauss_legendre(64, 0.0, 1.0)


def m1_problem():
    return make_manufactured("green_triangular", lambda x: np.sin(np.pi * np.asarray(x)))


def zero_kernel_problem(f):
    return FirstKindProblem(name="zero", kernel=lambda x, xi: 0.0 * x * xi,
                            free_term=f, provenance="test")


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


class TestTikhonovWeighted:
    def test_unit_weight_matches_lavrentiev(self):
        prob = m1_problem()
        a = tikhonov_weighted(prob, 1e-3, lambda x: np.ones_like(x))
        b = lavrentiev(prob, 1e-3)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_zero_kernel_weighted(self):
        alpha = 0.5
        psi = tikhonov_weighted(zero_kernel_problem(np.cos), alpha, lambda x: 1.0 + x)
        x = psi.grid.nodes
        assert np.max(np.abs(psi.values - np.cos(x) / (alpha * (1.0 + x)))) < 1e-13

    def test_scaling_equivalence(self):
        prob = m1_problem()
        a = tikhonov_weighted(prob, 5e-4, lambda x: 2.0 * np.ones_like(x))
        b = tikhonov_weighted(prob, 1e-3, lambda x: np.ones_like(x))
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            tikhonov_weighted(m1_problem(), 1e-3, lambda x: x - 0.5)


class TestFridman:
    def test_exact_solution_is_fixed_point(self):
        hist = fridman_iterate(m1_problem(), np.pi ** 2, exact_m1, max_iter=3)
        assert hist.residual_norms[0] < 1e-10
        assert np.max(hist.displacements()) < 1e-10

    def test_single_step_from_zero(self):
        step = 2.0
        hist = fridman_iterate(m1_problem(), step, np.zeros(GRID.n), max_iter=1)
        f = np.asarray(m1_problem().free_term(GRID.nodes))
        assert np.max(np.abs(hist.iterates[1] - step * f)) < 1e-12

    def test_monotone_error_decrease(self):
        # psi0 = x spreads the error across modes; every contraction factor
        # |1 - lambda_1/lambda_n| < 1 so the L2 error strictly decreases
        hist = fridman_iterate(m1_problem(), np.pi ** 2, lambda x: x, max_iter=200)
        errs = np.array([GRID.l2_norm(it - exact_m1(GRID.nodes)) for it in hist.iterates])
        assert np.all(np.diff(errs) < 0)

    def test_step_bound_enforced(self):
        with pytest.raises(ConfigError) as exc:
            fridman_iterate(m1_problem(), 2.1 * np.pi ** 2, np.zeros(GRID.n))
        assert "lambda_1" in str(exc.value)


class TestKrasnoselskii:
    def test_exact_solution_is_fixed_point(self):
        hist = krasnoselskii_iterate(m1_problem(), 1.0, exact_m1, max_iter=3)
        assert hist.residual_norms[0] < 1e-10
        assert np.max(hist.displacements()) < 1e-10

    def test_single_step_from_zero(self):
        nu = 1.0
        hist = krasnoselskii_iterate(m1_problem(), nu, np.zeros(GRID.n), max_iter=1)
        # independent adjoint application: <A* f, .> via the weighted transpose
        from fredsolve.grid import operator_matrix
        from oracles import tri_green
        A = operator_matrix(tri_green, GRID, diag_split=True)
        f = np.asarray(m1_problem().free_term(GRID.nodes))
        Astar_f = (A.T * GRID.weights[None, :]) @ f / GRID.weights
        assert np.max(np.abs(hist.iterates[1] - nu * Astar_f)) < 1e-12

    def test_residual_monotone(self):
        hist = krasnoselskii_iterate(m1_problem(), 1.0, np.zeros(GRID.n), max_iter=200)
        res = np.array(hist.residual_norms)
        assert np.all(np.diff(res) <= 1e-15)

    def test_step_bound_enforced(self):
        with pytest.raises(ConfigError):
            krasnoselskii_iterate(m1_problem(), 1e9, np.zeros(GRID.n))


class TestAveraged:
    def test_m_zero_returns_start(self):
        start = lambda x: np.cos(x)
        out = averaged_iterate(m1_problem(), 1.0, start, m=0)
        assert np.max(np.abs(out.values - np.cos(out.grid.nodes))) == 0.0

    def test_exact_start_stays(self):
        out = averaged_iterate(m1_problem(), 1.0, exact_m1, m=20)
        assert np.max(np.abs(out.values - exact_m1(out.grid.nodes))) < 1e-9

    def test_converges_and_is_logged_against_plain(self):
        # the head-to-head accuracy ratio is recorded, not asserted
        m = 50
        avg = averaged_iterate(m1_problem(), 1.0, np.zeros(GRID.n), m=m)
        plain = fridman_iterate(m1_problem(), 1.0, np.zeros(GRID.n), max_iter=m)
        err_avg = GRID.l2_norm(avg.values - exact_m1(GRID.nodes))
        err_plain = GRID.l2_norm(plain.iterates[-1] - exact_m1(GRID.nodes))
        err_start = GRID.l2_norm(exact_m1(GRID.nodes))
        assert np.isfinite(err_avg)
        assert err_avg < err_start
        print(f"\n[averaged vs plain at {m} iters] {err_avg:.6e} vs {err_plain:.6e}")


class TestImplicit:
    def test_exact_solution_is_fixed_point(self):
        hist = implicit_iterate(m1_problem(), 1.0, exact_m1, max_iter=3)
        assert np.max(hist.displacements()) < 1e-10

    def test_first_step_equals_lavrentiev(self):
        alpha = 0.7
        hist = implicit_iterate(m1_problem(), alpha, np.zeros(GRID.n), max_iter=1)
        direct = lavrentiev(m1_problem(), alpha)
        assert np.max(np.abs(hist.iterates[1] - direct.values)) < 1e-12

    def test_monotone_error_decrease(self):
        hist = implicit_iterate(m1_problem(), 1.0, np.zeros(GRID.n), max_iter=100)
        errs = np.array([GRID.l2_norm(it - exact_m1(GRID.nodes)) for it in hist.iterates])
        assert np.all(np.diff(errs) < 0)


class TestSteepestDescent:
    def test_exact_start_converges_immediately(self):
        hist = steepest_descent(m1_problem(), exact_m1, max_iter=5)
        assert hist.converged
        assert len(hist.iterates) == 1

    def test_closure_error_nonincreasing(self):
        hist = steepest_descent(m1_problem(), np.zeros(GRID.n), max_iter=200)
        res = np.array(hist.residual_norms)
        assert np.all(np.diff(res) <= 1e-15)

    def test_first_step_double_evaluation(self):
        hist = steepest_descent(m1_problem(), np.zeros(GRID.n), max_iter=1)
        from fredsolve.grid import operator_matrix
        from oracles import tri_green
        A = operator_matrix(tri_green, GRID, diag_split=True)
        f = np.asarray(m1_problem().free_term(GRID.nodes))
        g = (A.T * GRID.weights[None, :]) @ (-f) / GRID.weights
        beta = np.sum(GRID.weights * g * g) / np.sum(GRID.weights * (A @ g) ** 2)
        assert np.max(np.abs(hist.iterates[1] - (-beta) * g)) < 1e-12


def _textbook_updates(prob):
    # one step of each family written out from its formula, on the same
    # matrix the methods assemble
    A = operator_matrix(prob.kernel, GRID, diag_split=prob.diag_split)
    f = np.asarray(prob.free_term(GRID.nodes), dtype=float)
    w = GRID.weights
    Astar = (A.T * w[None, :]) / w[:, None]
    A1, f1 = Astar @ A, Astar @ f
    M = np.linalg.inv(1.0 * np.eye(GRID.n) + A)

    def steepest(psi):
        g = Astar @ (A @ psi - f)
        beta = np.sum(w * g * g) / np.sum(w * (A @ g) * (A @ g))
        return psi - beta * g

    return A, f, {
        "fridman": (lambda p, psi0, k: fridman_iterate(p, 2.0, psi0, max_iter=k),
                    lambda psi: psi + 2.0 * (f - A @ psi)),
        "krasnoselskii": (lambda p, psi0, k: krasnoselskii_iterate(p, 1.0, psi0, max_iter=k),
                          lambda psi: psi - 1.0 * (A1 @ psi) + 1.0 * f1),
        "implicit": (lambda p, psi0, k: implicit_iterate(p, 1.0, psi0, max_iter=k),
                     lambda psi: M @ (1.0 * psi + f)),
        "steepest": (lambda p, psi0, k: steepest_descent(p, psi0, max_iter=k), steepest),
    }


class TestOneDriver:
    """Every iteration family runs one loop; its history is its own update."""

    @pytest.mark.parametrize("method", ["fridman", "krasnoselskii", "implicit", "steepest"])
    def test_history_is_the_method_update(self, method):
        prob = m1_problem()
        A, f, updates = _textbook_updates(prob)
        run, update = updates[method]
        hist = run(prob, lambda x: x, 6)
        assert len(hist.iterates) == 7 and not hist.converged
        for prev, nxt in zip(hist.iterates[:-1], hist.iterates[1:]):
            assert np.array_equal(nxt, update(prev))
        for it, res in zip(hist.iterates, hist.residual_norms, strict=True):
            assert res == GRID.l2_norm(A @ it - f)

    def test_averaged_is_mean_of_residual_correction(self):
        m = 7
        avg = averaged_iterate(m1_problem(), 1.0, lambda x: x, m=m)
        hist = fridman_iterate(m1_problem(), 1.0, lambda x: x, max_iter=m)
        acc = hist.iterates[0].copy()
        for it in hist.iterates[1:]:
            acc += it
        assert np.array_equal(avg.values, acc / (m + 1))

    def test_lavrentiev_is_unit_weight_tikhonov(self):
        prob = m1_problem()
        a = tikhonov_weighted(prob, 1e-3, lambda x: np.ones_like(x))
        assert np.array_equal(lavrentiev(prob, 1e-3).values, a.values)

    def test_steepest_at_zero_residual_stops_with_one_iterate(self):
        prob = make_manufactured("green_triangular", lambda x: 0.0 * np.asarray(x))
        hist = steepest_descent(prob, np.zeros(GRID.n), max_iter=5)
        assert hist.converged
        assert len(hist.iterates) == 1 and hist.residual_norms == [0.0]


class TestQuasisolution:
    def test_unconstrained_branch(self):
        psi = quasisolution(m1_problem(), R=1.0)
        assert psi.grid.l2_norm(psi.values) <= 1.0 + 1e-10
        assert np.max(np.abs(psi.values - exact_m1(psi.grid.nodes))) < 1e-4

    def test_constrained_branch_norm(self):
        psi = quasisolution(m1_problem(), R=0.1)
        assert psi.grid.l2_norm(psi.values) == pytest.approx(0.1, abs=1e-6)

    def test_zero_free_term(self):
        prob = make_manufactured("green_triangular", lambda x: 0.0 * np.asarray(x))
        psi = quasisolution(prob, R=1.0)
        assert np.max(np.abs(psi.values)) < 1e-12

    def test_invalid_radius(self):
        with pytest.raises(InvalidRadiusError):
            quasisolution(m1_problem(), R=-1.0)


class TestStoppingRule:
    def test_zero_thresholds_need_exact_stagnation(self):
        hist = fridman_iterate(m1_problem(), np.pi ** 2, np.zeros(GRID.n), max_iter=20)
        assert stopping_rule(hist, delta=0.0, gamma=0.0) is None
        hist.iterates.append(hist.iterates[-1].copy())
        assert stopping_rule(hist, delta=0.0, gamma=0.0) == len(hist.iterates) - 2

    def test_constant_history_stops_immediately(self):
        hist = fridman_iterate(m1_problem(), np.pi ** 2, exact_m1, max_iter=5)
        assert stopping_rule(hist, delta=1e-9, gamma=0.0) == 0

    def test_perturbed_run_has_finite_index(self):
        noisy = perturb(m1_problem(), NoiseSpec(1e-3, np.pi))
        hist = fridman_iterate(noisy, np.pi ** 2, np.zeros(GRID.n), max_iter=200)
        idx = stopping_rule(hist, delta=1e-3, gamma=0.0)
        assert idx is not None and idx <= 200
        print(f"\n[stopping rule, eps=1e-3] index={idx}")


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
