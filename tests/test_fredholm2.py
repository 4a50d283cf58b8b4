import numpy as np
import pytest

from fredsolve import fredholm2
from fredsolve.errors import ConfigError, NoValidMuError, OnSpectrumError
from fredsolve.fredholm2 import (DEFAULT_MU_CANDIDATES, estimate_spectrum, gate_mu,
                                 gated_system, solve_direct)
from fredsolve.grid import gauss_legendre, operator_matrix

from oracles import tri_green

GRID = gauss_legendre(64, 0.0, 1.0)


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _assert_rank_one(est):
    assert est.char_numbers.size == 1
    assert est.char_numbers[0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(est.eigenfunctions[0].values - 1.0)) < 1e-8


def _system(kernel, mu, diag_split=False):
    # the gated Nystrom matrix I - mu A on GRID
    return gated_system(operator_matrix(kernel, GRID, diag_split=diag_split), mu)


class TestSolveDirect:
    def test_zero_kernel(self):
        psi = solve_direct(_system(lambda x, xi: 0.0 * x * xi, 0.7), np.sin(GRID.nodes))
        assert np.array_equal(psi, np.sin(GRID.nodes))

    def test_rank_one_constant(self):
        psi = solve_direct(_system(lambda x, xi: _ones(x * xi), 0.5), _ones(GRID.nodes))
        assert np.max(np.abs(psi - 2.0)) < 1e-12

    def test_regularized_canonical_form(self):
        # alpha psi + A psi = f in canonical form psi = -(1/alpha) A psi + f/alpha;
        # oracle: eigen-expansion with lambda_n = (n pi)^2, psi_n = sqrt2 sin(n pi x)
        alpha = 0.1
        psi = solve_direct(_system(tri_green, -1.0 / alpha, diag_split=True),
                           np.sin(np.pi * GRID.nodes) / alpha)
        exact = np.pi ** 2 / (1.0 + alpha * np.pi ** 2) * np.sin(np.pi * GRID.nodes)
        assert np.max(np.abs(psi - exact)) < 1e-8

    def test_on_spectrum_raises(self):
        est = estimate_spectrum(tri_green, GRID)
        mu_hit = float(est.char_numbers[0])
        with pytest.raises(OnSpectrumError):
            _system(tri_green, mu_hit, diag_split=True)


class TestGateMu:
    @staticmethod
    def matrix(ratio):
        # I - A = diag(1, ratio): sigma_min / sigma_max = ratio at mu = 1
        return np.diag([0.0, 1.0 - ratio])

    def test_given_mu_gated_at_the_hard_bound(self):
        A = self.matrix(1e-8)
        mu, M = gate_mu(A, 1.0)
        assert mu == 1.0 and np.array_equal(M, np.eye(2) - A)
        with pytest.raises(OnSpectrumError):
            gate_mu(self.matrix(1e-12), 1.0)

    def test_probe_keeps_the_wider_margin(self, monkeypatch):
        monkeypatch.setattr(fredholm2, "DEFAULT_MU_CANDIDATES", (1.0,))
        with pytest.raises(NoValidMuError):
            gate_mu(self.matrix(1e-8))
        monkeypatch.setattr(fredholm2, "DEFAULT_MU_CANDIDATES", (1.0, 0.5))
        assert gate_mu(self.matrix(1e-8))[0] == 0.5

    def test_default_candidates(self):
        assert gate_mu(np.zeros((2, 2)))[0] == DEFAULT_MU_CANDIDATES[0]

    def test_gated_matrix_is_solved_without_a_second_check(self, monkeypatch):
        _, M = gate_mu(operator_matrix(tri_green, GRID, diag_split=True), 0.5)
        monkeypatch.setattr(np.linalg, "svd", None)
        rhs = np.sin(GRID.nodes)
        assert np.array_equal(solve_direct(M, rhs), np.linalg.solve(M, rhs))


class TestEstimateSpectrum:
    def test_triangular_kernel(self):
        est = estimate_spectrum(tri_green, GRID)
        assert abs(est.char_numbers[0] - np.pi ** 2) / np.pi ** 2 < 1e-3
        x = GRID.nodes
        dev = np.min([GRID.l2_norm(est.eigenfunctions[0].values - s * np.sqrt(2) * np.sin(np.pi * x))
                      for s in (1.0, -1.0)])
        assert dev < 1e-6

    def test_poisson_restricted_char_numbers(self):
        grid2 = gauss_legendre(64, -1.0, 1.0)
        r = 0.5
        kern = lambda x, xi: (1 - r * r) / (1 - 2 * r * np.cos(2 * np.pi * (x - xi)) + r * r)
        est = estimate_spectrum(kern, grid2)
        expected = np.array([0.5, 1.0, 1.0, 2.0, 2.0])
        assert np.max(np.abs(est.char_numbers[:5] - expected) / expected) < 1e-3

    def test_rank_one(self):
        est = estimate_spectrum(lambda x, xi: _ones(x * xi), GRID)
        _assert_rank_one(est)

    # the rounding floor of the product-integration assembly grows with n, so
    # a single grid size cannot show that the cutoff clears it
    @pytest.mark.parametrize("diag_split", [True, False])
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_rank_one_across_grids(self, n, diag_split):
        est = estimate_spectrum(lambda x, xi: _ones(x * xi), gauss_legendre(n, 0.0, 1.0),
                                diag_split=diag_split)
        _assert_rank_one(est)

    def test_orthogonality(self):
        est = estimate_spectrum(tri_green, GRID)
        for i in range(6):
            for j in range(i):
                ip = np.sum(GRID.weights * est.eigenfunctions[i].values
                            * est.eigenfunctions[j].values)
                assert abs(ip) < 1e-8

    def test_normalization(self):
        est = estimate_spectrum(tri_green, GRID)
        for f in est.eigenfunctions:
            assert abs(f.l2_norm() - 1.0) < 1e-10

    def test_asymmetric_kernel_rejected(self):
        with pytest.raises(ConfigError):
            estimate_spectrum(lambda x, xi: x * (1 + 0.0 * xi), GRID)


def test_conditioning_grows_with_refinement():
    # unregularized first-kind Nystrom matrix of the triangular kernel
    conds = []
    for n in (8, 16, 32, 64):
        g = gauss_legendre(n, 0.0, 1.0)
        A = operator_matrix(tri_green, g)
        s = np.linalg.svd(A, compute_uv=False)
        conds.append(s[0] / s[-1])
    assert all(b >= a for a, b in zip(conds, conds[1:]))
