import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredsolve import grid
from fredsolve.errors import ConfigError, NonFiniteValueError
from fredsolve.grid import apply_operator, gauss_legendre
from fredsolve.problems import (NoiseSpec, get_kernel, green_triangular,
                                load_tabulated_kernel, make_manufactured, perturb,
                                registered_kernels)

# the forward map as the forward command takes it: f on the q-point Gauss grid,
# each point's integral by a rule of q points per panel
Q = 64
X = gauss_legendre(Q, 0.0, 1.0).nodes


def forward(kernel, psi, diag_split=False):
    return apply_operator(kernel, X, psi, diag_split=diag_split, quad_order=Q)


class TestForwardApply:
    def test_triangular_sine(self):
        f = forward(green_triangular, lambda x: np.sin(np.pi * x), diag_split=True)
        expected = np.sin(np.pi * X) / np.pi ** 2
        assert np.max(np.abs(f - expected)) < 1e-8

    def test_zero_input(self):
        f = forward(green_triangular, lambda x: 0.0 * x, diag_split=True)
        assert np.max(np.abs(f)) == 0.0

    def test_constant_kernel_constant_input(self):
        f = forward(lambda x, xi: np.ones_like(xi), lambda x: np.ones_like(x))
        assert np.max(np.abs(f - 1.0)) < 1e-13

    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(-3, 3, allow_nan=False), b=st.floats(-3, 3, allow_nan=False))
    def test_linearity(self, a, b):
        psi1 = lambda x: np.sin(np.pi * x)
        psi2 = lambda x: x * x
        combo = lambda x: a * psi1(x) + b * psi2(x)
        lhs = forward(green_triangular, combo, diag_split=True)
        f1 = forward(green_triangular, psi1, diag_split=True)
        f2 = forward(green_triangular, psi2, diag_split=True)
        assert np.max(np.abs(lhs - a * f1 - b * f2)) < 1e-10


class TestManufactured:
    def test_m1_sine(self):
        prob = make_manufactured("green_triangular", lambda x: np.sin(np.pi * x))
        x = np.linspace(0, 1, 33)
        assert np.max(np.abs(prob.free_term(x) - np.sin(np.pi * x) / np.pi ** 2)) < 1e-8

    def test_constant(self):
        prob = make_manufactured("constant", lambda x: np.ones_like(x))
        x = np.linspace(0, 1, 9)
        assert np.max(np.abs(prob.free_term(x) - 1.0)) < 1e-12
        assert np.max(np.abs(prob.psi_star(x) - 1.0)) == 0.0

    def test_parabola_against_spectral_oracle(self):
        # eigen-expansion of x(1-x): coefficients 8/(n pi)^3 on sqrt2-free sines,
        # forward map divides each by (n pi)^2
        prob = make_manufactured("green_triangular", lambda x: x * (1.0 - x))
        x = np.linspace(0, 1, 41)
        oracle = np.zeros_like(x)
        for n in range(1, 80, 2):
            oracle += 8.0 / (n * np.pi) ** 3 / (n * np.pi) ** 2 * np.sin(n * np.pi * x)
        assert np.max(np.abs(prob.free_term(x) - oracle)) < 1e-8

    def test_round_trip(self):
        prob = make_manufactured("green_triangular", lambda x: np.sin(np.pi * x))
        f2 = forward(prob.kernel, prob.psi_star, diag_split=prob.diag_split)
        assert np.max(np.abs(f2 - prob.free_term(X))) < 1e-8

    def test_boundary_values_vanish(self):
        prob = make_manufactured("green_triangular", lambda x: np.exp(x))
        assert abs(float(prob.free_term(np.array([0.0]))[0])) < 1e-12
        assert abs(float(prob.free_term(np.array([1.0]))[0])) < 1e-12

    def test_unknown_kernel(self):
        with pytest.raises(ConfigError):
            make_manufactured("nope", lambda x: x)


class TestPerturb:
    def _base(self):
        return make_manufactured("green_triangular", lambda x: np.sin(np.pi * x))

    def test_zero_epsilon_identical(self):
        prob = self._base()
        noisy = perturb(prob, NoiseSpec(0.0, np.pi))
        x = np.linspace(0, 1, 17)
        assert np.array_equal(np.asarray(noisy.free_term(x)), np.asarray(prob.free_term(x)))
        assert noisy.psi_star is None

    def test_pointwise_shift(self):
        prob = self._base()
        noisy = perturb(prob, NoiseSpec(0.01, np.pi))
        x0 = np.array([0.0, 0.5])
        base = np.asarray(prob.free_term(x0))
        shifted = np.asarray(noisy.free_term(x0))
        assert shifted[0] == pytest.approx(base[0], abs=1e-15)
        assert shifted[1] - base[1] == pytest.approx(0.01, abs=1e-12)

    def test_l2_norm_of_shift(self):
        prob = self._base()
        eps, omega = 3e-3, 7.3
        noisy = perturb(prob, NoiseSpec(eps, omega))
        g = gauss_legendre(96, 0.0, 1.0)
        diff = np.asarray(noisy.free_term(g.nodes)) - np.asarray(prob.free_term(g.nodes))
        # analytic L2 norm of eps sin(omega x) on [0, 1]
        exact = eps * np.sqrt(0.5 - np.sin(2 * omega) / (4 * omega))
        assert g.l2_norm(diff) == pytest.approx(exact, abs=1e-10)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(-1.0, 1.0)

    @pytest.mark.parametrize("eps,omega", [(np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan),
                                           (1e-3, -np.inf)])
    def test_non_finite_rejected(self, eps, omega):
        with pytest.raises(NonFiniteValueError):
            NoiseSpec(eps, omega)


class TestRegistry:
    def test_triangular_values(self):
        assert float(green_triangular(0.25, 0.75)) == pytest.approx(0.0625, abs=1e-15)
        assert float(green_triangular(0.7, 0.2)) == pytest.approx(0.06, abs=1e-15)
        assert float(green_triangular(0.2, 0.7)) == pytest.approx(0.06, abs=1e-15)

    def test_poisson_r_diagonal(self):
        kern, split = get_kernel("poisson_r", r=0.5)
        assert not split
        assert float(kern(0.3, 0.3)) == pytest.approx(3.0, abs=1e-14)

    def test_listing(self):
        table = registered_kernels()
        assert "green_triangular" in table and "tabulated" in table
        extra = registered_kernels({"tabulated": "grid CSV at /data/k.csv"})
        assert "/data/k.csv" in extra["tabulated"]

    def test_tabulated_bilinear(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("x,0.0,0.5,1.0\n0.0,0,1,2\n0.5,1,2,3\n1.0,2,3,4\n")
        kern = load_tabulated_kernel(str(path))
        assert float(kern(0.0, 0.5)) == pytest.approx(1.0, abs=1e-14)
        assert float(kern(0.25, 0.25)) == pytest.approx(1.0, abs=1e-14)   # bilinear midpoint
        assert float(kern(1.0, 1.0)) == pytest.approx(4.0, abs=1e-14)

    def test_two_loads_of_one_table_are_one_value(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("x,0.0,0.5,1.0\n0.0,0,1,2\n0.5,1,2,3\n1.0,2,3,4\n")
        first, second = (load_tabulated_kernel(str(path)) for _ in range(2))
        assert first is not second and first == second and hash(first) == hash(second)

    def test_a_table_that_differs_in_one_value_gets_its_own_entry(self, tmp_path, monkeypatch):
        cache = grid._ForwardCache(grid._FORWARD_CACHE_BYTES)
        monkeypatch.setattr(grid, "_forward_cache", cache)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, cell in zip(paths, ("2", "2.5")):
            path.write_text(f"x,0.0,0.5,1.0\n0.0,0,1,2\n0.5,1,{cell},3\n1.0,2,3,4\n")
        x = gauss_legendre(8, 0.0, 1.0).nodes

        def apply(path):
            return apply_operator(load_tabulated_kernel(str(path)), x, np.cos, quad_order=16)

        cold = [apply(path) for path in paths]
        assert len(cache._entries) == 2 and not np.array_equal(*cold)
        for path, want in zip(paths, cold):
            assert np.array_equal(apply(path), want)
        assert len(cache._entries) == 2

    def test_tabulated_requires_path(self):
        with pytest.raises(ConfigError):
            get_kernel("tabulated")
