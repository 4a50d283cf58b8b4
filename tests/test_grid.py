from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredsolve import grid as grid_module
from fredsolve.errors import ConfigError, NonFiniteValueError
from fredsolve.grid import (MIN_PRODUCT_ORDER, Grid1D, GridFunction, _trig_table,
                            apply_operator, fourier_coeffs, gauss_legendre, interp_matrix,
                            kernel_fourier_coeffs, operator_matrix)
from fredsolve.problems import get_kernel, green_triangular
from fredsolve.reduction2d import reduce_membrane

from oracles import (apply_operator_rows, composite_gauss, kernel_fourier_coeffs_rows,
                     operator_matrix_rows, product_rows, row_rules, split_gauss, tri_green,
                     trig_table)

EPS = np.finfo(float).eps


def _gamma(k):
    return k * EPS / (1.0 - k * EPS)


def _trapezoid(n):
    w = np.full(n, 1.0 / (n - 1))
    w[[0, -1]] *= 0.5
    return Grid1D(np.linspace(0.0, 1.0, n), w, 0.0, 1.0)


# Gauss grids, where interp_matrix(x, s) is I, and two other node sets, where
# it is the barycentric map
GRIDS = {"gauss16": gauss_legendre(16, 0.0, 1.0), "gauss64": gauss_legendre(64, 0.0, 1.0),
         "gauss128": gauss_legendre(128, 0.0, 1.0), "trapezoid": _trapezoid(17),
         "panels": Grid1D(*split_gauss(0.0, 0.3, 1.0, 8), 0.0, 1.0)}


def _projection_oracle(n):
    # Pi[k, j] = (k + 1/2) P_k(t_j) v_j on the n-point Gauss rule of [-1, 1]
    t, v = np.polynomial.legendre.leggauss(n)
    return (np.arange(n) + 0.5)[:, None] * np.polynomial.legendre.legvander(t, n - 1).T * v


def _entry_bound(kernel, grid, volterra=False, quad_order=None):
    """(c, kappa, pi) with |A^_ij - A_ij| <= c kappa_i pi_j for both assemblies.

    Entry (i, j) sums the Q products kw_iq ell_j(z_iq) of row i's split rule
    (kernel values times weights kw, points z) with the grid's Lagrange basis
    ell_j.  In Legendre form ell_j(z) = sum_k (Pi L)_kj P_k(z^) with
    |P_k| <= 1 on [a, b], so |ell_j| <= pi_j = sum_k (|Pi| |L|)_kj, where
    Pi[k, j] = (k + 1/2) P_k(t_j) v_j and L = interp_matrix(x, s) (s the
    n-point Gauss nodes on [a, b]).  The modal assembly rounds three times
    per recurrence step (n steps), Q times in each moment sum, n times in
    each of its two products, and L carries the barycentric error below.
    The per-row oracle evaluates ell_j by the second barycentric formula,
    within gamma_{3n+4} (1 + Lambda) |ell_j| (Higham, IMA J. Numer. Anal. 24
    (2004), Thm 3.1 with f = e_j; Lambda bounds the Lebesgue function on the
    rule's points), then sums Q terms.  So each entry is within
    c kappa_i pi_j of the exact sum, c = gamma_N (1 + Lambda),
    N = 8n + Q + 4, kappa_i = sum_q |kw_iq|.
    """
    rows = list(product_rows(kernel, grid, volterra, quad_order))
    kappa = np.array([np.sum(np.abs(kw)) for _, kw in rows])
    lebesgue = max(np.max(np.sum(np.abs(interp_matrix(grid.nodes, zq)), axis=1))
                   for zq, _ in rows if zq.size)
    n = grid.n
    t = np.polynomial.legendre.leggauss(n)[0]
    L = interp_matrix(grid.nodes, 0.5 * (grid.b - grid.a) * t + 0.5 * (grid.a + grid.b))
    pi = np.sum(np.abs(_projection_oracle(n)) @ np.abs(L), axis=0)
    quad = 2 * max(int(quad_order or MIN_PRODUCT_ORDER), n)
    return _gamma(8 * n + quad + 4) * (1.0 + lebesgue), kappa, pi


def _green_moment(x, p):
    # int_0^1 green_triangular(x, xi) xi^p d xi
    return ((1 - x) * x ** (p + 2) / (p + 2)
            + x * (Fraction(1, p + 1) - Fraction(1, p + 2)
                   - x ** (p + 1) / (p + 1) + x ** (p + 2) / (p + 2)))


# kernel, Volterra branch, exact int k(x, xi) xi^p d xi over the rule's
# interval (evaluated in rational arithmetic at the float node x)
CLOSED_FORMS = {
    "green_triangular": (green_triangular, False, _green_moment),
    "x_minus_xi": (lambda x, xi: x - xi, False,
                   lambda x, p: x / (p + 1) - Fraction(1, p + 2)),
    "volterra_x_minus_xi": (lambda x, xi: x - xi, True,
                            lambda x, p: x ** (p + 2) / ((p + 1) * (p + 2))),
    "volterra_green_triangular": (green_triangular, True,
                                  lambda x, p: (1 - x) * x ** (p + 2) / (p + 2)),
}

# kinked kernels of the product-integration rule: the string influence
# kernel, the ODE Fredholm reduction's kernel (a = 1 + x^2), the membrane
# tau1 at one y, and the Volterra kernel x - xi
SPLIT_KERNELS = {
    "green_triangular": green_triangular,
    "ode_fredholm": lambda x, xi: (1.0 + x * x) * np.where(xi <= x, -(1.0 - x), -(1.0 - xi)),
    "membrane_tau1": lambda x, xi: reduce_membrane().tau1(x, 0.3, xi),
    "x_minus_xi": lambda x, xi: x - xi,
}


class TestGaussLegendre:
    def test_midpoint_rule(self):
        g = gauss_legendre(1, 0.0, 1.0)
        assert g.nodes[0] == pytest.approx(0.5, abs=1e-15)
        assert g.weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_two_point_rule(self):
        g = gauss_legendre(2, -1.0, 1.0)
        assert np.allclose(g.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        assert np.allclose(g.weights, [1.0, 1.0], atol=1e-15)

    def test_degree_three_exactness(self):
        g = gauss_legendre(2, 0.0, 1.0)
        assert np.sum(g.weights * g.nodes ** 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            gauss_legendre(0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            gauss_legendre(4, 1.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=12), data=st.data())
    def test_polynomial_exactness(self, n, data):
        # exact for any polynomial of degree <= 2n - 1
        deg = data.draw(st.integers(min_value=0, max_value=2 * n - 1))
        coeffs = data.draw(st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False),
            min_size=deg + 1, max_size=deg + 1))
        poly = np.polynomial.Polynomial(coeffs)
        g = gauss_legendre(n, 0.0, 1.0)
        exact = poly.integ()(1.0) - poly.integ()(0.0)
        assert np.sum(g.weights * poly(g.nodes)) == pytest.approx(exact, abs=1e-12)

    def test_weights_sum_to_length(self):
        for n in (1, 5, 64):
            g = gauss_legendre(n, -1.0, 0.0)
            assert abs(g.weights.sum() - 1.0) <= 1e-12


class TestGridInvariants:
    def test_rejects_decreasing_nodes(self):
        with pytest.raises(ConfigError):
            Grid1D(np.array([0.5, 0.2]), np.array([0.5, 0.5]), 0.0, 1.0)

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ConfigError):
            Grid1D(np.array([0.2, 0.5]), np.array([0.5, 0.6]), 0.0, 1.0)

    def test_panels_grid_valid(self):
        g = Grid1D(*split_gauss(0.0, 0.3, 1.0, 16), 0.0, 1.0)
        assert abs(g.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(g.nodes) > 0)


class TestFourierCoeffs:
    # c = [c0 | cos 1..N | sin 1..N], the layout of kernel_fourier_coeffs's P
    def test_pure_sine(self):
        c = fourier_coeffs(lambda x: np.sin(2 * np.pi * x), N=4)
        assert c.shape == (9,)
        assert c[5] == pytest.approx(1.0, abs=1e-10)
        assert abs(c[0]) < 1e-10
        assert np.max(np.abs(c[1:5])) < 1e-10
        assert np.max(np.abs(c[6:])) < 1e-10

    def test_constant(self):
        c = fourier_coeffs(lambda x: np.ones_like(x), N=3)
        assert c[0] == pytest.approx(2.0, abs=1e-12)
        assert np.max(np.abs(c[1:4])) < 1e-12 and np.max(np.abs(c[4:])) < 1e-12

    def test_second_cosine(self):
        c = fourier_coeffs(lambda x: np.cos(4 * np.pi * x), N=4)
        assert c[2] == pytest.approx(1.0, abs=1e-10)
        assert abs(c[0]) < 1e-10 and abs(c[1]) < 1e-10

    def test_parseval_spot_check(self):
        f = lambda x: np.sin(2 * np.pi * x) + 3.0 * np.cos(6 * np.pi * x)
        c = fourier_coeffs(f, N=4)
        g = gauss_legendre(64, 0.0, 1.0)
        energy = g.l2_norm(f(g.nodes)) ** 2
        assert energy == pytest.approx((c[5] ** 2 + c[3] ** 2) / 2.0, abs=1e-8)

    def test_round_trip_through_the_table(self):
        f = lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x) - np.sin(4 * np.pi * x)
        c = fourier_coeffs(f, N=2)
        assert np.allclose(c, [2.0, 0.5, 0.0, 0.0, -1.0], rtol=0.0, atol=1e-14)
        x = np.linspace(0, 1, 7)
        T = _trig_table(x, np.arange(1, 3), ones=True)
        assert np.array_equal(T, trig_table(x, 2))
        assert np.allclose(T @ np.r_[0.5 * c[0], c[1:]], f(x), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("N", [0, -2])
    def test_order_below_one_refused(self, N):
        with pytest.raises(ConfigError, match="N >= 1"):
            fourier_coeffs(np.sin, N)

    def test_non_finite_coefficients_refused(self):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValueError,
                                                      match="non-finite Fourier"):
            fourier_coeffs(lambda x: np.exp(1000.0 * x), N=3)


@lru_cache(maxsize=None)
def _moment_reference(name):
    # the per-row oracle at q = 512 and N = 16, far past both routes' aliasing
    return kernel_fourier_coeffs_rows(SPLIT_KERNELS[name], 16, 512)


def _harmonics(P, N, N_full=16):
    # the [1 | cos 1..N | sin 1..N] rows and columns of an N_full moment matrix
    idx = np.r_[0, 1:N + 1, N_full + 1:N_full + N + 1]
    return P[np.ix_(idx, idx)]


class TestKernelFourierCoeffs:
    # P is (2N+1)-square: row a the harmonic in x, column b the harmonic in xi,
    # each ordered [1 | cos(2n pi .) | sin(2n pi .)]
    def test_constant_kernel(self):
        P = kernel_fourier_coeffs(lambda x, xi: np.ones(np.broadcast(x, xi).shape), N=3)
        assert P.shape == (7, 7)
        assert P[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(P.ravel()[1:])) < 1e-10

    def test_separable_cosine(self):
        P = kernel_fourier_coeffs(lambda x, xi: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * xi), N=3)
        assert P[1, 1] == pytest.approx(0.5, abs=1e-10)
        P[1, 1] = 0.0
        assert np.max(np.abs(P)) < 1e-10

    def test_triangular_p00_against_quadrature_oracle(self):
        # oracle: inner xi-integral split at the kink, outer 96-point Gauss;
        # analytically 2 * int x(1-x)/2 dx = 1/6
        xo, wo = np.polynomial.legendre.leggauss(96)
        xo = 0.5 * xo + 0.5
        wo = 0.5 * wo
        acc = 0.0
        for x, w in zip(xo, wo):
            zq, zw = split_gauss(0.0, x, 1.0, 96)
            acc += w * np.sum(zw * tri_green(x, zq))
        oracle = 2.0 * acc
        P = kernel_fourier_coeffs(tri_green, N=2, diag_split=True)
        assert oracle == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert P[0, 0] == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("quad_order", [16, 24, 32, 48, 64, 128])
    @pytest.mark.parametrize("N", [4, 8, 16])
    @pytest.mark.parametrize("name", sorted(SPLIT_KERNELS))
    def test_split_moments_as_accurate_as_per_row_oracle(self, name, N, quad_order):
        # The modal moments integrate A's interpolant of each harmonic, the
        # oracle samples each harmonic on its own split rule; both lose
        # accuracy as N grows toward quad_order / 2.  Against a q = 512 reference the modal error
        # stays within 1.5 times the oracle's (1.25 at worst here), plus a
        # rounding floor of 64 eps max|P| where both are exact.
        ref = _harmonics(_moment_reference(name), N)
        got = kernel_fourier_coeffs(SPLIT_KERNELS[name], N, quad_order, diag_split=True)
        rows = kernel_fourier_coeffs_rows(SPLIT_KERNELS[name], N, quad_order)
        assert got.shape == rows.shape == (2 * N + 1, 2 * N + 1)
        err, err_rows = np.max(np.abs(got - ref)), np.max(np.abs(rows - ref))
        assert err <= 1.5 * err_rows + 64 * EPS * np.max(np.abs(ref))

    @pytest.mark.parametrize("quad_order", [16, 64])
    @pytest.mark.parametrize("name", ["poisson_r", "constant"])
    def test_plain_moments_match_kernel_matrix_within_rounding(self, name, quad_order):
        # plain rule: P = 2 (W T)^T (K W) T against 2 (W T)^T K (W T); each
        # product of the two q-term sums lies within gamma_{2q+2} of the exact
        # sum of |terms|, so the two differ by at most twice that
        kernel, N = get_kernel(name)[0], 8
        g = gauss_legendre(quad_order, 0.0, 1.0)
        WT = trig_table(g.nodes, N) * g.weights[:, None]
        K = np.asarray(kernel(g.nodes[:, None], g.nodes[None, :]), dtype=float)
        got = kernel_fourier_coeffs(kernel, N, quad_order)
        want = 2.0 * (WT.T @ K @ WT)
        bound = 2.0 * _gamma(2 * quad_order + 2) * 2.0 * (np.abs(WT).T @ np.abs(K) @ np.abs(WT))
        assert np.all(np.abs(got - want) <= bound)

    def test_symmetric_kernel_moment_symmetry(self):
        kern = lambda x, xi: np.exp(-np.abs(0.0 * x) ) * (1.0 + 0.3 * np.cos(2 * np.pi * (x - xi)))
        P = kernel_fourier_coeffs(kern, N=4)
        assert np.max(np.abs(P - P.T)) < 1e-8


class TestOperatorMatrix:
    def test_product_rows_match_plain_for_smooth_kernel(self):
        g = gauss_legendre(24, 0.0, 1.0)
        kern = lambda x, xi: np.cos(x) * np.sin(1.0 + xi)
        plain = operator_matrix(kern, g)
        split = operator_matrix(kern, g, diag_split=True)
        f = np.exp(g.nodes)
        assert np.max(np.abs(plain @ f - split @ f)) < 1e-12

    @pytest.mark.parametrize("volterra", [False, True])
    @pytest.mark.parametrize("quad_order", [None, 40])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("name", sorted(SPLIT_KERNELS))
    def test_rows_match_per_row_oracle_within_rounding(self, name, grid, quad_order, volterra):
        # quad_order is the oracle's own rule order (None: the production rule).
        # Every kernel here is piecewise linear in xi, so the production rule
        # and a 40-point one are both exact; each sum then lies within its own
        # rounding bound of the same exact value.
        kernel, g = SPLIT_KERNELS[name], GRIDS[grid]
        got = operator_matrix(kernel, g, diag_split=not volterra, volterra=volterra)
        want = operator_matrix_rows(kernel, g, volterra, quad_order)
        s_got, k_got, pi = _entry_bound(kernel, g, volterra)
        s_want, k_want, _ = _entry_bound(kernel, g, volterra, quad_order)
        tol = (s_got * np.linalg.norm(k_got) + s_want * np.linalg.norm(k_want)) * np.linalg.norm(pi)
        assert np.linalg.norm(got - want) <= tol

    @pytest.mark.parametrize("volterra", [False, True])
    def test_nodes_on_the_interval_ends(self, volterra):
        # trapezoid grid: the end rows drop a panel, the first Volterra row is empty
        g = GRIDS["trapezoid"]
        kernel = SPLIT_KERNELS["x_minus_xi"]
        got = operator_matrix(kernel, g, diag_split=not volterra, volterra=volterra)
        want = operator_matrix_rows(kernel, g, volterra)
        scale, kappa, pi = _entry_bound(kernel, g, volterra)
        assert np.all(np.abs(got - want) <= 2.0 * scale * np.outer(kappa, pi))
        if volterra:
            assert not np.any(got[0])
        else:
            assert np.all(np.any(got, axis=1))

    @pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_exact_on_polynomials_below_degree_n(self, case, grid):
        # the split rule is exact for (piecewise) polynomial integrands of
        # degree <= 2m - 1 and the grid interpolates g of degree < n exactly,
        # so only rounding separates A g from the integral
        (kernel, volterra, exact), g = CLOSED_FORMS[case], GRIDS[grid]
        A = operator_matrix(kernel, g, diag_split=not volterra, volterra=volterra)
        scale, kappa, pi = _entry_bound(kernel, g, volterra)
        gamma = _gamma(g.n + 2)
        for p in sorted({0, 1, 2, g.n // 2, g.n - 1}):
            gv = g.nodes ** p
            want = np.array([float(exact(Fraction(x), p)) for x in g.nodes])
            tol = (scale * kappa * (pi @ np.abs(gv)) + gamma * (np.abs(A) @ np.abs(gv))
                   + EPS * np.abs(want))
            assert np.all(np.abs(A @ gv - want) <= tol), p

    @pytest.mark.parametrize("ab", [(0.0, 1.0), (-1.0, 1.0), (0.25, 3.5)])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 128])
    def test_gauss_nodes_interpolate_to_themselves_exactly(self, n, ab):
        # the Gauss rule s of operator_matrix's projection, built here from leggauss
        a, b = ab
        t, _ = np.polynomial.legendre.leggauss(n)
        s = 0.5 * (b - a) * t + 0.5 * (a + b)
        assert np.array_equal(interp_matrix(gauss_legendre(n, a, b).nodes, s), np.eye(n))

    @pytest.mark.parametrize("volterra", [False, True])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_leading_axis_gives_one_matrix_per_index_bit_for_bit(self, grid, volterra):
        # kernel values (3, n, P) give a (3, n, n) stack from one moment sweep
        g, base = GRIDS[grid], SPLIT_KERNELS["green_triangular"]
        scales = np.array([0.5, 1.0, 2.5])
        kernel_at = lambda s: lambda x, xi: (1.0 + s * x) * base(x, xi)
        got = operator_matrix(kernel_at(scales[:, None, None]), g,
                              diag_split=not volterra, volterra=volterra)
        want = [operator_matrix(kernel_at(s), g, diag_split=not volterra, volterra=volterra)
                for s in scales]
        assert got.shape == (3, g.n, g.n)
        assert all(np.array_equal(got[b], want[b]) for b in range(3))

    @pytest.mark.parametrize("name", ["membrane_tau1", "green_triangular"])
    def test_rule_order_never_falls_below_the_grid(self, name):
        # 64 nodes get the 64-point rule; a 32-point rule misses membrane tau1
        # times P_63 (degree 64) and left the matrix 7.3e-3 off in 2-norm.  The
        # 128-point oracle is exact too, so each matrix lies within its
        # rounding bound of the same sums.
        g, kernel = GRIDS["gauss64"], SPLIT_KERNELS[name]
        got = operator_matrix(kernel, g, diag_split=True)
        ref = operator_matrix_rows(kernel, g, quad_order=128)
        s_got, k_got, pi = _entry_bound(kernel, g)
        s_ref, k_ref, _ = _entry_bound(kernel, g, quad_order=128)
        tol = (s_got * np.linalg.norm(k_got) + s_ref * np.linalg.norm(k_ref)) * np.linalg.norm(pi)
        assert np.linalg.norm(got - ref) <= tol

    def test_empty_volterra_row_ignores_a_non_finite_kernel_there(self):
        # x ln(x - xi) is NaN at (0, 0), the only point of the empty first row
        def kernel(x, xi):
            with np.errstate(divide="ignore", invalid="ignore"):
                return x * np.log(x - xi)

        A = operator_matrix(kernel, GRIDS["trapezoid"], volterra=True)
        assert np.all(np.isfinite(A)) and np.array_equal(A[0], np.zeros(A.shape[1]))

    def test_many_panel_grid_raises_instead_of_returning_nan(self):
        # one global interpolant through 4 panels of 16 nodes cancels to 0/0
        g = Grid1D(*composite_gauss(0.0, 1.0, 4, 16), 0.0, 1.0)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValueError, match="must be finite"):
            operator_matrix(green_triangular, g, diag_split=True)


class TestCaches:
    def test_gauss_rule_is_solved_once_and_read_only(self):
        t, v = grid_module._gauss_rule(12)
        assert grid_module._gauss_rule(12)[0] is t
        want = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(t, want[0]) and np.array_equal(v, want[1])
        assert not t.flags.writeable and not v.flags.writeable
        with pytest.raises(ValueError):
            t[0] = 0.0
        g = gauss_legendre(12, -1.0, 1.0)
        assert g.nodes.flags.writeable and not np.shares_memory(g.nodes, t)

    @pytest.mark.parametrize("n", [1, 2, 12, 64])
    def test_projection_is_built_once_per_order_and_read_only(self, n):
        proj = grid_module._projection(n)
        assert grid_module._projection(n) is proj
        assert np.array_equal(proj, _projection_oracle(n))
        assert not proj.flags.writeable
        with pytest.raises(ValueError):
            proj[0, 0] = 0.0

    def test_barycentric_weights_one_entry_per_node_set(self):
        x = gauss_legendre(20, 0.0, 1.0).nodes
        w = grid_module._bary_weights(x)
        assert grid_module._bary_weights(x.copy()) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        # node sets one ulp apart, and more of them than the cache holds
        sets = [x] + [np.where(np.arange(20) == k, np.nextafter(x, 2.0), x) for k in range(12)]
        for nodes in sets + sets[::-1]:
            got = grid_module._bary_weights(nodes)
            uncached = grid_module._bary_weights_of.__wrapped__(nodes.tobytes())
            assert np.array_equal(got, uncached)
        entries = [grid_module._bary_weights(nodes) for nodes in sets[-4:]]
        assert len({id(e) for e in entries}) == 4

    def test_one_node_interpolates_constants(self):
        assert np.array_equal(grid_module._bary_weights(np.array([0.3])), [1.0])
        assert np.array_equal(interp_matrix(np.array([0.3]), np.array([0.0, 0.3, 1.0])),
                              np.ones((3, 1)))


def _forward_bound(kernel, x, source, diag_split, order):
    """Per row, how far apply_operator from a grid source may lie from the
    per-row oracle.  Both add up the terms kw_q L_qj v_j of the same rule,
    with the same barycentric rows L_q: the oracle as sum_q kw_q (L_q v), the
    forward matrix as sum_j (sum_q kw_q L_qj) v_j.  Each is within
    gamma_{Q+n+1} sum_q |kw_q| (|L_q| |v|) of the exact double sum (Q rule
    points, n source nodes), so the two differ by at most twice that."""
    nodes, values = source.grid.nodes, np.abs(source.values)
    mags = [np.abs(kw) @ (np.abs(interp_matrix(nodes, zq)) @ values)
            for zq, kw in row_rules(kernel, x, 0.0, 1.0, diag_split, order)]
    return 2.0 * _gamma(2 * order + nodes.size + 1) * np.array(mags)


class TestApplyOperator:
    # rows at the interval ends, within 1e-14 of them (a degenerate panel is
    # dropped), inside, and outside (unsplit)
    X = np.concatenate(([0.0, 5e-15, 2e-14, 0.5, 1.0 - 5e-15, 1.0 - 2e-14, 1.0, -0.25, 1.5],
                        gauss_legendre(21, 0.0, 1.0).nodes))

    @staticmethod
    def psi(z):
        return np.sin(np.pi * z) + z * z

    @pytest.mark.parametrize("diag_split", [True, False])
    @pytest.mark.parametrize("quad_order", [13, 64, 100])
    def test_callable_rows_match_per_row_oracle_bit_for_bit(self, diag_split, quad_order):
        got = apply_operator(tri_green, self.X, self.psi, diag_split=diag_split,
                             quad_order=quad_order)
        want = apply_operator_rows(tri_green, self.X, self.psi, 0.0, 1.0, diag_split,
                                   quad_order)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("diag_split", [True, False])
    @pytest.mark.parametrize("quad_order", [13, 64, 100])
    def test_grid_rows_match_per_row_oracle_within_rounding(self, diag_split, quad_order):
        # the grid source's rule never falls below its 20 nodes
        g20 = gauss_legendre(20, 0.0, 1.0)
        source = GridFunction(g20, self.psi(g20.nodes))
        order = max(quad_order, 20)
        got = apply_operator(tri_green, self.X, source, diag_split=diag_split,
                             quad_order=quad_order)
        want = apply_operator_rows(tri_green, self.X, source, 0.0, 1.0, diag_split, order)
        bound = _forward_bound(tri_green, self.X, source, diag_split, order)
        assert np.all(np.abs(got - want) <= bound)

    def test_grid_rule_never_falls_below_the_source_grid(self):
        # the top Legendre mode of a 256-point grid: a 96-point rule per half
        # integrates it 3.0e3 relative off in L2, the 256-point rule exactly
        n = 256
        g = gauss_legendre(n, 0.0, 1.0)
        source = GridFunction(g, np.polynomial.legendre.Legendre.basis(n - 1)(2.0 * g.nodes - 1.0))
        x = gauss_legendre(96, 0.0, 1.0).nodes
        got = apply_operator(tri_green, x, source, diag_split=True, quad_order=96)
        want = apply_operator_rows(tri_green, x, source, 0.0, 1.0, True, n)
        assert np.all(np.abs(got - want) <= _forward_bound(tri_green, x, source, True, n))

    def test_kernel_and_source_evaluated_once(self):
        calls = {"kernel": 0, "source": 0}

        def kernel(x, xi):
            calls["kernel"] += 1
            return tri_green(x, xi)

        def source(z):
            calls["source"] += 1
            return self.psi(z)

        apply_operator(kernel, self.X, source, diag_split=True, quad_order=16)
        assert calls == {"kernel": 1, "source": 1}


@pytest.fixture()
def forward_cache(monkeypatch):
    """A fresh matrix cache at the production budget, the list of barycentric
    matrices built since (one per output row on a forward-matrix miss), and
    the list of Legendre moment sweeps run since (one per assembly miss)."""
    cache = grid_module._ForwardCache(grid_module._FORWARD_CACHE_BYTES)
    monkeypatch.setattr(grid_module, "_forward_cache", cache)
    built, sweeps = [], []
    interp = grid_module.interp_matrix
    monkeypatch.setattr(grid_module, "interp_matrix",
                        lambda nodes, targets: built.append(len(targets)) or interp(nodes, targets))
    moments = grid_module._legendre_moments
    monkeypatch.setattr(grid_module, "_legendre_moments",
                        lambda z, kw, n: sweeps.append(kw.shape) or moments(z, kw, n))
    return cache, built, sweeps


def _bumped_kernel(x, xi):
    # green_triangular with one kernel value changed, same shapes
    values = tri_green(x, xi)
    values[3, 5] += 1.0
    return values


def _nudged_grid():
    # the 20-point Gauss grid with one node moved by one ulp
    g = gauss_legendre(20, 0.0, 1.0)
    nodes = g.nodes.copy()
    nodes[7] = np.nextafter(nodes[7], 1.0)
    return Grid1D(nodes, g.weights, 0.0, 1.0)


def _widened_grid(a, b):
    # the 20-point Gauss grid's nodes on [a, b], weights rescaled to its length
    g = gauss_legendre(20, 0.0, 1.0)
    return Grid1D(g.nodes, g.weights * (b - a), a, b)


def _tau_stack(x, xi):
    # three kinked kernels at once, values (3, n, P) as the 2D tau stacks give
    return np.stack([tri_green(x, xi), 2.0 * tri_green(x, xi) + x * xi, x - xi])


class TestForwardCache:
    X = gauss_legendre(24, 0.0, 1.0).nodes

    def _apply(self, kernel=tri_green, grid=None, **options):
        grid = grid or gauss_legendre(20, 0.0, 1.0)
        source = GridFunction(grid, TestApplyOperator.psi(grid.nodes))
        return apply_operator(kernel, self.X, source,
                              **{"diag_split": True, "quad_order": 32, **options})

    @staticmethod
    def _assemble(kernel=tri_green, grid=None, min_order=MIN_PRODUCT_ORDER, **flags):
        # operator_matrix by product integration; min_order moves the rule order
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid_module, "MIN_PRODUCT_ORDER", min_order)
            return operator_matrix(kernel, grid or gauss_legendre(20, 0.0, 1.0),
                                   **{"diag_split": True, **flags})

    def test_warm_call_returns_the_cold_bits(self, forward_cache):
        _, built, _ = forward_cache
        cold = self._apply()
        assert len(built) == self.X.size
        warm = self._apply()
        assert len(built) == self.X.size
        assert np.array_equal(cold, warm)

    @pytest.mark.parametrize("kernel, flags, n", [
        (tri_green, {}, 20), (tri_green, {}, 128), (tri_green, {"volterra": True}, 20),
        (tri_green, {"diag_split": False, "volterra": True}, 64), (_tau_stack, {}, 20)],
        ids=["diag_split", "diag_split_128", "volterra", "volterra_only_64", "stack"])
    def test_warm_assembly_returns_the_cold_bits(self, forward_cache, kernel, flags, n):
        _, _, sweeps = forward_cache
        g = gauss_legendre(n, 0.0, 1.0)
        cold = self._assemble(kernel, g, **flags)
        warm = self._assemble(kernel, g, **flags)
        assert len(sweeps) == 1
        assert cold.shape == warm.shape and np.array_equal(cold, warm)
        assert warm.flags.writeable and not np.shares_memory(cold, warm)

    @pytest.mark.parametrize("route, change", [
        ("forward", {"kernel": _bumped_kernel}), ("forward", {"grid": _nudged_grid()}),
        ("forward", {"diag_split": False}), ("forward", {"quad_order": 40}),
        ("moments", {"kernel": _bumped_kernel}), ("moments", {"grid": _nudged_grid()}),
        ("moments", {"grid": _widened_grid(-0.25, 1.0)}),
        ("moments", {"grid": _widened_grid(0.0, 1.25)}),
        ("moments", {"volterra": True}), ("moments", {"diag_split": False, "volterra": True}),
        ("moments", {"min_order": 32})],
        ids=["kernel_value", "node_ulp", "diag_split", "order",
             "moments_kernel_value", "moments_node_ulp", "moments_a", "moments_b",
             "moments_volterra", "moments_diag_split", "moments_order"])
    def test_no_stale_hit(self, forward_cache, monkeypatch, route, change):
        # a miss builds one barycentric matrix per output row, or one moment sweep
        _, built, sweeps = forward_cache
        call, builds = {"forward": (self._apply, lambda: len(built) / self.X.size),
                        "moments": (self._assemble, lambda: len(sweeps))}[route]
        want = call(**change)
        base = call()
        monkeypatch.setattr(grid_module, "_forward_cache",
                            grid_module._ForwardCache(grid_module._FORWARD_CACHE_BYTES))
        assert np.array_equal(call(), base)
        before = builds()
        assert np.array_equal(call(**change), want)
        assert builds() == before + 1
        # and the base call keeps its bits
        assert np.array_equal(call(), base)

    def test_two_kernels_on_one_grid_both_hit(self, forward_cache):
        # like the 2D reductions' tau1 and tau2: one geometry, two sets of kernel values
        cache, _, sweeps = forward_cache
        kernels = (tri_green, lambda x, xi: 2.0 * tri_green(x, xi) + x * xi)
        cold = [self._assemble(kernel) for kernel in kernels]
        assert len(sweeps) == 2 and len(cache._entries) == 2
        for _ in range(3):
            for kernel, want in zip(kernels, cold):
                assert np.array_equal(self._assemble(kernel), want)
        assert len(sweeps) == 2

    def test_a_closure_whose_values_change_gets_a_new_matrix(self, forward_cache, monkeypatch):
        # an anonymous kernel is keyed by its values, evaluated on every call
        scale = [1.0]

        def kernel(x, xi):
            return scale[0] * tri_green(x, xi)

        before = (self._assemble(kernel), self._apply(kernel))
        scale[0] = 2.0
        after = (self._assemble(kernel), self._apply(kernel))
        monkeypatch.setattr(grid_module, "_forward_cache",
                            grid_module._ForwardCache(grid_module._FORWARD_CACHE_BYTES))
        fresh = (self._assemble(kernel), self._apply(kernel))
        for old, new, want in zip(before, after, fresh):
            assert np.array_equal(new, want) and not np.array_equal(new, old)

    def test_two_poisson_radii_never_share_an_entry(self, forward_cache, monkeypatch):
        # a registered kernel is a value: a new lookup of one radius hits that
        # radius's A, B and free-term rule without evaluating the kernel
        cache, _, _ = forward_cache
        rules = []
        row_rule = grid_module._row_rule
        monkeypatch.setattr(grid_module, "_row_rule",
                            lambda *args: rules.append(args[0]) or row_rule(*args))

        def calls(kernel):
            return (self._assemble(kernel), self._apply(kernel),
                    apply_operator(kernel, self.X, TestApplyOperator.psi, quad_order=16))

        cold = {r: calls(get_kernel("poisson_r", r=r)[0]) for r in (0.5, 0.9)}
        assert len(cache._entries) == len(rules) == 6
        assert {key[-1] for key in cache._entries} == {get_kernel("poisson_r", r=r)[0]
                                                      for r in (0.5, 0.9)}
        for r in (0.9, 0.5):
            for warm, want in zip(calls(get_kernel("poisson_r", r=r)[0]), cold[r]):
                assert np.array_equal(warm, want)
        assert len(rules) == 6
        assert not any(np.array_equal(a, b) for a, b in zip(cold[0.5], cold[0.9]))

    def test_writing_into_the_matrix_leaves_the_next_call(self, forward_cache):
        cold = self._assemble()
        want = cold.copy()
        cold[...] = np.nan
        warm = self._assemble()
        assert np.array_equal(warm, want)
        warm += 1.0
        assert np.array_equal(self._assemble(), want)

    @pytest.mark.parametrize("route", ["forward", "moments"])
    def test_stored_matrices_are_read_only(self, forward_cache, route):
        cache, _, _ = forward_cache
        {"forward": self._apply, "moments": self._assemble}[route]()
        (kw, B), = cache._entries.values()
        for stored in (kw, B):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0, 0] = 0.0

    def test_budget_bounds_the_stored_bytes(self, forward_cache, monkeypatch):
        cache, _, _ = forward_cache
        self._apply()
        size = cache._bytes
        for budget, kept in ((size - 1, 0), (size, 1), (2 * size + size // 2, 2)):
            small = grid_module._ForwardCache(budget)
            monkeypatch.setattr(grid_module, "_forward_cache", small)
            for lo in (0.0, -0.25, -0.5):
                self._apply(grid=gauss_legendre(20, lo, 1.0))
            assert len(small._entries) == kept and small._bytes <= budget
        # the least recently used entry went first
        assert [key[4] for key in small._entries] == [
            gauss_legendre(20, lo, 1.0).nodes.tobytes() for lo in (-0.25, -0.5)]
