import numpy as np
import pytest

from fredsolve import kernels
from fredsolve.errors import ConfigError, ParameterExclusionError
from fredsolve.grid import Grid1D, gauss_legendre
from fredsolve.kernels import PoissonParams, kernel_matrix, poisson_h

from oracles import composite_gauss, series_coeffs, series_kernel

P = PoissonParams.create(r=0.5, lam=0.2)
# [-1, 1] as two 128-point Gauss panels, split where the resolvents' half
# intervals meet
FULL = Grid1D(*composite_gauss(-1.0, 1.0, 2, 128), -1.0, 1.0)


@pytest.fixture()
def lambda_zero(monkeypatch):
    """Admit lambda = 0, which the exclusion check refuses."""
    monkeypatch.setattr(kernels, "MIN_REL_DIST", 0.0)


def h_series(p, x, xi):
    """kernel_matrix's factored h series: at lambda = 0 the H coefficients are
    r^n / (1 - 0) = r^n and its constant 1, exactly those of h."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "MIN_REL_DIST", 0.0)
        p0 = PoissonParams.create(r=p.r, lam=0.0, n_trunc=p.n_trunc, series_tol=p.series_tol)
    return kernel_matrix("H", p0, x, xi)


class TestPoissonParams:
    def test_truncation_satisfies_tail_bound(self):
        p = PoissonParams.create(r=0.7, series_tol=1e-12)
        assert 2.0 * 0.7 ** (p.n_trunc + 1) / 0.3 <= 1e-12

    def test_lambda_square_pinned(self):
        assert PoissonParams.create(lam=0.2).Lambda == 0.2 * 0.2

    def test_r_range(self):
        with pytest.raises(ConfigError):
            PoissonParams.create(r=1.0)


class TestPoissonH:
    def test_coincident_arguments(self):
        assert poisson_h(0.3, 0.3, P) == pytest.approx(3.0, abs=1e-14)

    def test_antipodal_arguments(self):
        assert poisson_h(0.75, 0.25, P) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_unit_mass(self):
        g = gauss_legendre(64, 0.0, 1.0)
        for x in (0.0, 0.21, 0.5, 0.93):
            assert float(poisson_h(x, g.nodes, P) @ g.weights) == pytest.approx(1.0, abs=1e-10)

    def test_positive(self):
        u = np.linspace(-2, 2, 101)
        for r in (0.1, 0.5, 0.9):
            p = PoissonParams.create(r=r)
            assert np.all(poisson_h(u, 0.0, p) > 0)

    def test_symmetry_exact(self):
        x = np.linspace(0, 1, 11)
        xi = np.linspace(0, 1, 9)
        A = poisson_h(x[:, None], xi[None, :], P)
        B = poisson_h(xi[:, None], x[None, :], P)
        assert np.array_equal(A, B.T)


class TestPoissonSeries:
    def test_no_terms_is_refused(self):
        with pytest.raises(ConfigError):
            PoissonParams.create(r=0.5, n_trunc=0)

    def test_r_tiny_is_one(self):
        p = PoissonParams.create(r=1e-15)
        assert h_series(p, [0.2], [0.7])[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_tail_bound_against_closed_form(self):
        # geometric tail: |partial sum - closed form| <= 2 r^(N+1) / (1 - r)
        xs = np.linspace(0.0, 1.0, 101)
        N = 40
        bound = 2.0 * 0.5 ** (N + 1) / 0.5
        p = PoissonParams.create(r=0.5, n_trunc=N, series_tol=bound)
        dev = np.abs(h_series(p, xs, [0.3])[:, 0] - poisson_h(xs, 0.3, P))
        assert np.max(dev) <= bound + 1e-15


class TestEigenAction:
    def test_full_interval(self):
        g = Grid1D(*composite_gauss(-1.0, 1.0, 2, 64), -1.0, 1.0)
        for n in range(1, 9):
            lhs = (poisson_h(np.linspace(0, 1, 33)[:, None], g.nodes[None, :], P)
                   * g.weights[None, :]) @ np.cos(2 * n * np.pi * g.nodes)
            rhs = 2.0 * 0.5 ** n * np.cos(2 * n * np.pi * np.linspace(0, 1, 33))
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_half_interval(self):
        g = gauss_legendre(64, 0.0, 1.0)
        xs = np.linspace(0, 1, 33)
        for n in range(1, 9):
            lhs = (poisson_h(xs[:, None], g.nodes[None, :], P)
                   * g.weights[None, :]) @ np.cos(2 * n * np.pi * g.nodes)
            rhs = 0.5 ** n * np.cos(2 * n * np.pi * xs)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestResolventH:
    def test_lambda_zero_matches_poisson_series(self, lambda_zero):
        p = PoissonParams.create(r=0.5, lam=0.0)
        xs = np.linspace(0, 1, 21)
        dev = kernel_matrix("H", p, xs, [0.4]) \
            - series_kernel("h", p, xs[:, None], 0.4)
        assert np.max(np.abs(dev)) <= _series_rounding_bound("h", p, xs, [0.4])

    def test_r_tiny_constant(self):
        p = PoissonParams.create(r=1e-15, lam=0.25)
        assert kernel_matrix("H", p, [0.3], [0.8])[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_resolvent_identity(self):
        # H = h + lam * int_{-1}^{1} h(x, z) H(z, xi) dz on a 33 x 33 sample
        g = FULL
        s = np.linspace(-1, 1, 33)
        H_ss = kernel_matrix("H", P, s, s)
        h_sq = poisson_h(s[:, None], g.nodes[None, :], P)
        H_qs = kernel_matrix("H", P, g.nodes, s)
        residual = H_ss - (poisson_h(s[:, None], s[None, :], P)
                           + P.lam * (h_sq * g.weights[None, :]) @ H_qs)
        assert np.max(np.abs(residual)) < 1e-8

    def test_excluded_lambda_raises(self):
        with pytest.raises(ParameterExclusionError):
            kernel_matrix("H", PoissonParams.create(r=0.5, lam=0.5), [0.1], [0.2])


class TestKernelL:
    def test_lambda_zero_is_poisson_at_r_squared(self, lambda_zero):
        p = PoissonParams.create(r=0.5, lam=0.0)
        p_rsq = PoissonParams.create(r=0.25, lam=0.0)
        xs = np.linspace(0, 1, 21)
        dev = kernel_matrix("l", p, xs, [0.3]) \
            - series_kernel("h", p_rsq, xs[:, None], 0.3)
        assert np.max(np.abs(dev)) < 1e-12

    def test_constant_part(self):
        g = gauss_legendre(64, 0.0, 1.0)
        val = float(kernel_matrix("l", P, [0.37], g.nodes)[0] @ g.weights)
        assert val == pytest.approx(1.0 / 0.6, abs=1e-10)

    def test_equals_half_interval_composition(self):
        # l(x, xi) = int_{-1}^{0} h(x, z) H(z, xi) dz
        g = gauss_legendre(128, -1.0, 0.0)
        s = np.linspace(0, 1, 33)
        lhs = kernel_matrix("l", P, s, s)
        rhs = (poisson_h(s[:, None], g.nodes[None, :], P) * g.weights[None, :]) \
            @ kernel_matrix("H", P, g.nodes, s)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


class TestResolventL:
    def test_lambda_zero_matches_kernel_l(self, lambda_zero):
        p = PoissonParams.create(r=0.5, lam=0.0)
        xs = np.linspace(0, 1, 21)
        dev = kernel_matrix("L", p, xs, [0.6]) \
            - kernel_matrix("l", p, xs, [0.6])
        assert np.max(np.abs(dev)) < 1e-12

    def test_constant_part(self):
        g = gauss_legendre(64, 0.0, 1.0)
        val = float(kernel_matrix("L", P, [0.62], g.nodes)[0] @ g.weights)
        assert val == pytest.approx(1.0 / 0.56, abs=1e-10)

    def test_resolvent_identity(self):
        # L = l + Lambda int_0^1 l(x, z) L(z, xi) dz
        g = gauss_legendre(128, 0.0, 1.0)
        s = np.linspace(0, 1, 33)
        lhs = kernel_matrix("L", P, s, s)
        rhs = kernel_matrix("l", P, s, s) + P.Lambda * (
            (kernel_matrix("l", P, s, g.nodes) * g.weights[None, :])
            @ kernel_matrix("L", P, g.nodes, s))
        assert np.max(np.abs(lhs - rhs)) < 1e-8


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("lam", [-0.3, 0.2, 0.35])
def test_resolvent_identities_on_lattice(r, lam):
    p = PoissonParams.create(r=r, lam=lam)
    s = np.linspace(-1, 1, 17)
    g = FULL
    residual_H = kernel_matrix("H", p, s, s) - (
        poisson_h(s[:, None], s[None, :], p)
        + lam * (poisson_h(s[:, None], g.nodes[None, :], p) * g.weights[None, :])
        @ kernel_matrix("H", p, g.nodes, s))
    assert np.max(np.abs(residual_H)) < 1e-8
    s1 = np.linspace(0, 1, 17)
    g1 = gauss_legendre(128, 0.0, 1.0)
    residual_L = kernel_matrix("L", p, s1, s1) - (
        kernel_matrix("l", p, s1, s1)
        + p.Lambda * (kernel_matrix("l", p, s1, g1.nodes) * g1.weights[None, :])
        @ kernel_matrix("L", p, g1.nodes, s1))
    assert np.max(np.abs(residual_L)) < 1e-8


class TestLambdaExclusion:
    def test_one_half_rejected(self):
        for r in (0.3, 0.5, 0.9):
            with pytest.raises(ParameterExclusionError) as report:
                PoissonParams.create(r=r, lam=0.5)
            assert report.value.family == "(1/2) r^-n" and report.value.n == 0

    def test_sqrt2_family_rejected(self):
        with pytest.raises(ParameterExclusionError) as report:
            PoissonParams.create(r=0.5, lam=-1.0 + np.sqrt(2.0))
        assert report.value.family == "(-1+sqrt2) r^-n"

    def test_clearance_for_default_lambda(self, monkeypatch):
        monkeypatch.setattr(kernels, "MIN_REL_DIST", 0.05)
        p = PoissonParams.create(r=0.5, lam=0.2)
        # oracle: enumerate every excluded value and check the clearance.
        values = [0.0]
        for base in (1.0, 0.5, -1.0 + np.sqrt(2.0), -1.0 - np.sqrt(2.0)):
            values.extend(base / 0.5 ** n for n in range(p.n_trunc + 1))
        clearance = min(abs(0.2 - v) / abs(v) for v in values if v != 0.0)
        assert clearance >= 0.05 and abs(0.2) >= 0.05

    def test_zero_rejected(self):
        with pytest.raises(ParameterExclusionError) as report:
            PoissonParams.create(r=0.5, lam=0.0)
        assert report.value.family == "zero"


def test_difference_kernel_symmetry_is_exact():
    xs = np.linspace(0, 1, 13)
    for kind in ("h", "H", "l", "L"):
        M = kernel_matrix(kind, P, xs, xs)
        assert np.array_equal(M, M.T)


def _series_rounding_bound(kind, p, x, xi):
    """Bound on |factored series - oracle series|, both in double precision.

    With u = eps / 2 and gamma_k = k u / (1 - k u), each of the two evaluates
    c0 + 2 sum_{n<=N} a_n cos(theta_n):

    * phase: 2 pi n x takes three roundings (n x, the rounded pi, the
      product), the oracle's 2 pi n (x - xi) four; cos is 1-Lipschitz, so
      term n moves by at most gamma_4 2 pi n (|x| + |xi|) 2 |a_n|;
    * values: the coefficient (a power, two products, a difference, a
      quotient), the factor 2, the cos/sin values and their product, at
      most 10 roundings relative to |a_n|, since
      |cos a cos b| + |sin a sin b| <= 1;
    * summation: 2N + 1 terms in any order (a GEMM or a matrix-vector
      product) plus the symmetrizing average, gamma_{2N+2} times
      A = |c0| + 2 sum |a_n|.

    The returned bound doubles the sum of the three, one for each side.
    """
    c0, a = series_coeffs(kind, p)
    eps = np.finfo(float).eps / 2.0

    def gamma(k):
        return k * eps / (1.0 - k * eps)

    n = np.arange(1, a.size + 1)
    A = abs(c0) + 2.0 * np.sum(np.abs(a))
    phase = gamma(4) * 2.0 * np.pi * (np.max(np.abs(x)) + np.max(np.abs(xi))) \
        * 2.0 * np.sum(n * np.abs(a))
    return 2.0 * ((gamma(2 * a.size + 2) + gamma(10)) * A + phase)


def _factored(kind, p, x, xi):
    # h through the factored series (kernel_matrix samples its closed form)
    if kind == "h":
        return h_series(p, x, xi)
    return kernel_matrix(kind, p, x, xi)


@pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("kind", ["h", "H", "l", "L"])
def test_factored_series_matches_difference_oracle(kind, r):
    p = PoissonParams.create(r=r, lam=0.2)
    x = gauss_legendre(40, 0.0, 1.0).nodes
    xi = gauss_legendre(50, -1.0, 0.0).nodes
    s = gauss_legendre(64, 0.0, 1.0).nodes
    for a, b in ((x, xi), (xi, x), (s, s)):
        dev = np.max(np.abs(_factored(kind, p, a, b) - series_kernel(kind, p, a[:, None], b[None, :])))
        assert dev <= _series_rounding_bound(kind, p, a, b)


def test_oracle_cases_span_more_than_one_chunk():
    # at r = 0.99 both node pairings above sum the series over several chunks
    n_trunc = PoissonParams.create(r=0.99, lam=0.2).n_trunc
    assert n_trunc > kernels._CHUNK // (40 + 50) and n_trunc > kernels._CHUNK // (64 + 64)
