"""Quadrature grids, 1D/2D integration, and Fourier coefficients.

Everything downstream moves through two carriers: ``Grid1D`` (Gauss nodes and
weights on an interval) and ``GridFunction`` (values sampled on such a grid).
Integral operators are discretized either with the plain Nystrom rule
(kernel values times weights) or, for kernels with an interior kink, with
product integration: per-row split Gauss panels whose values are pulled back
to the grid through barycentric polynomial interpolation.  The split restores
spectral accuracy that a global rule loses at a C0 kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteValueError

__all__ = [
    "Grid1D",
    "GridFunction",
    "FourierCoeffs",
    "KernelFourierCoeffs",
    "gauss_legendre",
    "gauss_panels",
    "integrate",
    "interp_matrix",
    "operator_matrix",
    "apply_operator",
    "fourier_coeffs",
    "kernel_fourier_coeffs",
]

# smallest Gauss order per half-interval of the product-integration rule
MIN_PRODUCT_ORDER = 24


@dataclass(frozen=True)
class Grid1D:
    """Quadrature nodes and weights on [a, b].

    Invariants: nodes strictly increasing inside [a, b], weights positive and
    summing to b - a (exactness on constants).
    """

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ConfigError("grid nodes and weights must be 1D arrays of equal length")
        if self.a >= self.b:
            raise ConfigError(f"empty interval [{self.a}, {self.b}]")
        if np.any(np.diff(nodes) <= 0):
            raise ConfigError("grid nodes must be strictly increasing")
        if nodes[0] < self.a or nodes[-1] > self.b:
            raise ConfigError("grid nodes outside the interval")
        if np.any(weights <= 0):
            raise ConfigError("grid weights must be positive")
        if abs(weights.sum() - (self.b - self.a)) > 1e-12 * max(1.0, self.b - self.a):
            raise ConfigError("grid weights do not sum to the interval length")

    @property
    def n(self) -> int:
        return self.nodes.size

    def l2_norm(self, values) -> float:
        values = np.asarray(values, dtype=float)
        return float(np.sqrt(np.sum(self.weights * values * values)))


@dataclass(frozen=True)
class GridFunction:
    """Values of a function at the nodes of a grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ConfigError("value count does not match node count")

    @classmethod
    def sample(cls, fn, grid: Grid1D) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    def l2_norm(self) -> float:
        return self.grid.l2_norm(self.values)


@dataclass(frozen=True)
class FourierCoeffs:
    """Full-period trigonometric coefficients on [0, 1].

    c0 doubles the mean; cn/cn_prime multiply cos(2n pi x) / sin(2n pi x),
    so that f = c0/2 + sum cn cos + cn' sin.
    """

    c0: float
    cn: np.ndarray
    cn_prime: np.ndarray

    def __post_init__(self):
        cn = np.atleast_1d(np.asarray(self.cn, dtype=float))
        cp = np.atleast_1d(np.asarray(self.cn_prime, dtype=float))
        object.__setattr__(self, "cn", cn)
        object.__setattr__(self, "cn_prime", cp)
        if cn.size != cp.size or cn.size < 1:
            raise ConfigError("cn and cn_prime must have equal length >= 1")
        if not (np.isfinite(self.c0) and np.all(np.isfinite(cn)) and np.all(np.isfinite(cp))):
            raise NonFiniteValueError("non-finite Fourier coefficients")

    @property
    def order(self) -> int:
        return self.cn.size

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        n = np.arange(1, self.order + 1)
        phase = 2.0 * np.pi * np.multiply.outer(x, n)
        return 0.5 * self.c0 + np.cos(phase) @ self.cn + np.sin(phase) @ self.cn_prime


@dataclass(frozen=True)
class KernelFourierCoeffs:
    """The nine trigonometric moment families of a 2D kernel on [0,1]^2.

    All entries are 2 * double integrals of k against products of
    {1, cos(2n pi .), sin(2n pi .)}; `row0_*` pair the constant in x with a
    harmonic in xi, `col0_*` pair a harmonic in x with the constant in xi,
    and the four matrices take one harmonic in each variable
    (cc = cos_x cos_xi, cs = cos_x sin_xi, sc = sin_x cos_xi, ss = sin_x sin_xi).
    """

    p00: float
    row0_cos: np.ndarray
    row0_sin: np.ndarray
    col0_cos: np.ndarray
    col0_sin: np.ndarray
    cc: np.ndarray
    cs: np.ndarray
    sc: np.ndarray
    ss: np.ndarray

    @property
    def order(self) -> int:
        return self.row0_cos.size


def gauss_legendre(n: int, a: float, b: float) -> Grid1D:
    """Gauss-Legendre rule with n nodes mapped to [a, b].

    Exact for polynomials up to degree 2n - 1.
    """
    if n < 1:
        raise ConfigError(f"quadrature order must be >= 1, got {n}")
    if a >= b:
        raise ConfigError(f"empty interval [{a}, {b}]")
    x, w = np.polynomial.legendre.leggauss(int(n))
    return Grid1D(0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w, float(a), float(b))


def gauss_panels(breaks, n_per_panel: int) -> Grid1D:
    """Composite Gauss rule with the given panel breakpoints."""
    breaks = np.asarray(sorted(set(float(t) for t in breaks)), dtype=float)
    if breaks.size < 2:
        raise ConfigError("need at least two breakpoints")
    xs, ws = [], []
    t, v = np.polynomial.legendre.leggauss(int(n_per_panel))
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        xs.append(0.5 * (hi - lo) * t + 0.5 * (lo + hi))
        ws.append(0.5 * (hi - lo) * v)
    return Grid1D(np.concatenate(xs), np.concatenate(ws), breaks[0], breaks[-1])


def integrate(f: GridFunction) -> float:
    """Quadrature of a grid function: sum of weight * value."""
    return float(np.sum(f.grid.weights * f.values))


def _bary_weights(nodes):
    d = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(d, 1.0)
    # scale guards overflow for n ~ 100 nodes on short intervals
    scale = 4.0 / (nodes[-1] - nodes[0])
    w = 1.0 / np.prod(d * scale, axis=1)
    return w / np.max(np.abs(w))


def interp_matrix(nodes, targets) -> np.ndarray:
    """Barycentric interpolation matrix L with L[q, j] = ell_j(targets[q]).

    Rows for targets that coincide with a node reduce to unit vectors.
    """
    nodes = np.asarray(nodes, dtype=float)
    targets = np.asarray(targets, dtype=float)
    w = _bary_weights(nodes)
    diff = targets[:, None] - nodes[None, :]
    hit = np.abs(diff) < 1e-14
    diff = np.where(hit, 1.0, diff)
    t = w[None, :] / diff
    L = t / np.sum(t, axis=1, keepdims=True)
    rows = np.any(hit, axis=1)
    if np.any(rows):
        L[rows] = hit[rows].astype(float)
    return L


def _split_rule(lo, mid, hi, base_nodes, base_weights):
    xs, ws = [], []
    for p, q in ((lo, mid), (mid, hi)):
        if q - p < 1e-14:
            continue
        xs.append(0.5 * (q - p) * base_nodes + 0.5 * (p + q))
        ws.append(0.5 * (q - p) * base_weights)
    return np.concatenate(xs), np.concatenate(ws)


def operator_matrix(kernel, grid: Grid1D, *, diag_split: bool = False,
                    volterra: bool = False, quad_order: int | None = None) -> np.ndarray:
    """Nystrom matrix A with (A g)[i] ~ integral of kernel(x_i, xi) g(xi).

    Plain rule by default.  With ``diag_split`` the xi-integral is split at
    xi = x_i (product integration; spectrally accurate through a diagonal
    kink).  With ``volterra`` the upper limit is x_i and kernel(x, xi) is
    taken as 0 for xi > x.
    """
    xs, ws = grid.nodes, grid.weights
    n = grid.n
    if not diag_split and not volterra:
        return np.asarray(kernel(xs[:, None], xs[None, :]), dtype=float) * ws[None, :]
    m = int(quad_order or max(n, MIN_PRODUCT_ORDER))
    t, v = np.polynomial.legendre.leggauss(m)
    A = np.zeros((n, n))
    for i, x in enumerate(xs):
        hi = x if volterra else grid.b
        if hi - grid.a < 1e-14:
            continue
        zq, wq = _split_rule(grid.a, min(x, hi), hi, t, v)
        vals = np.asarray(kernel(np.full_like(zq, x), zq), dtype=float)
        A[i, :] = (vals * wq) @ interp_matrix(xs, zq)
    return A


def apply_operator(kernel, out_nodes, source, *, lo: float = 0.0, hi: float = 1.0,
                   diag_split: bool = False, quad_order: int = 64) -> np.ndarray:
    """Evaluate x -> integral_lo^hi kernel(x, xi) g(xi) d xi at out_nodes.

    ``source`` is either a callable or a GridFunction (interpolated from its
    own grid).  Split at xi = x when ``diag_split``.
    """
    out_nodes = np.asarray(out_nodes, dtype=float)
    t, v = np.polynomial.legendre.leggauss(int(quad_order))
    if isinstance(source, GridFunction):
        g = lambda z: interp_matrix(source.grid.nodes, z) @ source.values
    else:
        g = lambda z: np.asarray(source(z), dtype=float)
    out = np.zeros(out_nodes.shape)
    for i, x in enumerate(out_nodes):
        if diag_split and lo < x < hi:
            zq, wq = _split_rule(lo, x, hi, t, v)
        else:
            zq = 0.5 * (hi - lo) * t + 0.5 * (lo + hi)
            wq = 0.5 * (hi - lo) * v
        out[i] = np.sum(wq * np.asarray(kernel(np.full_like(zq, x), zq), dtype=float) * g(zq))
    return out


def fourier_coeffs(f, N: int, quad_order: int = 64) -> FourierCoeffs:
    """Full-period Fourier coefficients of f on [0, 1].

    c0 = 2 int f, cn = 2 int f cos(2n pi xi), cn' = 2 int f sin(2n pi xi).
    """
    if N < 1:
        raise ConfigError(f"need N >= 1, got {N}")
    g = gauss_legendre(int(quad_order), 0.0, 1.0)
    fv = np.asarray(f(g.nodes), dtype=float) * g.weights
    n = np.arange(1, N + 1)
    phase = 2.0 * np.pi * np.multiply.outer(n, g.nodes)
    return FourierCoeffs(
        c0=2.0 * float(np.sum(fv)),
        cn=2.0 * (np.cos(phase) @ fv),
        cn_prime=2.0 * (np.sin(phase) @ fv),
    )


def kernel_fourier_coeffs(kernel, N: int, quad_order: int = 64,
                          diag_split: bool = False) -> KernelFourierCoeffs:
    """All nine trigonometric moment families of a kernel on [0,1]^2.

    With ``diag_split`` the inner xi-integral is split at xi = x per outer
    node, which keeps kinked kernels at full quadrature accuracy.
    """
    if N < 1:
        raise ConfigError(f"need N >= 1, got {N}")
    g = gauss_legendre(int(quad_order), 0.0, 1.0)
    w = g.weights
    n = np.arange(1, N + 1)
    phase_x = 2.0 * np.pi * np.multiply.outer(n, g.nodes)
    cw = np.cos(phase_x) * w  # (N, q), trig moments fused with weights
    sw = np.sin(phase_x) * w
    if not diag_split:
        K = np.asarray(kernel(g.nodes[:, None], g.nodes[None, :]), dtype=float)
        inner0 = K @ w                    # (q,): int k(x_i, xi) d xi
        innerC = K @ cw.T                 # (q, N): int k cos(2m pi xi)
        innerS = K @ sw.T
    else:
        t, v = np.polynomial.legendre.leggauss(int(quad_order))
        inner0 = np.zeros(g.n)
        innerC = np.zeros((g.n, N))
        innerS = np.zeros((g.n, N))
        for i, x in enumerate(g.nodes):
            zq, wq = _split_rule(0.0, x, 1.0, t, v)
            kv = np.asarray(kernel(np.full_like(zq, x), zq), dtype=float) * wq
            inner0[i] = kv.sum()
            phase_z = 2.0 * np.pi * np.multiply.outer(zq, n)
            innerC[i] = kv @ np.cos(phase_z)
            innerS[i] = kv @ np.sin(phase_z)
    return KernelFourierCoeffs(
        p00=2.0 * float(w @ inner0),
        row0_cos=2.0 * (w @ innerC),
        row0_sin=2.0 * (w @ innerS),
        col0_cos=2.0 * (cw @ inner0),
        col0_sin=2.0 * (sw @ inner0),
        cc=2.0 * (cw @ innerC),
        cs=2.0 * (cw @ innerS),
        sc=2.0 * (sw @ innerC),
        ss=2.0 * (sw @ innerS),
    )
