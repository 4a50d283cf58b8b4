"""Quadrature grids, 1D/2D integration, and Fourier coefficients.

Everything downstream moves through two carriers: ``Grid1D`` (Gauss nodes and
weights on an interval) and ``GridFunction`` (values sampled on such a grid).
Integral operators are discretized either with the plain Nystrom rule
(kernel values times weights) or, for kernels with an interior kink, with
product integration: per-row split Gauss panels integrate the grid's
interpolating polynomial, taken in Legendre form.  The split restores
spectral accuracy that a global rule loses at a C0 kink.  Trigonometric
coefficients come from one table [1 | cos | sin] on a Gauss grid: a free
term's as 2 T^T (W f), a kernel's moments as 2 (W T)^T A T from that grid's
Nystrom matrix A, so the Fourier route shares the one assembly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NonFiniteValueError

__all__ = [
    "Grid1D",
    "GridFunction",
    "gauss_legendre",
    "interp_matrix",
    "operator_matrix",
    "apply_operator",
    "fourier_coeffs",
    "kernel_fourier_coeffs",
]

# smallest Gauss order per half-interval of the product-integration rule
MIN_PRODUCT_ORDER = 24

# bytes kept in the one matrix cache (``_ForwardCache``): apply_operator's
# forward matrices and free-term rules, operator_matrix's matrices, the grid
# route's Poisson blocks and gate verdicts, and the baselines'
# eigendecompositions, each of a kernel that is a value (``_PureKernel``).
# The entry sizes of the solve_1d benchmark mix are in the README
_FORWARD_CACHE_BYTES = 4 << 20


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
class _PureKernel:
    """k(x, xi) = formula(x, xi, *params), a kernel that is a value.

    ``formula`` is a module-level function whose values depend on its
    arguments alone and ``params`` a tuple of numbers or bytes, so equal
    instances give equal kernel values at equal points.  The matrix store
    (``_ForwardCache``) keys a _PureKernel's entries on the kernel itself
    and does not evaluate it on a hit.  problems' registered and tabulated
    kernels are built so; every other callable is assembled on each call
    and leaves nothing in the store.
    """

    formula: object
    params: tuple = ()

    def __call__(self, x, xi):
        return self.formula(x, xi, *self.params)


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


@lru_cache(maxsize=64)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the n-point Gauss-Legendre nodes and weights on [-1, 1], solved once per
    # order and shared read-only
    t, v = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    v.setflags(write=False)
    return t, v


@lru_cache(maxsize=64)
def _projection(n: int) -> np.ndarray:
    # Pi[k, j] = (k + 1/2) P_k(t_j) v_j, the n-point Gauss rule's exact
    # projection onto P_0..P_{n-1}; built once per order and shared read-only
    t, v = _gauss_rule(n)
    proj = (np.arange(n) + 0.5)[:, None] * np.polynomial.legendre.legvander(t, n - 1).T * v
    proj.setflags(write=False)
    return proj


def gauss_legendre(n: int, a: float, b: float) -> Grid1D:
    """Gauss-Legendre rule with n nodes mapped to [a, b].

    Exact for polynomials up to degree 2n - 1.
    """
    if n < 1:
        raise ConfigError(f"quadrature order must be >= 1, got {n}")
    if a >= b:
        raise ConfigError(f"empty interval [{a}, {b}]")
    x, w = _gauss_rule(int(n))
    return Grid1D(0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w, float(a), float(b))


def _bary_weights(nodes):
    return _bary_weights_of(np.ascontiguousarray(nodes, dtype=float).tobytes())


@lru_cache(maxsize=8)
def _bary_weights_of(key: bytes) -> np.ndarray:
    # one read-only weight vector per node set, keyed by the nodes' bytes
    nodes = np.frombuffer(key)
    d = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(d, 1.0)
    # scale guards overflow for n ~ 100 nodes on short intervals
    scale = 4.0 / (nodes[-1] - nodes[0]) if nodes.size > 1 else 1.0
    w = 1.0 / np.prod(d * scale, axis=1)
    w /= np.max(np.abs(w))
    w.setflags(write=False)
    return w


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


def _row_rule(kernel, x, lo: float, hi, diag_split: bool, order: int):
    # the one product-integration rule: every output row's Gauss rule of
    # ``order`` points per panel on [lo, hi] (hi may vary per row), split at
    # xi = x_i when ``diag_split`` and lo < x_i < hi; a panel under 1e-14 is
    # dropped.  Returns the points zq (n, panels * order), the kernel values
    # times weights kw (with any leading axes of the kernel's values), and per
    # row the leading entries in use (0 for an empty rule).  Unused slots
    # repeat the first panel's points with kw = 0, set after the product so
    # that a kernel not finite at an empty row's degenerate point leaks nothing.
    t, v = _gauss_rule(int(order))
    split = diag_split & (lo < x) & (x < hi)
    first_q = np.where(split, x, hi)
    keep_left = first_q - lo >= 1e-14
    keep_right = split & (hi - x >= 1e-14)
    p = np.stack([np.where(keep_left, lo, x), x], axis=1)
    q = np.stack([np.where(keep_left, first_q, hi), np.full_like(x, hi)], axis=1)
    single = ~(keep_left & keep_right)
    p[single, 1], q[single, 1] = p[single, 0], q[single, 0]
    panels = 2 if np.any(keep_left & keep_right) else 1
    half = 0.5 * (q[:, :panels] - p[:, :panels])
    zq = (half[:, :, None] * t + (0.5 * (p[:, :panels] + q[:, :panels]))[:, :, None]
          ).reshape(x.size, -1)
    wq = (half[:, :, None] * v).reshape(x.size, -1)
    kv = np.asarray(kernel(np.repeat(x[:, None], zq.shape[1], axis=1), zq), dtype=float)
    used = (keep_left.astype(int) + keep_right) * t.size
    return zq, np.where(np.arange(zq.shape[1]) < used[:, None], kv * wq, 0.0), used


def _legendre_moments(z, kw, n: int) -> np.ndarray:
    # G[..., i, k] = sum_q kw[..., i, q] P_k(z[i, q]) for k < n, by the
    # three-term recurrence (k + 1) P_{k+1} = (2k + 1) z P_k - k P_{k-1}
    # carried on the products kw P_k: two of them alive at a time, plus one buffer
    G = np.empty(kw.shape[:-1] + (n,))
    prev, cur, buf = np.zeros_like(kw), kw.copy(), np.empty_like(kw)
    G[..., 0] = cur.sum(axis=-1)
    for k in range(1, n):
        np.multiply(z, cur, out=buf)
        buf *= (2 * k - 1) / k
        prev *= (k - 1) / k
        buf -= prev
        prev, cur, buf = cur, buf, prev
        G[..., k] = cur.sum(axis=-1)
    return G


def operator_matrix(kernel, grid: Grid1D, *, diag_split: bool = False,
                    volterra: bool = False) -> np.ndarray:
    """Nystrom matrix A with (A g)[i] ~ integral of kernel(x_i, xi) g(xi).

    Plain rule by default.  With ``diag_split`` the xi-integral is split at
    xi = x_i (product integration; spectrally accurate through a diagonal
    kink).  With ``volterra`` the upper limit is x_i and kernel(x, xi) is
    taken as 0 for xi > x.

    Product integration integrates the grid's interpolating polynomial in
    Legendre form: A = G (Pi L).  G[i, k] is row i's split rule applied to
    k(x_i, .) P_k, L = interp_matrix(nodes, s) takes grid values to the
    n-point Gauss nodes s of [a, b] (the identity when the grid is that
    rule), and Pi[k, j] = (k + 1/2) P_k(t_j) v_j is that rule's exact
    projection onto P_0..P_{n-1}, built once per n (``_projection``).  The
    split rule has m = max(MIN_PRODUCT_ORDER, n) points per half, fixed by
    the grid alone.  Exact to degree 2m - 1 >= 2n - 1, it integrates
    k(x_i, .) P_k exactly for every k < n whenever the kernel is a polynomial
    of degree at most n on each side of the split, as every shipped
    product-integrated kernel is (piecewise linear in xi).  That one global
    interpolant breaks down on many-panel grids; a matrix that is not finite
    raises NonFiniteValueError.  Kernel values (B, n, P) on the (n, P) points
    give a (B, n, n) stack, one matrix per leading index, from one moment sweep.

    A product-integrated assembly of a kernel that is a value (a
    ``_PureKernel``) is kept read-only in ``_ForwardCache`` under the nodes'
    bytes, a and b, both flags, the rule order and the kernel itself, so a
    repeated assembly evaluates nothing and copies A.  Any other callable is
    assembled afresh on every call and keeps nothing.  Either way A is a
    fresh writable array with the bits of a cold call.
    """
    xs, ws = grid.nodes, grid.weights
    if not diag_split and not volterra:
        A = np.asarray(kernel(xs[:, None], xs[None, :]), dtype=float) * ws
    else:
        n, mid, half = grid.n, 0.5 * (grid.a + grid.b), 0.5 * (grid.b - grid.a)
        order = max(MIN_PRODUCT_ORDER, n)

        def build():
            zq, kw, _ = _row_rule(kernel, xs, grid.a, xs if volterra else grid.b,
                                  diag_split, order)
            PiL = _projection(n) @ interp_matrix(xs, half * _gauss_rule(n)[0] + mid)
            return _legendre_moments((zq - mid) / half, kw, n) @ PiL

        geometry = (xs.tobytes(), np.array([grid.a, grid.b], dtype=float).tobytes(),
                    bool(diag_split), bool(volterra), order)
        A = _kept(kernel, ("matrix",) + geometry, build)
        if not A.flags.writeable:
            A = A.copy()
    if not np.all(np.isfinite(A)):
        raise NonFiniteValueError(f"the Nystrom matrix on {grid.n} nodes must be finite")
    return A


class _ForwardCache:
    """Arrays fixed by a grid's geometry and a kernel, kept for reuse.

    One budget holds every entry: apply_operator's forward matrices B (from
    a GridFunction) and free-term rules (from a callable source),
    operator_matrix's matrices A, the grid route's weighted Poisson blocks
    and gate verdicts (``method_core._Workspace``), and the baselines'
    eigenbases.  A key names the kind and the geometry (node bytes,
    intervals, flags, rule order, and for the grid route the Poisson pair
    and the asked mu) and ends with the kernel, a ``_PureKernel``: a hit
    evaluates nothing, and distinct values, such as two poisson_r radii or
    two CSV tables, never share an entry.  Stored arrays are read-only
    copies.  The least recently used entries go first once the stored bytes
    pass the budget; an entry larger than the budget is never kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0

    @staticmethod
    def _size(key, value) -> int:
        arrays = value if isinstance(value, tuple) else (value,)
        return (sum(a.nbytes for a in arrays)
                + sum(len(k) for k in key[:-1] + key[-1].params if isinstance(k, bytes)))

    @staticmethod
    def _stored(a):
        if isinstance(a, tuple):
            return tuple(_ForwardCache._stored(b) for b in a)
        out = a.copy()
        out.setflags(write=False)
        return out

    def kept(self, key, build):
        """The value, an array or a tuple of arrays, under key; a miss keeps build()."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            return value
        value = build()
        size = self._size(key, value)
        if size <= self.budget:
            self._entries[key] = self._stored(value)
            self._bytes += size
            while self._bytes > self.budget:
                k, v = self._entries.popitem(last=False)
                self._bytes -= self._size(k, v)
        return value


_forward_cache = _ForwardCache(_FORWARD_CACHE_BYTES)


def _kept(kernel, key, build):
    # the one matrix-store lookup: a kernel that is a value (a _PureKernel)
    # completes key and is built once; any other callable (or None, as for
    # the 2D route's workspace) is built afresh and leaves nothing behind.
    # A build that raises, such as a refused gate, keeps nothing
    if isinstance(kernel, _PureKernel):
        return _forward_cache.kept(key + (kernel,), build)
    return build()


def _forward_matrix(kernel, x, diag_split: bool, nodes: np.ndarray,
                    quad_order: int) -> np.ndarray:
    # B with (B g)[i] = row i's product rule on [0, 1] applied to k(x_i, .)
    # times the interpolant of g's values at ``nodes``: B[i] = kw[i, :u] @ L_i,
    # one barycentric matrix L_i per row on a miss.  The rule has
    # m = max(quad_order, n) points per half, never below the source grid.
    order = max(int(quad_order), nodes.size)

    def build():
        zq, kw, used = _row_rule(kernel, x, 0.0, 1.0, diag_split, order)
        B = np.empty((x.size, nodes.size))
        for i, u in enumerate(used):
            B[i] = kw[i, :u] @ interp_matrix(nodes, zq[i, :u])
        return B

    return _kept(kernel, ("forward", x.tobytes(), bool(diag_split), order, nodes.tobytes()),
                 build)


def apply_operator(kernel, out_nodes, source, *, diag_split: bool = False,
                   quad_order: int = 64) -> np.ndarray:
    """Evaluate x -> integral_0^1 kernel(x, xi) g(xi) d xi at out_nodes.

    ``source`` is either a callable or a GridFunction (interpolated from its
    own grid).  Split at xi = x when ``diag_split``.  Each row keeps its own
    rule of ``quad_order`` points per panel, raised to the source grid's n for
    a GridFunction.  The kernel and a callable source are evaluated once on
    the array of every row's points.  A GridFunction source is mapped by one
    product with the forward matrix B.  For a kernel that is a value
    (``_PureKernel``) ``_ForwardCache`` keeps B while the out nodes, split,
    rule order, source nodes and kernel stay the same, and a callable
    source's rule (the points, kernel values times weights and row lengths),
    so a repeated out-node set evaluates the source alone, on read-only
    points.  Any other callable is evaluated on every call and keeps nothing.
    """
    x = np.asarray(out_nodes, dtype=float)
    if isinstance(source, GridFunction):
        return _forward_matrix(kernel, x, diag_split, source.grid.nodes,
                               quad_order) @ source.values
    zq, kw, used = _kept(kernel, ("rule", x.tobytes(), bool(diag_split), int(quad_order)),
                         lambda: _row_rule(kernel, x, 0.0, 1.0, diag_split, quad_order))
    terms = kw * np.asarray(source(zq), dtype=float)
    out = np.zeros(x.shape)
    # a set, not np.unique, which imports numpy.ma on its first call
    for u in set(used[used > 0].tolist()):
        rows = used == u
        out[rows] = np.sum(terms[rows, :u], axis=1)
    return out


def _trig_table(x, modes, ones: bool = False) -> np.ndarray:
    # [cos(2 pi n x) | sin(2 pi n x)] for n in modes, one row per point x,
    # written in place; with ``ones`` a leading column of ones, so that
    # modes 1..N give the (x.size, 2N + 1) table [1 | cos | sin]
    k = int(ones)
    phase = 2.0 * np.pi * np.multiply.outer(x, modes)
    table = np.empty((x.size, k + 2 * modes.size))
    table[:, :k] = 1.0
    np.cos(phase, out=table[:, k:k + modes.size])
    np.sin(phase, out=table[:, k + modes.size:])
    return table


def fourier_coeffs(f, N: int, quad_order: int = 64) -> np.ndarray:
    """Full-period Fourier coefficients of f on [0, 1], in P's layout.

    Returns c = 2 T^T (W f), (2N+1,), on the table T = [1 | cos(2n pi x) |
    sin(2n pi x)] (n = 1..N) of gauss_legendre(quad_order, 0, 1): c[0] =
    2 int f, c[n] = 2 int f cos(2n pi xi), c[N + n] = 2 int f sin(2n pi xi),
    so f = c[0]/2 + sum c[n] cos + c[N + n] sin.
    """
    if N < 1:
        raise ConfigError(f"need N >= 1, got {N}")
    g = gauss_legendre(int(quad_order), 0.0, 1.0)
    T = _trig_table(g.nodes, np.arange(1, N + 1), ones=True)
    c = 2.0 * (T.T @ (np.asarray(f(g.nodes), dtype=float) * g.weights))
    if not np.all(np.isfinite(c)):
        raise NonFiniteValueError("non-finite Fourier coefficients")
    return c


def kernel_fourier_coeffs(kernel, N: int, quad_order: int = 64,
                          diag_split: bool = False) -> np.ndarray:
    """Trigonometric moments of a kernel on [0,1]^2, from its Nystrom matrix.

    P = 2 (W T)^T A T, (2N+1) x (2N+1): A = operator_matrix(kernel,
    gauss_legendre(quad_order, 0, 1), diag_split=diag_split), T the table
    [1 | cos(2n pi x) | sin(2n pi x)] (n = 1..N) on that grid's nodes and W
    its weights.  Row a of P takes harmonic a in x, column b harmonic b in
    xi, so P[0, 0] = 2 int int k and P[1, 1] = 2 int int k cos(2 pi x)
    cos(2 pi xi).  A kinked kernel keeps A's product-integration accuracy
    in xi.  Like a per-row split rule on the same grid, the moments lose
    accuracy as N grows toward quad_order / 2.
    """
    if N < 1:
        raise ConfigError(f"need N >= 1, got {N}")
    g = gauss_legendre(int(quad_order), 0.0, 1.0)
    A = operator_matrix(kernel, g, diag_split=diag_split)
    T = _trig_table(g.nodes, np.arange(1, N + 1), ones=True)
    return 2.0 * ((T * g.weights[:, None]).T @ (A @ T))
