"""Reduction of boundary problems to integral equations, and the 2D method.

The 1D second-order problem u'' - a u = f with u'(0) = u(1) = 0 reduces to a
Volterra or a Fredholm second-kind equation for psi = u''.  Two-dimensional
problems (membrane, heat) reduce to the first-kind form

    int_0^1 tau1(x, y, xi) psi(xi, y) d xi
  + int_0^1 tau2(x, y, eta) psi(x, eta) d eta = f(x, y),

which the grid-route reformulation solves with y as a parameter: the Poisson
machinery acts in x only, and the second-kind system couples the tensor grid
through kernels N (x-smoothed tau1), M = tau2, and T (the cross block).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateProblemError, NonFiniteValueError,
                     UndefinedDeltaError)
from .fredholm2 import certified_mu, gate_mu, gated_system, solve_direct
from .grid import (GridFunction, Grid1D, _PureKernel, gauss_legendre, interp_matrix,
                   operator_matrix)
from .method_core import MethodParams, ResidualReport, _verdict, _Workspace

__all__ = [
    "Bvp2DReduction",
    "GridFunction2D",
    "Method2DResult",
    "reduce_ode_volterra",
    "reduce_ode_fredholm",
    "reduce_membrane",
    "reduce_heat",
    "forward2d",
    "reconstruct_u",
    "closure_delta",
    "method2d_solve",
    "verify2d",
]

MAX_2D_UNKNOWNS = 4096


@dataclass(frozen=True)
class Bvp2DReduction:
    """Kernels and free term of the reduced 2D first-kind equation; all three
    must broadcast in every argument (``_tau_stack`` relies on it)."""

    name: str
    tau1: object
    tau2: object
    free_term: object


@dataclass(frozen=True)
class GridFunction2D:
    """Values on a tensor Gauss grid; values[i, j] pairs x_i with y_j."""

    x_grid: Grid1D
    y_grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.x_grid.n, self.y_grid.n):
            raise ConfigError("2D value shape does not match the tensor grid")

    def l2_norm(self) -> float:
        w = self.x_grid.weights[:, None] * self.y_grid.weights[None, :]
        return float(np.sqrt(np.sum(w * self.values * self.values)))


@dataclass(frozen=True)
class Method2DResult:
    """The solve's psi, its two parts, verdict and mu, and its tau stacks.

    T1 (ny, nx, nx) and T2 (nx, ny, ny) are ``_tau_stack``'s read-only
    matrices on psi's grid, assembled once a request: the solve, ``verify2d``
    and ``reconstruct_u`` all take them from here.
    """

    psi: GridFunction2D
    psi0: GridFunction2D
    psi1: GridFunction2D
    report: ResidualReport
    mu: float
    T1: np.ndarray
    T2: np.ndarray


def _difference(x, xi):
    return x - xi


def _volterra_cumulative(grid: Grid1D) -> np.ndarray:
    # rows of int_0^x (x - xi) g(xi) d xi by product integration; the kernel
    # is a value, so both ode routes of a request share one assembly
    return operator_matrix(_PureKernel(_difference), grid, volterra=True)


def reduce_ode_volterra(a, f, n: int = 64) -> tuple[GridFunction, GridFunction]:
    """Volterra route for u'' - a u = f, u'(0) = u(1) = 0; returns (psi, u)."""
    grid = gauss_legendre(n, 0.0, 1.0)
    kern = lambda x, xi: np.asarray(a(x), dtype=float) * (x - xi)
    V = operator_matrix(kern, grid, volterra=True)
    M = np.eye(grid.n) - V
    av = np.asarray(a(grid.nodes), dtype=float)
    fv = np.asarray(f(grid.nodes), dtype=float)
    # responses to the load term and to the c0 a(x) term, from one solve
    psi_f, psi_a = np.linalg.solve(M, np.stack([fv, av], axis=1)).T
    wt = grid.weights * (1.0 - grid.nodes)
    denom = 1.0 + float(wt @ psi_a)
    if abs(denom) <= 1e-10:
        raise DegenerateProblemError(f"constant-of-integration denominator {denom:.3g}")
    c0 = -float(wt @ psi_f) / denom
    psi = psi_f + c0 * psi_a
    u = _volterra_cumulative(grid) @ psi + c0
    return GridFunction(grid, psi), GridFunction(grid, u)


def reduce_ode_fredholm(a, f, n: int = 64) -> tuple[GridFunction, GridFunction]:
    """Fredholm route for the same problem; u is rebuilt without explicit c0."""
    grid = gauss_legendre(n, 0.0, 1.0)

    def kern(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return np.asarray(a(x), dtype=float) * np.where(xi <= x, -(1.0 - x), -(1.0 - xi))

    fv = np.asarray(f(grid.nodes), dtype=float)
    psi = solve_direct(gated_system(operator_matrix(kern, grid, diag_split=True), 1.0), fv)
    u = _volterra_cumulative(grid) @ psi - float((grid.weights * (1.0 - grid.nodes)) @ psi)
    return GridFunction(grid, psi), GridFunction(grid, u)


def _tau_membrane_x(x, y, xi):
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return (x - xi) * (xi <= x) - x * (1.0 - xi)


def reduce_membrane() -> Bvp2DReduction:
    """Uniformly loaded membrane clamped on the unit square."""
    def tau2(x, y, eta):
        y = np.asarray(y, dtype=float)
        eta = np.asarray(eta, dtype=float)
        return (y - eta) * (eta <= y) - y * (1.0 - eta)

    return Bvp2DReduction(
        name="membrane",
        tau1=lambda x, y, xi: _tau_membrane_x(x, y, xi),
        tau2=tau2,
        free_term=lambda x, y: 0.5 * np.asarray(y, dtype=float) * (1.0 - np.asarray(y, dtype=float))
                               + 0.0 * np.asarray(x, dtype=float),
    )


def reduce_heat(u0) -> Bvp2DReduction:
    """Heat conduction on [0,1] x [0,1] (t as second axis) from initial data u0."""
    edges = np.abs([float(u0(0.0)), float(u0(1.0))])
    if not np.all(np.isfinite(edges)):
        raise NonFiniteValueError(f"u0 must be finite at both ends; |u0| = {edges}")
    edge = edges.max()
    if edge > 1e-8:
        raise ConfigError(f"u0 must vanish at both ends; boundary value {edge:.3g}")

    def tau2(x, t, eta):
        t = np.asarray(t, dtype=float)
        eta = np.asarray(eta, dtype=float)
        return -1.0 * (eta <= t) + 0.0 * t

    return Bvp2DReduction(
        name="heat",
        tau1=lambda x, t, xi: _tau_membrane_x(x, t, xi),
        tau2=tau2,
        free_term=lambda x, t: np.asarray(u0(x), dtype=float) + 0.0 * np.asarray(t, dtype=float),
    )


def _tau_stack(reduction, axis: str, grid: Grid1D, points) -> np.ndarray:
    """T1 (axis 'x') or T2 (axis 'y'), one matrix per point: (len(points), n, n).

    T1[j] is xi -> tau1(x, points[j], xi) on grid and T2[i] is eta ->
    tau2(points[i], y, eta), from one operator_matrix call with the points on
    a leading axis.  A tau whose values do not broadcast over that axis cannot
    vary with the point; its one matrix comes back as a broadcast.  Either
    way the stack is read-only.  The kernel is a closure, so each call
    assembles afresh and leaves nothing in grid's matrix store.
    """
    p = np.asarray(points, dtype=float)[:, None, None]
    kernel = ((lambda x, xi: reduction.tau1(x, p, xi)) if axis == "x"
              else (lambda y, eta: reduction.tau2(p, y, eta)))
    T = operator_matrix(kernel, grid, diag_split=True)
    if T.ndim == 2:
        return np.broadcast_to(T, (p.shape[0],) + T.shape)
    T.setflags(write=False)
    return T


def _route_stack(psi: GridFunction2D, which: str, stack: np.ndarray) -> np.ndarray:
    # the tau stack of route 'x' (T1, (ny, nx, nx)) or 'y' (T2, (nx, ny, ny)) on psi's grid
    n, m = (psi.x_grid.n, psi.y_grid.n) if which == "x" else (psi.y_grid.n, psi.x_grid.n)
    if stack.shape != (m, n, n):
        raise ConfigError(f"route {which!r} needs a {(m, n, n)} tau stack, got {stack.shape}")
    return stack


# Each contraction is one batched matrix-vector product per column (along x)
# or per row (along y); a single GEMM would round differently.
def _along_x(T1: np.ndarray, values) -> np.ndarray:
    """Column j is T1[j] @ values[:, j]: int_0^1 tau1(x, y_j, xi) values(xi, j) d xi."""
    return np.matmul(T1, values.T[:, :, None])[:, :, 0].T


def _along_y(T2: np.ndarray, values) -> np.ndarray:
    """Row i is T2[i] @ values[i]: int_0^1 tau2(x_i, y, eta) values(i, eta) d eta."""
    return np.matmul(T2, values[:, :, None])[:, :, 0]


def _free_term(reduction, xs, ys) -> np.ndarray:
    return np.asarray(reduction.free_term(xs[:, None], ys[None, :]), dtype=float)


def forward2d(psi: GridFunction2D, T1: np.ndarray, T2: np.ndarray) -> GridFunction2D:
    """Left-hand side of the reduced first-kind equation, sampled on psi's grid.

    T1 (ny, nx, nx) and T2 (nx, ny, ny) are the tau stacks on psi's grid, as
    ``method2d_solve`` returns them.
    """
    v = psi.values
    return GridFunction2D(psi.x_grid, psi.y_grid, _along_x(_route_stack(psi, "x", T1), v)
                          + _along_y(_route_stack(psi, "y", T2), v))


def reconstruct_u(reduction: Bvp2DReduction, psi: GridFunction2D, which: str,
                  stack: np.ndarray, boundary_corrected: bool = False) -> GridFunction2D:
    """Field u from psi via one representation.

    'x' integrates tau1 against psi (vanishes where tau1 does); 'y' uses
    f - the tau2 integral.  Boundary correction subtracts the linear blend of
    the values on the other pair of edges, evaluated from the same
    representation.

    ``stack`` is the route's tau stack on psi's grid, T1 (ny, nx, nx) for
    'x' or T2 (nx, ny, ny) for 'y', as ``method2d_solve`` returns it.  The
    edge stacks of the boundary correction sit at other points and are
    assembled here.
    """
    if which not in ("x", "y"):
        raise ConfigError(f"route must be 'x' or 'y', got {which!r}")
    gx, gy, v = psi.x_grid, psi.y_grid, psi.values
    stack = _route_stack(psi, which, stack)
    ends = np.array([0.0, 1.0])
    if which == "x":
        vals = _along_x(stack, v)
        if boundary_corrected:
            # psi on y = 0 and y = 1, one matrix-vector product per edge (see _along_x)
            on_edges = np.matmul(v, interp_matrix(gy.nodes, ends)[:, :, None])[:, :, 0].T
            edge = _along_x(_tau_stack(reduction, "x", gx, ends), on_edges)
            y = gy.nodes[None, :]
            vals = vals - (edge[:, [0]] * (1.0 - y) + edge[:, [1]] * y)
    else:
        vals = _free_term(reduction, gx.nodes, gy.nodes) - _along_y(stack, v)
        if boundary_corrected:
            on_edges = np.matmul(interp_matrix(gx.nodes, ends)[:, None, :], v)[:, 0, :]
            edge = (_free_term(reduction, ends, gy.nodes)
                    - _along_y(_tau_stack(reduction, "y", gy, ends), on_edges))
            x = gx.nodes[:, None]
            vals = vals - ((1.0 - x) * edge[[0], :] + x * edge[[1], :])
    return GridFunction2D(gx, gy, vals)


def closure_delta(U1: GridFunction2D, U2: GridFunction2D) -> float:
    """Relative disagreement 2 ||U1 - U2|| / ||U1 + U2|| of the two routes."""
    diff = GridFunction2D(U1.x_grid, U1.y_grid, U1.values - U2.values)
    summ = GridFunction2D(U1.x_grid, U1.y_grid, U1.values + U2.values)
    denom = summ.l2_norm()
    if denom <= 1e-14:
        raise UndefinedDeltaError("both reconstructions vanish; delta undefined")
    return 2.0 * diff.l2_norm() / denom


def _kronecker_norm_bound(N0: np.ndarray, lamH: np.ndarray, M0: np.ndarray) -> float:
    """Upper bound on ||A||_2 when neither tau stack varies.

    Then A = N0 (x) I + (I + lamH) (x) M0, and ||X (x) Y||_2 = ||X||_2 ||Y||_2
    gives ||A||_2 <= ||N0||_2 + (1 + ||lamH||_2) ||M0||_2.  The three norms
    come from one batched values-only SVD; the nx- and ny-square factors are
    zero-padded to a common size, which leaves each 2-norm unchanged.
    """
    size = max(N0.shape[0], M0.shape[0])
    factors = np.zeros((3, size, size))
    for k, X in enumerate((N0, lamH, M0)):
        factors[k, :X.shape[0], :X.shape[1]] = X
    n_norm, h_norm, m_norm = np.linalg.svd(factors, compute_uv=False)[:, 0]
    return float(n_norm + (1.0 + h_norm) * m_norm)


def _fast_solver(P: np.ndarray, T: np.ndarray, M: np.ndarray, mu: float, w: np.ndarray):
    """Solver of (I - mu A) X = B by fast diagonalization, or None.

    Constant tau stacks give A X = P (T X + X M^T) with P = I + lam H_w,
    T = T1[0] and M = T2[0].  So (I - mu A) X = B is the Sylvester equation
    C X - mu X M^T = P^-1 B with C = P^-1 - mu T.  tau1 and H are symmetric
    kernels, so C is weight-symmetric: S = W^1/2 C W^-1/2 is symmetric up to
    rounding, and its ``eigh`` S = Q Theta Q^T gives C = V Theta V^-1 with
    V = W^-1/2 Q, kappa_2(V) <= sqrt(w_max / w_min).  Row i of Y = V^-1 X
    then solves (theta_i I - mu M) y_i = (V^-1 P^-1 B)_i; all nx rows go to
    one batched solve.  M is never diagonalized: heat's M is Volterra-like
    and far from normal.

    ``eigh`` reads the symmetric part of S, so the asymmetry must be
    rounding.  The computed P^-1 carries a forward error of order
    nx eps kappa(P) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, ch. 14), and T's sums round far below that; so this
    returns None, and the caller takes the dense route, when
    ||S - S^T||_F > nx eps kappa_F(P) ||S||_F with
    kappa_F(P) = ||P||_F ||P^-1||_F >= kappa_2(P).  On membrane and heat the
    asymmetry stays below 1% of that bound from nx = 8 to 128; a product rule
    too short for the grid left 6e-4 at nx = 128.
    """
    sw, P_inv = np.sqrt(w), np.linalg.inv(P)
    S = sw[:, None] * (P_inv - mu * T) / sw[None, :]
    kappa = np.linalg.norm(P) * np.linalg.norm(P_inv)
    if np.linalg.norm(S - S.T) > P.shape[0] * np.finfo(float).eps * kappa * np.linalg.norm(S):
        return None
    theta, Q = np.linalg.eigh(0.5 * (S + S.T))
    to_modes = (Q.T * sw) @ P_inv                       # V^-1 P^-1
    K = np.broadcast_to(-mu * M, (theta.size,) + M.shape).copy()
    diag = np.arange(M.shape[0])
    K[:, diag, diag] += theta[:, None]

    def solve(B: np.ndarray) -> np.ndarray:
        Y = np.linalg.solve(K, (to_modes @ B)[:, :, None])[:, :, 0]
        return (Q / sw[:, None]) @ Y
    return solve


def method2d_solve(reduction: Bvp2DReduction, params: MethodParams,
                   nx: int = 24, ny: int = 24,
                   verify_threshold: float = 0.05) -> Method2DResult:
    """Grid-route reformulation of the 2D first-kind equation.

    y acts as a parameter: the Poisson smoothing applies along x only, through
    the 1D route's workspace stages with x on axis 0.  The Nystrom system
    (I - mu A) psi couples all nx*ny unknowns.

    When neither tau stack varies (membrane, heat), A has Kronecker structure
    and ``_fast_solver`` solves the system exactly by fast diagonalization:
    one nx-square ``eigh`` and nx batched ny-square solves.  P = I + lam H_w is
    invertible because the lambda-exclusion check keeps lam off the excluded
    families, C = P^-1 - mu T1 is weight-symmetric, and the x-side eigenbasis
    V has kappa_2(V) <= sqrt(w_max / w_min).  The gate is unchanged: a bound on
    ||A||_2 from the Kronecker factors (``_kronecker_norm_bound``) certifies
    I - mu A when |mu| times it is at most 1/2, and the given mu or the first
    candidate certified that way (``certified_mu``) needs no dense A at all.
    Otherwise the dense A is built once and ``gate_mu`` checks it; the solves
    still take the fast path.  A varying tau stack, or a C whose weighted
    asymmetry exceeds rounding, takes the dense route: two LU solves of
    I - mu A.

    MAX_2D_UNKNOWNS caps the dense matrix, so the dense route and the dense
    SVD gate need nx*ny <= MAX_2D_UNKNOWNS.  Every request needs its largest
    fast-path array, the (nx, ny, ny) stack of theta_i I - mu M and the
    nx-square blocks, to fit in as many floats as that dense matrix holds.

    The tau stacks T1 and T2 are assembled once, here; ``verify2d`` and the
    result (for ``reconstruct_u``) take them as they are.
    """
    if max(nx * ny * ny, nx * nx) > MAX_2D_UNKNOWNS ** 2:
        raise ConfigError(f"{nx}x{ny} needs more than {MAX_2D_UNKNOWNS ** 2} floats per array")
    gx = gauss_legendre(nx, 0.0, 1.0)
    gy = gauss_legendre(ny, 0.0, 1.0)
    ws = _Workspace(params, n=nx)
    T1 = _tau_stack(reduction, "x", gx, gy.nodes)
    T2 = _tau_stack(reduction, "y", gy, gx.nodes)
    constant = T1.strides[0] == 0 and T2.strides[0] == 0
    # N = tau1 + lam * H tau1, composed along x for each y_j (one matrix when constant)
    N = ws.smooth(T1[0] if constant else T1)
    lamH = params.poisson.lam * ws.H_w

    def dense_A() -> np.ndarray:
        if nx * ny > MAX_2D_UNKNOWNS:
            raise ConfigError(f"{nx}x{ny} exceeds the dense cap of {MAX_2D_UNKNOWNS} unknowns")
        # A[i, j, k, l] couples psi(x_i, y_j) to psi(x_k, y_l)
        A = np.zeros((nx * ny, nx * ny))
        A4 = A.reshape(nx, ny, nx, ny)
        jj, ii = np.arange(ny), np.arange(nx)
        A4[:, jj, :, jj] += N
        A4[ii, :, ii, :] += T2
        # cross block T = lam H(x, xi) tau2(xi, y, eta)
        A4 += lamH[:, None, :, None] * T2.transpose(1, 0, 2)[None]
        return A

    bound = _kronecker_norm_bound(N, lamH, T2[0]) if constant else None
    mu, gated = certified_mu(params.mu, bound), None
    if mu is None:
        mu, gated = gate_mu(dense_A(), params.mu)
    solve = _fast_solver(np.eye(nx) + lamH, T1[0], T2[0], mu, gx.weights) if constant else None
    if solve is None:
        gated = np.eye(nx * ny) - mu * dense_A() if gated is None else gated
        solve = lambda B: np.linalg.solve(gated, B.reshape(-1)).reshape(nx, ny)
    F = _free_term(reduction, gx.nodes, gy.nodes)
    psi1 = solve(ws.F1(mu, F))
    psi0 = solve(ws.F0(ws.kappa(ws.rho(psi1))))
    psi = GridFunction2D(gx, gy, psi0 + psi1)
    report = verify2d(reduction, psi, T1, T2, threshold=verify_threshold)
    return Method2DResult(psi=psi,
                          psi0=GridFunction2D(gx, gy, psi0),
                          psi1=GridFunction2D(gx, gy, psi1),
                          report=report, mu=mu, T1=T1, T2=T2)


def verify2d(reduction: Bvp2DReduction, psi: GridFunction2D, T1: np.ndarray,
             T2: np.ndarray, threshold: float = 0.05) -> ResidualReport:
    """Substitute psi into the 2D first-kind equation and threshold the residual.

    The left-hand side is ``forward2d`` on T1 and T2, the tau stacks on psi's
    grid.  ``method2d_solve`` passes the stacks its solve used: the same
    kernels assembled again on the same grid would give the same bits, so
    this checks the solve's arithmetic against its operator, not a second
    discretization of it.
    """
    lhs = forward2d(psi, T1, T2)
    F = _free_term(reduction, psi.x_grid.nodes, psi.y_grid.nodes)
    residual = GridFunction2D(psi.x_grid, psi.y_grid, lhs.values - F).l2_norm()
    return _verdict(residual, GridFunction2D(psi.x_grid, psi.y_grid, F).l2_norm(), threshold)
