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
from .fredholm2 import SecondKindSystem, gate_mu, solve_direct
from .grid import (MIN_PRODUCT_ORDER, GridFunction, Grid1D, gauss_legendre,
                   interp_matrix, operator_matrix)
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
    """Kernels and free term of the reduced 2D first-kind equation."""

    name: str
    tau1: object
    tau2: object
    free_term: object

    def tau1_depends_on_y(self) -> bool:
        probe = [self.tau1(0.37, y, 0.61) for y in (0.21, 0.84)]
        return abs(float(probe[0]) - float(probe[1])) > 1e-14

    def tau2_depends_on_x(self) -> bool:
        probe = [self.tau2(x, 0.37, 0.21) for x in (0.29, 0.73)]
        return abs(float(probe[0]) - float(probe[1])) > 1e-14


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
    psi: GridFunction2D
    psi0: GridFunction2D
    psi1: GridFunction2D
    report: ResidualReport
    mu: float


def _volterra_cumulative(grid: Grid1D) -> np.ndarray:
    # rows of int_0^x (x - xi) g(xi) d xi by product integration
    return operator_matrix(lambda x, xi: x - xi, grid, volterra=True)


def reduce_ode_volterra(a, f, n: int = 64) -> tuple[GridFunction, GridFunction]:
    """Volterra route for u'' - a u = f, u'(0) = u(1) = 0; returns (psi, u)."""
    grid = gauss_legendre(n, 0.0, 1.0)
    kern = lambda x, xi: np.asarray(a(x), dtype=float) * (x - xi)
    V = operator_matrix(kern, grid, volterra=True)
    M = np.eye(grid.n) - V
    av = np.asarray(a(grid.nodes), dtype=float)
    fv = np.asarray(f(grid.nodes), dtype=float)
    psi_f = np.linalg.solve(M, fv)      # response to the load term
    psi_a = np.linalg.solve(M, av)      # response to the c0 a(x) term
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

    psi = solve_direct(SecondKindSystem(kern, f, 1.0, grid, diag_split=True)).values
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


def _blocks(kernel_at, grid: Grid1D, points, varies: bool, quad_order: int) -> list:
    # product-integration matrix of kernel_at(s) on grid for each s in points;
    # one shared matrix when the kernel does not vary with s
    def build(s):
        return operator_matrix(kernel_at(s), grid, diag_split=True, quad_order=quad_order)
    return [build(s) for s in points] if varies else [build(points[0])] * len(points)


def _tau1_blocks(reduction, gx: Grid1D, ys, quad_order: int) -> list:
    """Matrices of xi -> tau1(x, y, xi) on gx, one per y in ys."""
    return _blocks(lambda y: lambda x, xi: reduction.tau1(x, y, xi), gx, ys,
                   reduction.tau1_depends_on_y(), quad_order)


def _tau2_blocks(reduction, gy: Grid1D, xs, quad_order: int) -> list:
    """Matrices of eta -> tau2(x, y, eta) on gy, one per x in xs."""
    return _blocks(lambda x: lambda y, eta: reduction.tau2(x, y, eta), gy, xs,
                   reduction.tau2_depends_on_x(), quad_order)


def forward2d(reduction: Bvp2DReduction, psi: GridFunction2D,
              quad_order: int = 32) -> GridFunction2D:
    """Left-hand side of the reduced first-kind equation, sampled on psi's grid."""
    gx, gy = psi.x_grid, psi.y_grid
    out = np.zeros((gx.n, gy.n))
    for j, rows in enumerate(_tau1_blocks(reduction, gx, gy.nodes, quad_order)):
        out[:, j] += rows @ psi.values[:, j]
    for i, rows in enumerate(_tau2_blocks(reduction, gy, gx.nodes, quad_order)):
        out[i, :] += rows @ psi.values[i, :]
    return GridFunction2D(gx, gy, out)


def reconstruct_u(reduction: Bvp2DReduction, psi: GridFunction2D, which: str = "x",
                  boundary_corrected: bool = False, quad_order: int = 32) -> GridFunction2D:
    """Field u from psi via one representation.

    'x' integrates tau1 against psi (vanishes where tau1 does); 'y' uses
    f - the tau2 integral.  Boundary correction subtracts the linear blend of
    the values on the other pair of edges.
    """
    if which not in ("x", "y"):
        raise ConfigError(f"route must be 'x' or 'y', got {which!r}")
    gx, gy = psi.x_grid, psi.y_grid
    vals = np.zeros((gx.n, gy.n))
    if which == "x":
        for j, rows in enumerate(_tau1_blocks(reduction, gx, gy.nodes, quad_order)):
            vals[:, j] = rows @ psi.values[:, j]
        if boundary_corrected:
            vals = vals - _edge_blend_y(reduction, psi, quad_order)
    else:
        F = np.asarray(reduction.free_term(gx.nodes[:, None], gy.nodes[None, :]), dtype=float)
        for i, rows in enumerate(_tau2_blocks(reduction, gy, gx.nodes, quad_order)):
            vals[i, :] = F[i, :] - rows @ psi.values[i, :]
        if boundary_corrected:
            vals = vals - _edge_blend_x(reduction, psi, quad_order)
    return GridFunction2D(gx, gy, vals)


def _edge_blend_y(reduction, psi, quad_order):
    # (1 - y) u(x, 0) + y u(x, 1), edges evaluated from the same representation
    gx, gy = psi.x_grid, psi.y_grid
    Ly = interp_matrix(gy.nodes, np.array([0.0, 1.0]))
    edge = np.zeros((gx.n, 2))
    for col, rows in enumerate(_tau1_blocks(reduction, gx, (0.0, 1.0), quad_order)):
        edge[:, col] = rows @ (psi.values @ Ly[col])
    y = gy.nodes[None, :]
    return edge[:, [0]] * (1.0 - y) + edge[:, [1]] * y


def _edge_blend_x(reduction, psi, quad_order):
    gx, gy = psi.x_grid, psi.y_grid
    Lx = interp_matrix(gx.nodes, np.array([0.0, 1.0]))
    F = np.asarray(reduction.free_term(np.array([0.0, 1.0])[:, None], gy.nodes[None, :]),
                   dtype=float)
    edge = np.zeros((2, gy.n))
    for row, rows in enumerate(_tau2_blocks(reduction, gy, (0.0, 1.0), quad_order)):
        edge[row, :] = F[row, :] - rows @ (Lx[row] @ psi.values)
    x = gx.nodes[:, None]
    return (1.0 - x) * edge[[0], :] + x * edge[[1], :]


def closure_delta(U1: GridFunction2D, U2: GridFunction2D) -> float:
    """Relative disagreement 2 ||U1 - U2|| / ||U1 + U2|| of the two routes."""
    diff = GridFunction2D(U1.x_grid, U1.y_grid, U1.values - U2.values)
    summ = GridFunction2D(U1.x_grid, U1.y_grid, U1.values + U2.values)
    denom = summ.l2_norm()
    if denom <= 1e-14:
        raise UndefinedDeltaError("both reconstructions vanish; delta undefined")
    return 2.0 * diff.l2_norm() / denom


def method2d_solve(reduction: Bvp2DReduction, params: MethodParams,
                   nx: int = 24, ny: int = 24, mu_candidates=None,
                   verify_threshold: float = 0.05) -> Method2DResult:
    """Grid-route reformulation of the 2D first-kind equation.

    y acts as a parameter: the Poisson smoothing applies along x only, through
    the 1D route's workspace stages with x on axis 0.  The Nystrom system
    couples all nx*ny unknowns densely (capped at MAX_2D_UNKNOWNS).
    """
    gx = gauss_legendre(nx, 0.0, 1.0)
    gy = gauss_legendre(ny, 0.0, 1.0)
    ws = _Workspace(params, grid01=gx, gridm=gauss_legendre(nx, -1.0, 0.0))
    if nx * ny > MAX_2D_UNKNOWNS:
        raise ConfigError(f"{nx}x{ny} exceeds the dense cap of {MAX_2D_UNKNOWNS} unknowns")
    q = max(MIN_PRODUCT_ORDER, params.quad_order // 2)
    tau2_rows = _tau2_blocks(reduction, gy, gx.nodes, q)
    A = np.zeros((nx * ny, nx * ny))
    for j, rows in enumerate(_tau1_blocks(reduction, gx, gy.nodes, q)):
        # N = tau1 + lam * H tau1; discrete composition along x
        idx = np.arange(nx) * ny + j
        A[np.ix_(idx, idx)] += ws.smooth(rows)
    for i, rows in enumerate(tau2_rows):
        idx = i * ny + np.arange(ny)
        A[np.ix_(idx, idx)] += rows
    # cross block T = lam H(x, xi) tau2(xi, y, eta)
    lam = params.poisson.lam
    for i in range(nx):
        for k in range(nx):
            A[i * ny:(i + 1) * ny, k * ny:(k + 1) * ny] += lam * ws.H_w[i, k] * tau2_rows[k]

    mu, M = gate_mu(A, params.mu, mu_candidates)
    F = np.asarray(reduction.free_term(gx.nodes[:, None], gy.nodes[None, :]), dtype=float)
    psi1 = np.linalg.solve(M, ws.F1(mu, F).reshape(-1)).reshape(nx, ny)
    F0 = ws.F0(ws.kappa(ws.rho(psi1)))
    psi0 = np.linalg.solve(M, F0.reshape(-1)).reshape(nx, ny)
    psi = GridFunction2D(gx, gy, psi0 + psi1)
    report = verify2d(reduction, psi, threshold=verify_threshold)
    return Method2DResult(psi=psi,
                          psi0=GridFunction2D(gx, gy, psi0),
                          psi1=GridFunction2D(gx, gy, psi1),
                          report=report, mu=mu)


def verify2d(reduction: Bvp2DReduction, psi: GridFunction2D,
             threshold: float = 0.05, quad_order: int = 32) -> ResidualReport:
    """Substitute psi into the 2D first-kind equation and threshold the residual."""
    lhs = forward2d(reduction, psi, quad_order=quad_order)
    F = np.asarray(reduction.free_term(psi.x_grid.nodes[:, None],
                                       psi.y_grid.nodes[None, :]), dtype=float)
    residual = GridFunction2D(psi.x_grid, psi.y_grid, lhs.values - F).l2_norm()
    return _verdict(residual, GridFunction2D(psi.x_grid, psi.y_grid, F).l2_norm(), threshold)
