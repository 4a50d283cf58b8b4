"""Second-kind reformulation of the first-kind problem.

Two routes are provided.  The grid route (``method_v2``) runs the chain

    K  = k + lam * int_0^1 H(x, z) k(z, xi) dz
    F1 = -mu [f + lam * int_0^1 H f]
    psi1 solves  psi = mu * int K psi + F1          on [0, 1]
    rho(x)   = -lam * int_0^1 h(x, xi) psi1(xi) d xi     on [-1, 0)
    kappa    = rho + Lambda * int_-1^0 L(x, xi) rho(xi) d xi
    F0(x)    = lam * int_-1^0 H(x, xi) kappa(xi) d xi    on [0, 1]
    psi0 solves  psi = mu * int K psi + F0          (same K, same mu)
    psi = psi0 + psi1

The Fourier route (``method_v1``) works at the r -> 1 limit in
trigonometric coefficients, all in the layout [1 | cos | sin] of
``kernel_fourier_coeffs``: a (2N+1) x (2N+1) linear system for the
coefficients of psi1, then closed-form multipliers to the coefficients of
psi, which is evaluated on the grid the other routes use.  Reconstruction
quality of either route is an empirical question; ``verify_solution``
measures it by substituting the output back into the first-kind equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fredholm2
from .errors import ConfigError, NoValidMuError, require_finite, require_order
from .fredholm2 import gate_mu, solve_direct
from .grid import (GridFunction, Grid1D, _kept, _trig_table, apply_operator, fourier_coeffs,
                   gauss_legendre, kernel_fourier_coeffs, operator_matrix)
from .kernels import PoissonParams, kernel_matrix
from .problems import FirstKindProblem

__all__ = [
    "MethodParams",
    "PipelineState",
    "ResidualReport",
    "select_mu",
    "method_v2",
    "method_v2_single",
    "method_v1",
    "verify_solution",
]

# Gauss nodes of every 1D verification, independent of the solver's grid
VERIFY_ORDER = 96


@dataclass(frozen=True)
class MethodParams:
    """Reformulation parameters: Poisson pair (r, lambda), mu, and the grid size
    n_out, which is also method_v1's quadrature order."""

    poisson: PoissonParams
    mu: float | None = None
    n_out: int = 64

    @classmethod
    def create(cls, r: float = 0.5, lam: float = 0.2, mu: float | None = None,
               n_out: int = 64) -> "MethodParams":
        require_finite(lam=lam, mu=mu)
        require_order(n_out=n_out)
        return cls(poisson=PoissonParams.create(r=r, lam=lam), mu=mu, n_out=n_out)


@dataclass(frozen=True)
class PipelineState:
    """Intermediates of a grid-route run; psi = psi0 + psi1 holds exactly."""

    psi1: GridFunction
    rho: GridFunction
    kappa: GridFunction
    F0: GridFunction
    F1: GridFunction
    psi0: GridFunction
    psi: GridFunction
    residual_l2: float
    relative_residual: float
    mu: float


@dataclass(frozen=True)
class ResidualReport:
    """Solvability verdict from substituting a candidate back into A psi = f."""

    residual_l2: float
    relative: float
    solvable: str
    threshold: float


class _Workspace:
    """Grids and dense operator blocks of one grid-route request.

    Each block is built when a stage first needs it (H_w, A_K and M stay on
    the workspace, the others serve one stage), so a request pays only for
    the stages it runs.  ``gate`` checks I - mu A_K once; every solve reuses
    that M.
    The grids have ``n`` Gauss nodes on [0, 1] and on [-1, 0] (params.n_out
    by default).  The stages act along axis 0 (the grid), so values with
    trailing axes, such as the 2D route's (nx, ny) arrays, pass through
    unchanged.

    When the problem's kernel is a value (``grid._PureKernel``), the parts
    fixed by the operator live in grid's one matrix store (``grid._kept``)
    under that kernel: the weighted Poisson blocks and the gate's verdict.
    A repeated request with the same kernel, grid and (r, lambda) then sums
    no series and runs no SVD.  Any other kernel, and a workspace without a
    problem (the 2D route's), builds every part afresh and keeps nothing.
    """

    def __init__(self, params: MethodParams, problem: FirstKindProblem | None = None,
                 n: int | None = None):
        self.params = params
        self.problem = problem
        self.kernel = None if problem is None else problem.kernel
        n = params.n_out if n is None else n
        self.grid01 = gauss_legendre(n, 0.0, 1.0)
        self.gridm = gauss_legendre(n, -1.0, 0.0)

    def _block(self, kind: str, out_grid: Grid1D, in_grid: Grid1D) -> np.ndarray:
        # kind(out, in) times the in-grid's weights, read-only when kept.  The
        # block depends only on the key, yet is kept per kernel (``_kept``
        # keeps nothing without one), so two kernels hold equal copies
        key = ("poisson", kind, out_grid.nodes.tobytes(), (out_grid.a, out_grid.b),
               in_grid.nodes.tobytes(), (in_grid.a, in_grid.b), self.params.poisson)
        return _kept(self.kernel, key, lambda: (
            kernel_matrix(kind, self.params.poisson, out_grid.nodes, in_grid.nodes)
            * in_grid.weights[None, :]))

    @cached_property
    def H_w(self) -> np.ndarray:
        return self._block("H", self.grid01, self.grid01)

    @cached_property
    def A_K(self) -> np.ndarray:
        # discrete composition of K = k + lam * H k; exact in the grid algebra
        return self.smooth(operator_matrix(self.kernel, self.grid01,
                                           diag_split=self.problem.diag_split))

    def smooth(self, values: np.ndarray) -> np.ndarray:
        """values + lam int_0^1 H(x, xi) values(xi) d xi."""
        return values + self.params.poisson.lam * (self.H_w @ values)

    @cached_property
    def M(self) -> np.ndarray:
        # I - mu A_K for the gated mu
        return np.eye(self.grid01.n) - self.mu * self.A_K

    def gate(self, mu: float | None = None) -> float:
        """Gate I - mu A_K for a given mu, or probe the candidates when mu is None.

        The verdict, the mu taken, is kept in the matrix store under the
        kernel, diag_split, the grid's nodes, the Poisson pair, and the given
        mu or else the candidate tuple as it reads at this call.  A warm gate
        runs no SVD and touches no matrix.  Cold or warm, M is formed from
        A_K when a solve first needs it.  A refused mu raises and is never
        kept.
        """
        asked = tuple(fredholm2.DEFAULT_MU_CANDIDATES) if mu is None else mu
        key = ("gate", bool(self.problem.diag_split), self.grid01.nodes.tobytes(),
               self.params.poisson, asked)
        taken = _kept(self.kernel, key, lambda: np.array([gate_mu(self.A_K, mu)[0]]))
        self.mu = float(taken[0]) if mu is None else mu
        return self.mu

    def f_values(self) -> np.ndarray:
        return np.asarray(self.problem.free_term(self.grid01.nodes), dtype=float)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """psi with (I - mu A_K) psi = rhs for the gated mu; rhs is (n,) or (n, k)."""
        return solve_direct(self.M, rhs)

    def F1(self, mu: float, f: np.ndarray) -> np.ndarray:
        return -mu * self.smooth(f)

    def rho(self, psi1: np.ndarray) -> np.ndarray:
        return -self.params.poisson.lam * (self._block("h", self.gridm, self.grid01) @ psi1)

    def kappa(self, rho: np.ndarray) -> np.ndarray:
        return rho + self.params.poisson.Lambda * (self._block("L", self.gridm, self.gridm) @ rho)

    def F0(self, kappa: np.ndarray) -> np.ndarray:
        return self.params.poisson.lam * (self._block("H", self.grid01, self.gridm) @ kappa)

    def single(self, psi1: np.ndarray) -> np.ndarray:
        Lambda = self.params.poisson.Lambda
        fprime = -Lambda * (self._block("l", self.grid01, self.grid01) @ psi1)
        return fprime + Lambda * (self._block("L", self.grid01, self.grid01) @ fprime)


def select_mu(problem: FirstKindProblem, params: MethodParams) -> float:
    """First candidate for which I - mu A_K stays comfortably nonsingular."""
    return _Workspace(params, problem).gate()


def method_v2(problem: FirstKindProblem, params: MethodParams) -> PipelineState:
    """Run the full grid route and measure the output's residual in A psi = f."""
    ws = _Workspace(params, problem)
    mu = ws.gate(params.mu)
    F1 = ws.F1(mu, ws.f_values())
    psi1 = ws.solve(F1)
    rho = ws.rho(psi1)
    kappa = ws.kappa(rho)
    F0 = ws.F0(kappa)
    psi0 = ws.solve(F0)
    g, gm = ws.grid01, ws.gridm
    psi = GridFunction(g, psi0 + psi1)
    report = verify_solution(problem, psi)
    return PipelineState(psi1=GridFunction(g, psi1), rho=GridFunction(gm, rho),
                         kappa=GridFunction(gm, kappa), F0=GridFunction(g, F0),
                         F1=GridFunction(g, F1), psi0=GridFunction(g, psi0), psi=psi,
                         residual_l2=report.residual_l2,
                         relative_residual=report.relative, mu=mu)


def method_v2_single(problem: FirstKindProblem,
                     params: MethodParams) -> tuple[GridFunction, float]:
    """Single-solve route: after psi1, only integrations remain.

    psi = f' + Lambda int_0^1 L f' with f'(x) = -Lambda int_0^1 l(x, xi)
    psi1(xi) d xi; algebraically this reproduces the grid route's F0.  psi1
    is solved for as in ``method_v2``, probing mu on the same workspace when
    params.mu is None.  Returns psi and the mu used.
    """
    ws = _Workspace(params, problem)
    mu = ws.gate(params.mu)
    psi1 = ws.solve(ws.F1(mu, ws.f_values()))
    return GridFunction(ws.grid01, ws.single(psi1)), mu


def _fourier_route(problem: FirstKindProblem, params: MethodParams,
                   N: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors (s, t) of psi1 and psi, each (2N+1,) in P's layout.

    Solves the truncated system for s; then t = sigma * (P [s0/2, s...] - c)
    with c the free term's coefficients and
    sigma = -mu lam^2 (1-lam) / [(1-2 lam)(1-2 lam-lam^2)].  The route's
    excluded values 0, 1, 1/2 and -1 +- sqrt2 (sigma's poles among them) are
    the zero check and the n = 0 members of the families that
    ``PoissonParams`` keeps lambda away from.
    """
    if N < 1:
        raise ConfigError(f"need n_fourier >= 1, got {N}")
    lam = params.poisson.lam
    mu = params.mu
    if mu is None:
        mu = select_mu(problem, params)
    c = fourier_coeffs(problem.free_term, N, params.n_out)
    # the moments take the kernel's matrix on this grid from the store, where a
    # cold select_mu (or an earlier request) left it
    P = kernel_fourier_coeffs(problem.kernel, N, params.n_out, diag_split=problem.diag_split)
    g = mu * (1.0 - lam)
    d = 2.0 * (1.0 - 2.0 * lam)
    # column 0 (the constant harmonic) carries -g, every other column -2g
    A = P * np.r_[-g, np.full(2 * N, -2.0 * g)]
    np.fill_diagonal(A, A.diagonal() + d)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise NoValidMuError([mu])
    s = np.linalg.solve(A, -2.0 * g * c)
    sigma = -mu * lam ** 2 * (1.0 - lam) / ((1.0 - 2.0 * lam) * (1.0 - 2.0 * lam - lam ** 2))
    return s, sigma * (P @ np.r_[0.5 * s[0], s[1:]] - c)


def method_v1(problem: FirstKindProblem, params: MethodParams,
              n_fourier: int = 16) -> GridFunction:
    """Fourier route at the r -> 1 limit: psi on gauss_legendre(n_out, 0, 1).

    psi = t0/2 + sum t_n cos(2n pi x) + t_{N+n} sin(2n pi x) from the
    coefficients t of ``_fourier_route``.
    """
    N = int(n_fourier)
    _, t = _fourier_route(problem, params, N)
    g = gauss_legendre(params.n_out, 0.0, 1.0)
    T = _trig_table(g.nodes, np.arange(1, N + 1), ones=True)
    return GridFunction(g, 0.5 * t[0] + T[:, 1:N + 1] @ t[1:N + 1] + T[:, N + 1:] @ t[N + 1:])


def verify_solution(problem: FirstKindProblem, psi, threshold: float = 0.05) -> ResidualReport:
    """Substitute psi into the first-kind equation and threshold the residual.

    The residual is taken at VERIFY_ORDER Gauss nodes, whatever grid psi
    lives on.  A grid psi is mapped by apply_operator's forward matrix, whose
    rule has at least as many points per half as psi has nodes;
    verifications with the same kernel and grids reuse that matrix.
    """
    grid = gauss_legendre(VERIFY_ORDER, 0.0, 1.0)
    forward = apply_operator(problem.kernel, grid.nodes, psi,
                             diag_split=problem.diag_split, quad_order=VERIFY_ORDER)
    fv = np.asarray(problem.free_term(grid.nodes), dtype=float)
    return _verdict(grid.l2_norm(forward - fv), grid.l2_norm(fv), threshold)


def _verdict(residual: float, fnorm: float, threshold: float) -> ResidualReport:
    """Relative residual and its verdict, shared by the 1D and 2D filters.

    solvable: 'no' above threshold, 'yes' below threshold/10, else 'unknown'.
    Raises NonFiniteValueError when the residual, ||f|| or the threshold is
    not finite, so a NaN never produces a verdict.
    """
    require_finite(residual=residual, free_term_norm=fnorm, threshold=threshold)
    if fnorm > 0.0:
        relative = residual / fnorm
    else:
        relative = 0.0 if residual == 0.0 else np.inf
    if relative > threshold:
        verdict = "no"
    elif relative < threshold / 10.0:
        verdict = "yes"
    else:
        verdict = "unknown"
    return ResidualReport(residual_l2=float(residual), relative=float(relative),
                          solvable=verdict, threshold=float(threshold))
