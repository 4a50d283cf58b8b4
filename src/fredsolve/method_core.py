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

The Fourier route (``method_v1``) works at the r -> 1 limit entirely in
trigonometric coefficients: a (2N+1) x (2N+1) linear system for the
coefficients of psi1, then closed-form multipliers to the coefficients of
psi.  Reconstruction quality of either route is an empirical question;
``verify_solution`` measures it by substituting the output back into the
first-kind equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigError, NoValidMuError, ParameterExclusionError, require_finite,
                     require_order)
from .fredholm2 import SecondKindSystem, gate_mu, solve_direct
from .grid import (FourierCoeffs, GridFunction, Grid1D, KernelFourierCoeffs,
                   apply_operator, fourier_coeffs, gauss_legendre,
                   kernel_fourier_coeffs, operator_matrix)
from .kernels import PoissonParams, kernel_matrix, require_lambda_valid
from .problems import FirstKindProblem

__all__ = [
    "MethodParams",
    "PipelineState",
    "FourierState",
    "ResidualReport",
    "select_mu",
    "build_F1",
    "solve_psi1",
    "build_rho",
    "build_kappa",
    "build_F0",
    "method_v2",
    "method_v2_single",
    "method_v1",
    "verify_solution",
]


@dataclass(frozen=True)
class MethodParams:
    """Reformulation parameters: Poisson pair (r, lambda), mu, and the grid size
    n_out, which is also method_v1's quadrature order and method_v2's verifier floor."""

    poisson: PoissonParams
    mu: float | None = None
    n_out: int = 64
    min_rel_dist: float = 1e-3

    @classmethod
    def create(cls, r: float = 0.5, lam: float = 0.2, mu: float | None = None,
               n_out: int = 64, min_rel_dist: float = 1e-3) -> "MethodParams":
        require_finite(lam=lam, mu=mu)
        require_order(n_out=n_out)
        poisson = PoissonParams.create(r=r, lam=lam)
        require_lambda_valid(poisson, min_rel_dist)
        return cls(poisson=poisson, mu=mu, n_out=n_out, min_rel_dist=min_rel_dist)


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
    reconstruction_error: float | None = None


@dataclass(frozen=True)
class FourierState:
    """Fourier-route output: coefficient sets of f, k, psi1, phi1', psi."""

    c: FourierCoeffs
    p: KernelFourierCoeffs
    s: FourierCoeffs
    a: FourierCoeffs
    t: FourierCoeffs
    sigma: float

    def evaluate(self, x):
        return self.t.evaluate(x)


@dataclass(frozen=True)
class ResidualReport:
    """Solvability verdict from substituting a candidate back into A psi = f."""

    residual_l2: float
    relative: float
    solvable: str
    threshold: float


class _Workspace:
    """Grids and dense operator blocks of one grid-route request.

    Each block is built when a stage first needs it (H_w and A_K are kept,
    the others serve one stage), so a request pays only for the stages it
    runs.  I - mu A_K is gated once per mu and kept for every solve with that
    mu.  The stages act along axis 0 (the grid), so values with trailing
    axes, such as the 2D route's (nx, ny) arrays, pass through unchanged.
    """

    def __init__(self, params: MethodParams, problem: FirstKindProblem | None = None,
                 grid01: Grid1D | None = None, gridm: Grid1D | None = None):
        require_lambda_valid(params.poisson, params.min_rel_dist)
        self.params = params
        self.problem = problem
        self.grid01 = grid01 if grid01 is not None else gauss_legendre(params.n_out, 0.0, 1.0)
        self.gridm = gridm if gridm is not None else gauss_legendre(params.n_out, -1.0, 0.0)
        self.mu = self.M = None

    def _block(self, kind: str, out_grid: Grid1D, in_grid: Grid1D) -> np.ndarray:
        return kernel_matrix(kind, self.params.poisson, out_grid.nodes, in_grid.nodes,
                             self.params.min_rel_dist) * in_grid.weights[None, :]

    @cached_property
    def H_w(self) -> np.ndarray:
        return self._block("H", self.grid01, self.grid01)

    @cached_property
    def A_K(self) -> np.ndarray:
        # discrete composition of K = k + lam * H k; exact in the grid algebra
        return self.smooth(operator_matrix(self.problem.kernel, self.grid01,
                                           diag_split=self.problem.diag_split))

    def smooth(self, values: np.ndarray) -> np.ndarray:
        """values + lam int_0^1 H(x, xi) values(xi) d xi."""
        return values + self.params.poisson.lam * (self.H_w @ values)

    def gate(self, mu: float | None = None, candidates=None) -> float:
        """Gate I - mu A_K for a given mu, or probe candidates when mu is None."""
        self.mu, self.M = gate_mu(self.A_K, mu, candidates)
        return self.mu

    def f_values(self) -> np.ndarray:
        return np.asarray(self.problem.free_term(self.grid01.nodes), dtype=float)

    def solve(self, mu: float, rhs: np.ndarray) -> np.ndarray:
        if mu != self.mu:
            self.gate(mu)
        system = SecondKindSystem(kernel=None, free_term=lambda x: rhs,
                                  mu=mu, grid=self.grid01)
        return solve_direct(system, matrix=self.M).values

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


def select_mu(problem: FirstKindProblem, params: MethodParams, candidates=None) -> float:
    """First candidate for which I - mu A_K stays comfortably nonsingular."""
    return _Workspace(params, problem).gate(None, candidates)


def build_F1(f, params: MethodParams, grid: Grid1D | None = None) -> GridFunction:
    """F1 = -mu [f + lam int_0^1 H(x, xi) f(xi) d xi] on the solve grid."""
    if params.mu is None:
        raise ConfigError("build_F1 needs mu; run select_mu first")
    ws = _Workspace(params, grid01=grid)
    fv = np.asarray(f(ws.grid01.nodes), dtype=float)
    return GridFunction(ws.grid01, ws.F1(params.mu, fv))


def solve_psi1(problem: FirstKindProblem, params: MethodParams) -> GridFunction:
    """Solve the data-only second-kind equation for psi1."""
    if params.mu is None:
        raise ConfigError("solve_psi1 needs mu; run select_mu first")
    ws = _Workspace(params, problem)
    return GridFunction(ws.grid01, ws.solve(params.mu, ws.F1(params.mu, ws.f_values())))


def build_rho(psi1: GridFunction, params: MethodParams) -> GridFunction:
    """rho(x) = -lam int_0^1 h(x, xi) psi1(xi) d xi, sampled on [-1, 0]."""
    ws = _Workspace(params, grid01=psi1.grid)
    return GridFunction(ws.gridm, ws.rho(psi1.values))


def build_kappa(rho: GridFunction, params: MethodParams) -> GridFunction:
    """kappa = rho + Lambda int_-1^0 L(x, xi) rho(xi) d xi."""
    return GridFunction(rho.grid, _Workspace(params, gridm=rho.grid).kappa(rho.values))


def build_F0(kappa: GridFunction, params: MethodParams,
             grid: Grid1D | None = None) -> GridFunction:
    """F0(x) = lam int_-1^0 H(x, xi) kappa(xi) d xi on [0, 1]."""
    ws = _Workspace(params, grid01=grid, gridm=kappa.grid)
    return GridFunction(ws.grid01, ws.F0(kappa.values))


def method_v2(problem: FirstKindProblem, params: MethodParams,
              mu_candidates=None, verify_threshold: float = 0.05) -> PipelineState:
    """Run the full grid route and verify the output against A psi = f."""
    ws = _Workspace(params, problem)
    mu = ws.gate(params.mu, mu_candidates)
    F1 = ws.F1(mu, ws.f_values())
    psi1 = ws.solve(mu, F1)
    rho = ws.rho(psi1)
    kappa = ws.kappa(rho)
    F0 = ws.F0(kappa)
    psi0 = ws.solve(mu, F0)
    g, gm = ws.grid01, ws.gridm
    psi = GridFunction(g, psi0 + psi1)
    report = verify_solution(problem, psi, threshold=verify_threshold,
                             quad_order=max(96, params.n_out))
    recon = None
    if problem.psi_star is not None:
        recon = g.l2_norm(psi.values - np.asarray(problem.psi_star(g.nodes), dtype=float))
    return PipelineState(psi1=GridFunction(g, psi1), rho=GridFunction(gm, rho),
                         kappa=GridFunction(gm, kappa), F0=GridFunction(g, F0),
                         F1=GridFunction(g, F1), psi0=GridFunction(g, psi0), psi=psi,
                         residual_l2=report.residual_l2,
                         relative_residual=report.relative,
                         mu=mu, reconstruction_error=recon)


def method_v2_single(problem: FirstKindProblem, params: MethodParams,
                     psi1: GridFunction | None = None) -> tuple[GridFunction, float | None]:
    """Single-solve route: after psi1, only integrations remain.

    psi = f' + Lambda int_0^1 L f' with f'(x) = -Lambda int_0^1 l(x, xi)
    psi1(xi) d xi; algebraically this reproduces the grid route's F0.
    Without psi1 it solves for psi1, probing mu on the same workspace when
    params.mu is None.  Returns psi and the mu used (params.mu when psi1 is
    given).
    """
    if psi1 is not None:
        ws, mu = _Workspace(params, grid01=psi1.grid), params.mu
    else:
        ws = _Workspace(params, problem)
        mu = ws.gate(params.mu)
        psi1 = GridFunction(ws.grid01, ws.solve(mu, ws.F1(mu, ws.f_values())))
    return GridFunction(ws.grid01, ws.single(psi1.values)), mu


# r = 1 exclusion points of the Fourier route
_R1_EXCLUDED = (("zero", 0.0), ("one", 1.0), ("one-half", 0.5),
                ("-1+sqrt2", -1.0 + np.sqrt(2.0)), ("-1-sqrt2", -1.0 - np.sqrt(2.0)))


def _check_lambda_r1(lam: float, min_rel_dist: float) -> None:
    for name, value in _R1_EXCLUDED:
        dist = abs(lam - value) if value == 0.0 else abs(lam - value) / abs(value)
        if dist < min_rel_dist:
            raise ParameterExclusionError(lam, f"{name} (r=1)", 0, value, dist)


def method_v1(problem: FirstKindProblem, params: MethodParams,
              n_fourier: int = 16) -> FourierState:
    """Fourier route at the r -> 1 limit.

    Solves the truncated (2N+1)-coefficient system for psi1's coefficients s,
    then maps them to psi's coefficients t = sigma * b with
    sigma = -mu lam^2 (1-lam) / [(1-2 lam)(1-2 lam-lam^2)].
    """
    lam = params.poisson.lam
    _check_lambda_r1(lam, params.min_rel_dist)
    mu = params.mu
    if mu is None:
        mu = select_mu(problem, params)
    N = int(n_fourier)
    if N < 1:
        raise ConfigError(f"need n_fourier >= 1, got {N}")
    c = fourier_coeffs(problem.free_term, N, params.n_out)
    pk = kernel_fourier_coeffs(problem.kernel, N, params.n_out,
                               diag_split=problem.diag_split)
    g = mu * (1.0 - lam)
    d = 2.0 * (1.0 - 2.0 * lam)
    # column 0 (the constant harmonic) carries -g, every other column -2g
    A = np.block([[pk.p00, pk.row0_cos, pk.row0_sin],
                  [pk.col0_cos[:, None], pk.cc, pk.cs],
                  [pk.col0_sin[:, None], pk.sc, pk.ss]]) * np.r_[-g, np.full(2 * N, -2.0 * g)]
    np.fill_diagonal(A, A.diagonal() + d)
    b = -2.0 * g * np.concatenate(([c.c0], c.cn, c.cn_prime))
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise NoValidMuError([mu])
    sol = np.linalg.solve(A, b)
    s = FourierCoeffs(c0=sol[0], cn=sol[1:N + 1], cn_prime=sol[N + 1:])
    b0 = 0.5 * s.c0 * pk.p00 + float(pk.row0_cos @ s.cn + pk.row0_sin @ s.cn_prime) - c.c0
    bn = 0.5 * s.c0 * pk.col0_cos + pk.cc @ s.cn + pk.cs @ s.cn_prime - c.cn
    bpn = 0.5 * s.c0 * pk.col0_sin + pk.sc @ s.cn + pk.ss @ s.cn_prime - c.cn_prime
    sigma = -mu * lam ** 2 * (1.0 - lam) / ((1.0 - 2.0 * lam) * (1.0 - 2.0 * lam - lam ** 2))
    scale = mu * lam / (1.0 - 2.0 * lam)
    return FourierState(
        c=c, p=pk, s=s,
        a=FourierCoeffs(c0=scale * b0, cn=scale * bn, cn_prime=scale * bpn),
        t=FourierCoeffs(c0=sigma * b0, cn=sigma * bn, cn_prime=sigma * bpn),
        sigma=sigma,
    )


def verify_solution(problem: FirstKindProblem, psi, threshold: float = 0.05,
                    quad_order: int = 96) -> ResidualReport:
    """Substitute psi into the first-kind equation and threshold the residual.

    The residual is taken at ``quad_order`` Gauss nodes.  A grid psi is
    mapped by apply_operator's forward matrix, whose rule has at least as
    many points per half as psi has nodes; verifications with the same
    kernel and grids reuse that matrix.
    """
    grid = gauss_legendre(quad_order, 0.0, 1.0)
    forward = apply_operator(problem.kernel, grid.nodes, psi, lo=0.0, hi=1.0,
                             diag_split=problem.diag_split, quad_order=quad_order)
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
