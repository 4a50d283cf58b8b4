"""Classical first-kind machinery for head-to-head comparison.

Regularized solves (Lavrentiev, weighted zero-order Tikhonov), the classical
iteration families (residual correction, normal-equation relaxation, averaged
iterates, implicit regularized stepping, steepest descent), the quasisolution
on a norm ball, and the a-posteriori stopping rule.

The discrete adjoint is taken with respect to the grid inner product
<u, v> = sum w_i u_i v_i, i.e. A* = W^-1 A^T W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidRadiusError
from .fredholm2 import estimate_spectrum
from .grid import GridFunction, Grid1D, gauss_legendre, operator_matrix
from .problems import FirstKindProblem

__all__ = [
    "IterateHistory",
    "lavrentiev",
    "tikhonov_weighted",
    "fridman_iterate",
    "krasnoselskii_iterate",
    "averaged_iterate",
    "implicit_iterate",
    "steepest_descent",
    "quasisolution",
    "stopping_rule",
]


@dataclass
class IterateHistory:
    """Iterates plus their closure errors ||A psi_n - f||."""

    grid: Grid1D
    iterates: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    converged: bool = False

    def displacements(self) -> np.ndarray:
        out = []
        for prev, nxt in zip(self.iterates[:-1], self.iterates[1:]):
            out.append(self.grid.l2_norm(nxt - prev))
        return np.array(out)

    def final(self) -> GridFunction:
        return GridFunction(self.grid, self.iterates[-1])


def _setup(problem: FirstKindProblem, n: int):
    grid = gauss_legendre(n, 0.0, 1.0)
    A = operator_matrix(problem.kernel, grid, diag_split=problem.diag_split)
    f = np.asarray(problem.free_term(grid.nodes), dtype=float)
    return grid, A, f


def _adjoint_matrix(A: np.ndarray, grid: Grid1D) -> np.ndarray:
    # adjoint under <u, v> = sum w u v: A* = W^-1 A^T W
    w = grid.weights
    return (A.T * w[None, :]) / w[:, None]


def _iterate(grid: Grid1D, A: np.ndarray, f: np.ndarray, psi0, step,
             max_iter: int, stop: float | None) -> IterateHistory:
    # the one-step loop psi_{k+1} = step(psi_k, A psi_k - f) shared by every
    # iteration family; a step returning None has converged in place
    psi = np.asarray(psi0(grid.nodes) if callable(psi0) else psi0, dtype=float).copy()
    res = A @ psi - f
    hist = IterateHistory(grid, [psi], [grid.l2_norm(res)])
    for _ in range(max_iter):
        nxt = step(psi, res)
        if nxt is None:
            hist.converged = True
            break
        res = A @ nxt - f
        hist.iterates.append(nxt)
        hist.residual_norms.append(grid.l2_norm(res))
        if stop is not None and grid.l2_norm(nxt - psi) <= stop:
            hist.converged = True
            break
        psi = nxt
    return hist


def lavrentiev(problem: FirstKindProblem, alpha: float, n: int = 64) -> GridFunction:
    """Solve alpha psi + A psi = f: weighted Tikhonov with unit weight."""
    return tikhonov_weighted(problem, alpha, np.ones_like, n)


def tikhonov_weighted(problem: FirstKindProblem, alpha: float, p0, n: int = 64) -> GridFunction:
    """Solve alpha p0(x) psi(x) + A psi = f; p0 must stay positive."""
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    grid, A, f = _setup(problem, n)
    pv = np.asarray(p0(grid.nodes), dtype=float)
    if np.any(pv <= 0):
        raise ConfigError("weight p0 must be positive on the grid")
    return GridFunction(grid, np.linalg.solve(alpha * np.diag(pv) + A, f))


def fridman_iterate(problem: FirstKindProblem, lambda_step: float, psi0,
                    max_iter: int = 200, stop: float | None = None,
                    n: int = 64) -> IterateHistory:
    """Residual correction psi <- psi + lambda_step (f - A psi).

    Requires a symmetric positive-definite kernel and
    0 < lambda_step < 2 lambda_1 (lambda_1 measured from the grid spectrum).
    """
    grid, A, f = _setup(problem, n)
    lam1 = float(estimate_spectrum(problem.kernel, grid, count=1,
                                   diag_split=problem.diag_split).char_numbers[0])
    if not 0.0 < lambda_step < 2.0 * lam1:
        raise ConfigError(
            f"step {lambda_step:g} outside (0, 2*lambda_1) with lambda_1 = {lam1:.6g}")
    return _iterate(grid, A, f, psi0, lambda psi, res: psi - lambda_step * res,
                    max_iter, stop)


def _power_norm(M: np.ndarray, steps: int = 50, tol: float = 1e-8) -> float:
    # spectral norm by power iteration on M^T M with a fixed start
    v = np.ones(M.shape[0]) / np.sqrt(M.shape[0])
    prev = 0.0
    for _ in range(steps):
        v = M.T @ (M @ v)
        s = np.linalg.norm(v)
        if s == 0.0:
            return 0.0
        v /= s
        if abs(np.sqrt(s) - prev) <= tol * max(1.0, prev):
            break
        prev = np.sqrt(s)
    return float(np.sqrt(s))


def krasnoselskii_iterate(problem: FirstKindProblem, nu: float, psi0,
                          max_iter: int = 200, stop: float | None = None,
                          n: int = 64) -> IterateHistory:
    """Normal-equation relaxation psi <- (I - nu A* A) psi + nu A* f."""
    grid, A, f = _setup(problem, n)
    Astar = _adjoint_matrix(A, grid)
    A1 = Astar @ A
    norm_A1 = _power_norm(A1)
    if not 0.0 < nu < 2.0 / norm_A1:
        raise ConfigError(f"step {nu:g} outside (0, 2/||A*A||) with ||A*A|| = {norm_A1:.6g}")
    f1 = Astar @ f
    return _iterate(grid, A, f, psi0, lambda psi, res: psi - nu * (A1 @ psi) + nu * f1,
                    max_iter, stop)


def averaged_iterate(problem: FirstKindProblem, lambda_step: float, phi0,
                     m: int, n: int = 64) -> GridFunction:
    """Mean of the residual-correction iterates phi_0 .. phi_m.

    The classical prescription uses unit step (lambda_step = 1).
    """
    if m < 0:
        raise ConfigError("m must be >= 0")
    hist = fridman_iterate(problem, lambda_step, phi0, max_iter=m, n=n)
    return GridFunction(hist.grid, np.sum(hist.iterates, axis=0) / (m + 1))


def implicit_iterate(problem: FirstKindProblem, alpha: float, psi0,
                     max_iter: int = 100, stop: float | None = None,
                     n: int = 64) -> IterateHistory:
    """Implicit stepping (alpha I + A) psi_{k+1} = alpha psi_k + f.

    One factorization serves every step; large alpha with many steps is the
    intended regime (in contrast to one small-alpha solve).
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    grid, A, f = _setup(problem, n)
    M = np.linalg.inv(alpha * np.eye(grid.n) + A)
    return _iterate(grid, A, f, psi0, lambda psi, res: M @ (alpha * psi + f),
                    max_iter, stop)


def steepest_descent(problem: FirstKindProblem, psi0, max_iter: int = 200,
                     stop: float | None = None, n: int = 64) -> IterateHistory:
    """Gradient descent on the closure error with the exact line-search step.

    beta_n = ||A*(A psi - f)||^2 / ||A A*(A psi - f)||^2; a vanishing gradient
    means convergence (flagged, not an error).
    """
    grid, A, f = _setup(problem, n)
    Astar = _adjoint_matrix(A, grid)

    def step(psi, res):
        g = Astar @ res
        gnorm2 = np.sum(grid.weights * g * g)
        if gnorm2 <= 1e-30:
            return None
        Ag = A @ g
        beta = gnorm2 / np.sum(grid.weights * Ag * Ag)
        return psi - beta * g

    return _iterate(grid, A, f, psi0, step, max_iter, stop)


def quasisolution(problem: FirstKindProblem, R: float, n: int = 64,
                  count: int | None = None) -> GridFunction:
    """Residual minimizer over the ball ||psi|| <= R for a symmetric kernel.

    Inside the ball the plain eigen-expansion is returned; otherwise the
    Lagrange-damped coefficients a_k = c_k lambda_k / (1 + nu lambda_k^2) with
    nu chosen so the output norm equals R.
    """
    if R <= 0:
        raise InvalidRadiusError(f"radius must be positive, got {R}")
    grid = gauss_legendre(n, 0.0, 1.0)
    f = np.asarray(problem.free_term(grid.nodes), dtype=float)
    est = estimate_spectrum(problem.kernel, grid, count=count or grid.n,
                            diag_split=problem.diag_split)
    lam = est.char_numbers
    Phi = np.stack([e.values for e in est.eigenfunctions], axis=1)  # (n, k)
    c = Phi.T @ (grid.weights * f)
    picard = c * lam
    if float(np.sum(picard * picard)) <= R * R:
        return GridFunction(grid, Phi @ picard)

    def norm2(nu):
        a = picard / (1.0 + nu * lam * lam)
        return float(np.sum(a * a))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if norm2(hi) <= R * R:
            break
        hi *= 8.0
    else:
        raise InvalidRadiusError(f"cannot bracket the multiplier for R = {R}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm2(mid) > R * R:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    return GridFunction(grid, Phi @ (picard / (1.0 + nu * lam * lam)))


def stopping_rule(history: IterateHistory, delta: float, gamma: float,
                  c1: float = 1.0, c2: float = 1.0) -> int | None:
    """First n with ||psi_{n+1} - psi_n|| <= c1 delta + c2 gamma, else None."""
    if len(history.iterates) < 2:
        raise ConfigError("history must contain at least two iterates")
    bound = c1 * delta + c2 * gamma
    for i, d in enumerate(history.displacements()):
        if d <= bound:
            return i
    return None
