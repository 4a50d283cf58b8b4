"""Classical first-kind machinery for head-to-head comparison.

Regularized solves (Lavrentiev, zero-order Tikhonov), the classical
iteration families (residual correction, normal-equation relaxation,
implicit regularized stepping, steepest descent), and the quasisolution on a
norm ball.

The discrete adjoint is taken with respect to the grid inner product
<u, v> = sum w_i u_i v_i, i.e. A* = W^-1 A^T W.  With D = W^1/2, z = D psi
carries that inner product to the Euclidean one, A to S = D A D^-1 and A* to
S^T.  So residual correction and implicit stepping are diagonal in the
eigenbasis S = Q diag(lambda) Q^T of a symmetric kernel, and normal-equation
relaxation in the eigenbasis S^T S = V diag(sigma^2) V^T of any kernel: each
runs its one-step update on the coordinates y = Q^T D psi at O(n) a step
(Hansen, Discrete Inverse Problems, 2010, ch. 4-6).  Steepest descent keeps
its line search on A.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidRadiusError, require_finite
from .fredholm2 import _symmetric_eigh, estimate_spectrum
from .grid import GridFunction, Grid1D, gauss_legendre, operator_matrix
from .problems import FirstKindProblem

__all__ = [
    "lavrentiev",
    "tikhonov_weighted",
    "fridman_iterate",
    "krasnoselskii_iterate",
    "implicit_iterate",
    "steepest_descent",
    "quasisolution",
]


def _setup(problem: FirstKindProblem, n: int):
    grid = gauss_legendre(n, 0.0, 1.0)
    A = operator_matrix(problem.kernel, grid, diag_split=problem.diag_split)
    f = np.asarray(problem.free_term(grid.nodes), dtype=float)
    return grid, A, f


def _adjoint_matrix(A: np.ndarray, grid: Grid1D) -> np.ndarray:
    # adjoint under <u, v> = sum w u v: A* = W^-1 A^T W
    w = grid.weights
    return (A.T * w[None, :]) / w[:, None]


def _start(psi0, grid: Grid1D) -> np.ndarray:
    return np.asarray(psi0(grid.nodes) if callable(psi0) else psi0, dtype=float)


def _iterate_diagonal(grid: Grid1D, Q: np.ndarray, psi0, step, max_iter: int) -> GridFunction:
    # psi_k of y <- step(y) on the coordinates y = Q^T W^1/2 psi
    sw = np.sqrt(grid.weights)
    y = Q.T @ (sw * _start(psi0, grid))
    for _ in range(max_iter):
        y = step(y)
    return GridFunction(grid, (Q @ y) / sw)


def lavrentiev(problem: FirstKindProblem, alpha: float, n: int = 64) -> GridFunction:
    """Solve alpha psi + A psi = f."""
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    grid, A, f = _setup(problem, n)
    return GridFunction(grid, np.linalg.solve(alpha * np.eye(grid.n) + A, f))


def tikhonov_weighted(problem: FirstKindProblem, alpha: float, n: int = 64) -> GridFunction:
    """Zero-order Tikhonov: solve (alpha I + A* A) psi = A* f, A* the weighted adjoint.

    Any kernel is accepted.  alpha acts on the scale of A*A, the square of
    Lavrentiev's.
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    grid, A, f = _setup(problem, n)
    Astar = _adjoint_matrix(A, grid)
    return GridFunction(grid, np.linalg.solve(alpha * np.eye(grid.n) + Astar @ A, Astar @ f))


def fridman_iterate(problem: FirstKindProblem, lambda_step: float | None, psi0,
                    max_iter: int = 200, n: int = 64) -> GridFunction:
    """psi_max_iter of the residual correction psi <- psi + lambda_step (f - A psi).

    Requires a symmetric kernel whose largest-magnitude eigenvalue
    lambda_max is positive, and 0 < lambda_step < 2 lambda_1 with
    lambda_1 = 1 / lambda_max, the first characteristic number on the grid.
    ``lambda_step=None`` takes lambda_step = lambda_1.
    """
    require_finite(step=lambda_step)
    grid, A, f = _setup(problem, n)
    lam, Q, _ = _symmetric_eigh(problem.kernel, grid, problem.diag_split, A)
    c = Q.T @ (np.sqrt(grid.weights) * f)
    lam_max = float(lam[np.argmax(np.abs(lam))])
    if lam_max <= 0.0:
        raise ConfigError(f"residual correction needs lambda_max > 0, got {lam_max:.6g}")
    lam1 = 1.0 / lam_max
    tau = lam1 if lambda_step is None else lambda_step
    if not 0.0 < tau < 2.0 * lam1:
        raise ConfigError(f"step {tau:g} outside (0, 2*lambda_1) with lambda_1 = {lam1:.6g}")
    return _iterate_diagonal(grid, Q, psi0, lambda y: y - tau * (lam * y - c), max_iter)


def krasnoselskii_iterate(problem: FirstKindProblem, nu: float, psi0,
                          max_iter: int = 200, n: int = 64) -> GridFunction:
    """psi_max_iter of the normal-equation relaxation psi <- psi - nu A*(A psi - f).

    Any kernel is accepted; 0 < nu < 2 / ||A*A|| with ||A*A|| = sigma_max^2.
    """
    require_finite(step=nu)
    grid, A, f = _setup(problem, n)
    sw = np.sqrt(grid.weights)
    S = sw[:, None] * A / sw[None, :]
    sigma2, V = np.linalg.eigh(S.T @ S)
    norm = float(sigma2[-1])
    if not 0.0 < nu * norm < 2.0:
        raise ConfigError(f"step {nu:g} outside (0, 2/||A*A||) with ||A*A|| = {norm:.6g}")
    c = V.T @ (S.T @ (sw * f))
    return _iterate_diagonal(grid, V, psi0, lambda y: y - nu * (sigma2 * y - c), max_iter)


def implicit_iterate(problem: FirstKindProblem, alpha: float, psi0,
                     max_iter: int = 100, n: int = 64) -> GridFunction:
    """psi_max_iter of the implicit stepping (alpha I + A) psi_{k+1} = alpha psi_k + f.

    Requires a symmetric kernel.  Large alpha with many steps is the
    intended regime (in contrast to one small-alpha solve).
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    grid, A, f = _setup(problem, n)
    lam, Q, _ = _symmetric_eigh(problem.kernel, grid, problem.diag_split, A)
    c = Q.T @ (np.sqrt(grid.weights) * f)
    return _iterate_diagonal(grid, Q, psi0, lambda y: (alpha * y + c) / (alpha + lam),
                             max_iter)


def steepest_descent(problem: FirstKindProblem, psi0, max_iter: int = 200,
                     n: int = 64) -> GridFunction:
    """psi_max_iter of gradient descent on the closure error, exact line search.

    beta_k = ||A*(A psi - f)||^2 / ||A A*(A psi - f)||^2; a vanishing
    gradient ends the descent at the current iterate.
    """
    grid, A, f = _setup(problem, n)
    Astar = _adjoint_matrix(A, grid)
    w = grid.weights
    psi = _start(psi0, grid)
    for _ in range(max_iter):
        g = Astar @ (A @ psi - f)
        gnorm2 = np.sum(w * g * g)
        if gnorm2 <= 1e-30:
            break
        Ag = A @ g
        psi = psi - gnorm2 / np.sum(w * Ag * Ag) * g
    return GridFunction(grid, psi)


def quasisolution(problem: FirstKindProblem, R: float, n: int = 64) -> GridFunction:
    """Residual minimizer over the ball ||psi|| <= R for a symmetric kernel.

    Inside the ball the plain eigen-expansion is returned; otherwise the
    Lagrange-damped coefficients a_k = c_k lambda_k / (1 + nu lambda_k^2) with
    nu chosen so the output norm equals R.
    """
    if R <= 0:
        raise InvalidRadiusError(f"radius must be positive, got {R}")
    grid = gauss_legendre(n, 0.0, 1.0)
    f = np.asarray(problem.free_term(grid.nodes), dtype=float)
    est = estimate_spectrum(problem.kernel, grid, diag_split=problem.diag_split)
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

