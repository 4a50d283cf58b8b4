"""Generic second-kind Fredholm/Volterra solvers on Gauss grids.

Dense Nystrom discretization throughout: psi = mu * A psi + F becomes
(I - mu A) psi = F with A the quadrature matrix of the kernel.  Kernels with
a diagonal kink get the product-integration assembly from ``grid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractionError, NoValidMuError, OnSpectrumError
from .grid import MIN_PRODUCT_ORDER, Grid1D, GridFunction, operator_matrix

__all__ = [
    "SecondKindSystem",
    "SpectrumEstimate",
    "gated_system",
    "probe_mu",
    "solve_direct",
    "neumann_iterate",
    "estimate_spectrum",
    "deflate_on_spectrum",
    "solve_volterra2",
]

# relative smallest-singular-value threshold separating spectrum hits from
# conditioning noise at desk-scale n
ON_SPECTRUM_RTOL = 1e-10

# a probed mu keeps a wider margin than the hard gate, so its system needs no
# second check
_MU_PROBE_RTOL = 1e-6

# rounded operations behind one term of the symmetrized matrix (see
# estimate_spectrum's rounding bound)
_ROUNDINGS_PER_TERM = 8


@dataclass(frozen=True)
class SecondKindSystem:
    """psi = mu * int K(x, xi) psi(xi) d xi + F(x) on a fixed grid.

    ``diag_split`` marks kernels with a kink at xi = x so the assembly splits
    the quadrature there.
    """

    kernel: object
    free_term: object
    mu: float
    grid: Grid1D
    diag_split: bool = False

    def matrix(self) -> np.ndarray:
        return operator_matrix(self.kernel, self.grid, diag_split=self.diag_split)

    def rhs(self) -> np.ndarray:
        return np.asarray(self.free_term(self.grid.nodes), dtype=float)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Leading characteristic numbers and L2-normalized grid eigenfunctions."""

    char_numbers: np.ndarray
    eigenfunctions: list = field(default_factory=list)


def gated_system(A: np.ndarray, mu: float, rtol: float = ON_SPECTRUM_RTOL) -> np.ndarray:
    """The matrix I - mu A, checked by one values-only SVD.

    Raises OnSpectrumError when its smallest singular value is at most rtol
    times its largest.
    """
    M = np.eye(A.shape[0]) - mu * A
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[-1] <= rtol * svals[0]:
        raise OnSpectrumError(mu, float(svals[-1]))
    return M


def probe_mu(A: np.ndarray, candidates) -> tuple[float, np.ndarray]:
    """First candidate mu whose I - mu A clears the probe margin, with that matrix."""
    candidates = list(candidates)
    if not candidates:
        raise ConfigError("the mu probe needs a nonempty candidate list")
    for mu in candidates:
        try:
            return float(mu), gated_system(A, mu, _MU_PROBE_RTOL)
        except OnSpectrumError:
            pass
    raise NoValidMuError(candidates)


def solve_direct(system: SecondKindSystem, matrix: np.ndarray | None = None) -> GridFunction:
    """Dense solve of the Nystrom system (I - mu A) psi = F behind ``gated_system``."""
    A = system.matrix() if matrix is None else matrix
    M = gated_system(A, system.mu)
    return GridFunction(system.grid, np.linalg.solve(M, system.rhs()))


def neumann_iterate(system: SecondKindSystem, max_iter: int = 1000,
                    tol: float = 1e-12) -> GridFunction:
    """Simple iteration psi <- mu A psi + F; requires |mu| * c1 < 1.

    c1^2 is the L2(0,1)^2 norm of the kernel, measured by quadrature on the
    system grid.
    """
    g = system.grid
    K = np.asarray(system.kernel(g.nodes[:, None], g.nodes[None, :]), dtype=float)
    c1 = float(np.sqrt(np.sum(g.weights[:, None] * g.weights[None, :] * K * K)))
    if abs(system.mu) * c1 >= 1.0:
        raise ContractionError(system.mu, c1)
    A = system.matrix()
    F = system.rhs()
    psi = F.copy()
    for _ in range(max_iter):
        nxt = system.mu * (A @ psi) + F
        if g.l2_norm(nxt - psi) <= tol:
            return GridFunction(g, nxt)
        psi = nxt
    return GridFunction(g, psi)


def estimate_spectrum(kernel, grid: Grid1D, count: int,
                      diag_split: bool = True) -> SpectrumEstimate:
    """Leading characteristic numbers/eigenfunctions of a symmetric kernel.

    Works on the weight-symmetrized Nystrom matrix S = W^1/2 A W^-1/2;
    eigenfunctions come back L2-normalized on the grid, ordered by ascending
    |characteristic number|.  Eigenvalues with |lambda| <= tau, the rounding
    bound below, are reported as zero and dropped, so fewer than ``count``
    pairs may come back.

    Rounding bound.  Let S^ be the matrix handed to ``eigh`` and S its exact
    value on the same grid.  By Weyl's inequality every eigenvalue of S^ lies
    within ||S^ - S||_2 <= ||S^ - S||_F of one of S, and ``eigh`` adds a
    backward error of at most about n eps ||S||_2 = n eps |lambda_max|.  With
    kappa = max |k| (taken on the grid) and L = b - a, the assembly error is
    estimated a priori as follows; ``_ROUNDINGS_PER_TERM`` = 8 counts the
    rounded operations behind one term: kernel value, quadrature weight,
    product, barycentric entry, two square roots, scaling and symmetrization.

    * Plain Nystrom: S_ij = sqrt(w_i) k(x_i, x_j) sqrt(w_j) carries a relative
      error <= gamma_8 (gamma_N = N eps / (1 - N eps)), so
      ||S^ - S||_F <= gamma_8 kappa sqrt(sum_ij w_i w_j) = gamma_8 kappa L.
    * Product integration (``diag_split``): A_ij sums N = 2m terms
      k(x_i, z_q) w_q ell_j(z_q) over the split Gauss rule of order
      m = max(n, MIN_PRODUCT_ORDER) per half, so
      |A^_ij - A_ij| <= gamma_{2m+8} kappa sum_q w_q |ell_j(z_q)|.  The split
      rule is exact for ell_j^2 and, on a Gauss grid, int ell_j^2 = w_j, so by
      Cauchy-Schwarz sum_q w_q |ell_j(z_q)| <= sqrt(L w_j).  Scaling by
      sqrt(w_i / w_j) gives |S^_ij - S_ij| <= gamma_{2m+8} kappa sqrt(L w_i),
      hence ||S^ - S||_F <= gamma_{2m+8} kappa L sqrt(n).

    So tau = gamma_N kappa L sqrt(n') + n eps |lambda_max| with (N, n') =
    (8, 1) plain and (2m + 8, n) for product integration.  The bound assumes
    each term's data is accurate to rounding; it exceeds the spurious
    eigenvalues measured for smooth rank-1..3 kernels from n = 16 to 384 by a
    factor of 7 or more, and at n = 256 it lies three decades below the
    smallest eigenvalue of green_triangular (5.6e-9 |lambda_max|).
    """
    xs, ws = grid.nodes, grid.weights
    K = np.asarray(kernel(xs[:, None], xs[None, :]), dtype=float)
    asym = float(np.max(np.abs(K - K.T)))
    if asym > 1e-8:
        raise ConfigError(f"kernel asymmetry {asym:.3g} exceeds 1e-8")
    sw = np.sqrt(ws)
    A = operator_matrix(kernel, grid, diag_split=diag_split)
    S = sw[:, None] * A / sw[None, :]
    S = 0.5 * (S + S.T)  # assembly asymmetry is at rounding level
    evals, evecs = np.linalg.eigh(S)
    order = np.argsort(np.abs(evals))[::-1]
    evals, evecs = evals[order], evecs[:, order]
    tau = _rounding_bound(float(np.max(np.abs(K))), abs(evals[0]), grid, diag_split)
    count = min(int(count), grid.n)
    keep = [i for i in range(count) if abs(evals[i]) > tau]
    char_numbers = np.array([1.0 / evals[i] for i in keep])
    funcs = []
    for i in keep:
        v = evecs[:, i] / sw
        v /= grid.l2_norm(v)
        if v[np.argmax(np.abs(v))] < 0:  # deterministic sign
            v = -v
        funcs.append(GridFunction(grid, v))
    return SpectrumEstimate(char_numbers=char_numbers, eigenfunctions=funcs)


def _rounding_bound(kappa: float, lam_max: float, grid: Grid1D, diag_split: bool) -> float:
    """tau of ``estimate_spectrum``: Weyl bound on the eigenvalue rounding error."""
    eps = np.finfo(float).eps
    n = grid.n
    terms = _ROUNDINGS_PER_TERM + (2 * max(n, MIN_PRODUCT_ORDER) if diag_split else 0)
    gamma = terms * eps / (1.0 - terms * eps)
    spread = np.sqrt(n) if diag_split else 1.0
    return gamma * kappa * (grid.b - grid.a) * spread + n * eps * lam_max


def deflate_on_spectrum(f: GridFunction, eig: GridFunction) -> GridFunction:
    """Remove the eig-component of f: f - eig * <f, eig>.

    Stabilizes second-kind solves whose parameter sits on the spectrum; eig
    must be L2-normalized on its grid.
    """
    norm = eig.l2_norm()
    if abs(norm - 1.0) > 1e-8:
        raise ConfigError(f"eigenfunction not normalized (norm {norm:.12g})")
    coeff = float(np.sum(f.grid.weights * f.values * eig.values))
    return GridFunction(f.grid, f.values - coeff * eig.values)


def solve_volterra2(kernel, f, grid: Grid1D) -> GridFunction:
    """Second-kind Volterra solve: psi(x) = int_a^x kernel(x, xi) psi(xi) d xi + f(x).

    The kernel is taken as zero for xi > x; assembly uses product integration
    so the truncated upper limit costs no accuracy.
    """
    V = operator_matrix(kernel, grid, volterra=True)
    fv = np.asarray(f(grid.nodes), dtype=float) if callable(f) else np.asarray(f, dtype=float)
    return GridFunction(grid, np.linalg.solve(np.eye(grid.n) - V, fv))
