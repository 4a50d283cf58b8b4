"""Generic second-kind Fredholm solvers on Gauss grids.

Dense Nystrom discretization throughout: psi = mu * A psi + F becomes
(I - mu A) psi = F with A the quadrature matrix of the kernel.  Kernels with
a diagonal kink get the product-integration assembly from ``grid``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NoValidMuError, OnSpectrumError
from .grid import MIN_PRODUCT_ORDER, Grid1D, _kept, operator_matrix

__all__ = [
    "DEFAULT_MU_CANDIDATES",
    "gated_system",
    "gate_mu",
    "certified_mu",
    "solve_direct",
    "estimate_spectrum",
]

# relative smallest-singular-value threshold separating spectrum hits from
# conditioning noise at desk-scale n
ON_SPECTRUM_RTOL = 1e-10

# a probed mu keeps a wider margin than the hard gate, so its system needs no
# second check
_MU_PROBE_RTOL = 1e-6

# the first has the least |mu| (``certified_mu`` rests on it)
DEFAULT_MU_CANDIDATES = (0.05, 0.1, 0.2, -0.1, 0.5)

# rounded operations behind one term of the symmetrized matrix (see
# estimate_spectrum's rounding bound)
_ROUNDINGS_PER_TERM = 8


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


def gate_mu(A: np.ndarray, mu: float | None = None) -> tuple[float, np.ndarray]:
    """mu and its I - mu A, checked once by ``gated_system``.

    A given mu is gated at ON_SPECTRUM_RTOL.  Without one, the first of
    DEFAULT_MU_CANDIDATES whose matrix clears the wider _MU_PROBE_RTOL
    margin is taken; NoValidMuError when none does.
    """
    if mu is not None:
        return mu, gated_system(A, mu)
    for mu in DEFAULT_MU_CANDIDATES:
        try:
            return float(mu), gated_system(A, mu, _MU_PROBE_RTOL)
        except OnSpectrumError:
            pass
    raise NoValidMuError(DEFAULT_MU_CANDIDATES)


def certified_mu(mu: float | None, norm_bound: float | None) -> float | None:
    """The given mu, or else the first candidate, when a norm bound certifies it.

    ``norm_bound`` is an upper bound b >= ||A||_2, or None for no bound.  When
    q = |mu| b <= 1/2, I - mu A needs no SVD: by Weyl's inequality for
    singular values, sigma_min(I - mu A) >= 1 - q >= 1/2 and
    sigma_max(I - mu A) <= 1 + q <= 3/2, so their ratio is at least 1/3.
    That is far above both thresholds of ``gated_system`` (_MU_PROBE_RTOL =
    1e-6, ON_SPECTRUM_RTOL = 1e-10), and the gap absorbs the rounding of the
    assembled entries and of b.  Such a matrix is provably nonsingular
    (q < 1), so the certificate never accepts what the SVD would reject.  A
    caller that can solve without the dense I - mu A then need not build A.

    Otherwise this returns None and the caller runs ``gate_mu``.  The first
    of DEFAULT_MU_CANDIDATES has the least |mu| among them, so when it is
    refused no later candidate could be certified either.
    """
    first = mu if mu is not None else float(DEFAULT_MU_CANDIDATES[0])
    return first if norm_bound is not None and abs(first) * norm_bound <= 0.5 else None


def solve_direct(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense solve of the Nystrom system (I - mu A) psi = F.

    ``M`` is an I - mu A already gated for its mu (by ``gated_system`` or
    ``gate_mu``) and is not checked again.  ``rhs`` holds F at the grid
    nodes, shape (n,), or k right-hand sides as the columns of (n, k).
    """
    return np.linalg.solve(M, rhs)


def estimate_spectrum(kernel, grid: Grid1D,
                      diag_split: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(char_numbers, modes): characteristic numbers and eigenfunctions of a
    symmetric kernel on a grid.

    Works on the weight-symmetrized Nystrom matrix S = W^1/2 A W^-1/2.  The
    k pairs come ordered by ascending |characteristic number|: char_numbers
    has shape (k,), and column j of modes, shape (grid.n, k), holds the grid
    values of eigenfunction j, L2-normalized on the grid.  Eigenvalues with
    |lambda| <= tau, the rounding bound below, are reported as zero and
    dropped, so k may be less than grid.n.

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
      m = max(n, MIN_PRODUCT_ORDER) per half (``operator_matrix``'s one
      rule, so this holds for every matrix it assembles), so
      |A^_ij - A_ij| <= gamma_{2m+8} kappa sum_q w_q |ell_j(z_q)|.  The split
      rule is exact for ell_j^2 and, on a Gauss grid, int ell_j^2 = w_j, so by
      Cauchy-Schwarz sum_q w_q |ell_j(z_q)| <= sqrt(L w_j).  Scaling by
      sqrt(w_i / w_j) gives |S^_ij - S_ij| <= gamma_{2m+8} kappa sqrt(L w_i),
      hence ||S^ - S||_F <= gamma_{2m+8} kappa L sqrt(n).

    So tau = gamma_N kappa L sqrt(n') + n eps |lambda_max| with (N, n') =
    (8, 1) plain and (2m + 8, n) for product integration.  The bound assumes
    each term's data is accurate to rounding.  ``operator_matrix`` forms these
    sums in Legendre form rather than term by term; on that assembly the bound
    still exceeds the spurious eigenvalues measured for smooth rank-1..3
    kernels from n = 16 to 384 by a factor of 7.7 or more (the floor is the
    one the term-by-term sums left, within 1.3%), and at n = 256 it lies three
    decades below the smallest eigenvalue of green_triangular
    (5.6e-9 |lambda_max|).
    """
    evals, evecs, kappa = _symmetric_eigh(kernel, grid, diag_split)
    order = np.argsort(np.abs(evals))[::-1]
    tau = _rounding_bound(kappa, abs(evals[order[0]]), grid, diag_split)
    keep = order[np.abs(evals[order]) > tau]
    # one mode per contiguous row, so each row's norm is the pairwise sum
    # Grid1D.l2_norm takes of one mode
    V = evecs.T[keep] / np.sqrt(grid.weights)
    V /= np.sqrt(np.sum(grid.weights * V * V, axis=1))[:, None]
    V[V[np.arange(keep.size), np.argmax(np.abs(V), axis=1)] < 0] *= -1.0  # deterministic sign
    return 1.0 / evals[keep], np.ascontiguousarray(V.T)


def _symmetric_eigh(kernel, grid: Grid1D,
                    diag_split: bool = True) -> tuple[np.ndarray, np.ndarray, float]:
    """(evals, Q, kappa): S = W^1/2 A W^-1/2 = Q diag(evals) Q^T, kappa = max |k|.

    Every pair, in ``eigh``'s order: a rank-deficient kernel keeps its null
    modes.  A is ``operator_matrix(kernel, grid, diag_split=diag_split)``,
    assembled only on a miss.  ConfigError when the kernel's grid values are
    asymmetric by more than 1e-8.  For a kernel that is a value the triple
    passes that check once and is then kept in grid's matrix store under the
    nodes, interval and ``diag_split`` (``grid._kept``), so a repeated call
    evaluates no kernel and runs no ``eigh``; evals and Q come back read-only.
    """
    def build():
        xs = grid.nodes
        K = np.asarray(kernel(xs[:, None], xs[None, :]), dtype=float)
        asym = float(np.max(np.abs(K - K.T)))
        if asym > 1e-8:
            raise ConfigError(f"kernel asymmetry {asym:.3g} exceeds 1e-8")
        sw = np.sqrt(grid.weights)
        A = operator_matrix(kernel, grid, diag_split=diag_split)
        S = sw[:, None] * A / sw[None, :]
        S = 0.5 * (S + S.T)  # assembly asymmetry is at rounding level
        evals, evecs = np.linalg.eigh(S)
        return evals, evecs, np.array([np.max(np.abs(K))])

    evals, evecs, kappa = _kept(kernel, ("eigh", grid.nodes.tobytes(), (grid.a, grid.b),
                                         bool(diag_split)), build)
    return evals, evecs, float(kappa[0])


def _rounding_bound(kappa: float, lam_max: float, grid: Grid1D, diag_split: bool) -> float:
    """tau of ``estimate_spectrum``: Weyl bound on the eigenvalue rounding error."""
    eps = np.finfo(float).eps
    n = grid.n
    terms = _ROUNDINGS_PER_TERM + (2 * max(n, MIN_PRODUCT_ORDER) if diag_split else 0)
    gamma = terms * eps / (1.0 - terms * eps)
    spread = np.sqrt(n) if diag_split else 1.0
    return gamma * kappa * (grid.b - grid.a) * spread + n * eps * lam_max
