"""First-kind problem registry and the noise model.

A problem bundles a kernel k(x, xi) on [0,1]^2 with a free term f(x).
Manufactured problems choose psi* first and define f as the forward map
A psi* evaluated by quadrature, so ground truth is known; psi* stays
metadata and is never read by any solver.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NonFiniteValueError, require_finite
from .grid import _PureKernel, apply_operator
from .kernels import _poisson

__all__ = [
    "FirstKindProblem",
    "NoiseSpec",
    "make_manufactured",
    "perturb",
    "get_kernel",
    "registered_kernels",
    "load_tabulated_kernel",
    "green_triangular",
]


def green_triangular(x, xi):
    """Influence kernel x(1-xi) for x <= xi, xi(1-x) otherwise."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return np.where(x <= xi, x * (1.0 - xi), xi * (1.0 - x))


def _constant_kernel(x, xi):
    return np.ones(np.broadcast(np.asarray(x, float), np.asarray(xi, float)).shape)


@dataclass(frozen=True)
class FirstKindProblem:
    """int_0^1 k(x, xi) psi(xi) d xi = f(x), named for reports.

    ``diag_split`` marks a derivative kink of k at xi = x (quadrature is
    split there).  ``psi_star``, when present, is the manufacturing input.
    """

    name: str
    kernel: object
    free_term: object
    psi_star: object = None
    diag_split: bool = False


@dataclass(frozen=True)
class NoiseSpec:
    """Deterministic free-term perturbation epsilon * sin(omega x)."""

    epsilon: float
    omega: float

    def __post_init__(self):
        require_finite(epsilon=self.epsilon, omega=self.omega)
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")


def _poisson_restricted(r):
    r = 0.5 if r is None else r
    require_finite(r=r)
    if not 0.0 < r < 1.0:
        raise ConfigError(f"poisson_r needs 0 < r < 1, got {r}")
    return _PureKernel(_poisson, (float(r),))


# name -> (provenance note, make(r) -> (kernel, diag_split flag))
_KERNELS = {
    "green_triangular": ("string-influence kernel; eigenpairs sqrt(2) sin(n pi x), (n pi)^2",
                         lambda r: (_PureKernel(green_triangular), True)),
    "constant": ("k = 1; rank-one smoothing", lambda r: (_PureKernel(_constant_kernel), False)),
    "poisson_r": ("periodic Poisson kernel restricted to [0,1]^2 (needs r)",
                  lambda r: (_poisson_restricted(r), False)),
}


def registered_kernels(extra_tabulated: dict | None = None) -> dict:
    """name -> provenance note for every registered kernel."""
    out = {name: note for name, (note, _) in _KERNELS.items()}
    out["tabulated"] = "grid CSV, bilinearly interpolated (needs csv=PATH)"
    if extra_tabulated:
        out.update(extra_tabulated)
    return out


def get_kernel(name: str, r: float | None = None, csv_path: str | None = None):
    """Look up a registered kernel; returns (callable, diag_split flag).

    Every kernel comes as a value (grid's ``_PureKernel``: equal for equal
    name and r, or for equal CSV tables), so the matrix cache keys it on the
    kernel itself and a warm request does not evaluate it.
    """
    if name == "tabulated":
        if not csv_path:
            raise ConfigError("tabulated kernel needs a csv path")
        return load_tabulated_kernel(csv_path), False
    if name not in _KERNELS:
        raise ConfigError(f"unknown kernel {name!r}; known: {sorted(_KERNELS) + ['tabulated']}")
    return _KERNELS[name][1](r)


def _bilinear(x, xi, x_bytes, xi_bytes, table_bytes):
    x_nodes, xi_nodes = np.frombuffer(x_bytes), np.frombuffer(xi_bytes)
    table = np.frombuffer(table_bytes).reshape(x_nodes.size, -1)
    x = np.clip(np.asarray(x, dtype=float), x_nodes[0], x_nodes[-1])
    xi_ = np.clip(np.asarray(xi, dtype=float), xi_nodes[0], xi_nodes[-1])
    x, xi_ = np.broadcast_arrays(x, xi_)
    i = np.clip(np.searchsorted(x_nodes, x) - 1, 0, x_nodes.size - 2)
    j = np.clip(np.searchsorted(xi_nodes, xi_) - 1, 0, xi_nodes.size - 2)
    tx = (x - x_nodes[i]) / (x_nodes[i + 1] - x_nodes[i])
    ty = (xi_ - xi_nodes[j]) / (xi_nodes[j + 1] - xi_nodes[j])
    return ((1 - tx) * (1 - ty) * table[i, j] + tx * (1 - ty) * table[i + 1, j]
            + (1 - tx) * ty * table[i, j + 1] + tx * ty * table[i + 1, j + 1])


def load_tabulated_kernel(path: str):
    """Bilinear interpolant of a CSV table, a value: two loads of one table
    give equal kernels.

    Format: header row holds the xi-nodes (first cell blank or 'x'), each
    following row starts with its x-node.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3 or len(rows[0]) < 3:
        raise ConfigError(f"tabulated kernel {path!r} needs at least a 2x2 table")
    try:
        xi_nodes = np.array([float(v) for v in rows[0][1:]])
        x_nodes = np.array([float(row[0]) for row in rows[1:]])
        table = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    except ValueError as exc:
        raise ConfigError(f"tabulated kernel {path!r}: {exc}") from exc
    if not all(np.all(np.isfinite(a)) for a in (xi_nodes, x_nodes, table)):
        raise NonFiniteValueError(f"tabulated kernel {path!r} holds non-finite entries")
    if np.any(np.diff(x_nodes) <= 0) or np.any(np.diff(xi_nodes) <= 0):
        raise ConfigError(f"tabulated kernel {path!r}: node rows/columns must increase")
    return _PureKernel(_bilinear, (x_nodes.tobytes(), xi_nodes.tobytes(), table.tobytes()))


def make_manufactured(kernel_name: str, psi, r: float | None = None,
                      csv_path: str | None = None,
                      label: str | None = None) -> FirstKindProblem:
    """Problem with f = A psi computed by quadrature and psi recorded as psi*.

    Each point's integral takes apply_operator's rule of 64 points per panel.
    """
    kernel, diag_split = get_kernel(kernel_name, r=r, csv_path=csv_path)

    def free_term(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return apply_operator(kernel, x, psi, diag_split=diag_split, quad_order=64)

    return FirstKindProblem(
        name=label or f"manufactured[{kernel_name}]",
        kernel=kernel,
        free_term=free_term,
        psi_star=psi,
        diag_split=diag_split,
    )


def perturb(problem: FirstKindProblem, spec: NoiseSpec) -> FirstKindProblem:
    """Free term replaced by f + epsilon sin(omega x); psi* no longer applies."""
    base = problem.free_term

    def noisy(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(base(x), dtype=float) + spec.epsilon * np.sin(spec.omega * x)

    return replace(problem, free_term=noisy, psi_star=None,
                   name=f"{problem.name}+noise(eps={spec.epsilon:g}, omega={spec.omega:g})")
