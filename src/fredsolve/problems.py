"""First-kind problem registry, the forward map, and the noise model.

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
from .grid import GridFunction, _PureKernel, apply_operator, gauss_legendre
from .kernels import _poisson

__all__ = [
    "FirstKindProblem",
    "NoiseSpec",
    "forward_apply",
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
    """int_0^1 k(x, xi) psi(xi) d xi = f(x) with provenance metadata.

    ``diag_split`` marks a derivative kink of k at xi = x (quadrature is
    split there).  ``psi_star``, when present, is the manufacturing input.
    """

    name: str
    kernel: object
    free_term: object
    provenance: str = ""
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


def forward_apply(kernel, psi, quad_order: int = 64,
                  diag_split: bool = False) -> GridFunction:
    """Direct problem: sample f(x) = int_0^1 k(x, xi) psi(xi) d xi on the
    ``quad_order``-point Gauss grid."""
    grid = gauss_legendre(quad_order, 0.0, 1.0)
    values = apply_operator(kernel, grid.nodes, psi, diag_split=diag_split,
                            quad_order=quad_order)
    return GridFunction(grid, values)


def _registry():
    return {
        "green_triangular": {
            "provenance": "string-influence kernel; eigenpairs sqrt(2) sin(n pi x), (n pi)^2",
            "make": lambda r=None: (_PureKernel(green_triangular), True),
        },
        "constant": {
            "provenance": "k = 1; rank-one smoothing",
            "make": lambda r=None: (_PureKernel(_constant_kernel), False),
        },
        "poisson_r": {
            "provenance": "periodic Poisson kernel restricted to [0,1]^2 (needs r)",
            "make": lambda r=0.5: (_poisson_restricted(r), False),
        },
    }


def _poisson_restricted(r):
    require_finite(r=r)
    if not 0.0 < r < 1.0:
        raise ConfigError(f"poisson_r needs 0 < r < 1, got {r}")
    return _PureKernel(_poisson, (float(r),))


def registered_kernels(extra_tabulated: dict | None = None) -> dict:
    """name -> provenance note for every registered kernel."""
    out = {name: entry["provenance"] for name, entry in _registry().items()}
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
    reg = _registry()
    if name not in reg:
        raise ConfigError(f"unknown kernel {name!r}; known: {sorted(reg) + ['tabulated']}")
    if r is not None and name == "poisson_r":
        return reg[name]["make"](r)
    return reg[name]["make"]()


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
        provenance=f"manufactured from kernel {kernel_name!r}; f = forward map of psi*",
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
                   name=f"{problem.name}+noise(eps={spec.epsilon:g}, omega={spec.omega:g})",
                   provenance=problem.provenance + " | perturbed free term")
