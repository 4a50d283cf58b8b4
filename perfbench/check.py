"""Independent check of the CLI's artifacts.

For a 1D solve the check reads solution.csv and summary.json and recomputes
the relative residual ||A psi - f|| / ||f|| on its own grid, without
fredsolve's quadrature or interpolation:

* psi between the output nodes is the barycentric interpolant with the
  closed-form weights of Gauss-Legendre points (Wang & Xiang, 2012), not
  fredsolve's product formula;
* A psi(x) = int_0^1 k(x, xi) psi(xi) d xi uses Gauss panels split at
  xi = x, with enough nodes that the integral is exact for the interpolant
  (k is linear in xi on each side of the kink);
* f is the exact free term: green_triangular has eigenpairs
  sin(k pi x), 1 / (k pi)^2, so A psi* is known in closed form.

The recomputed residual has to agree with the reported one to within
ABS_TOL + REL_TOL * reported, far above rounding differences between BLAS
builds and far below the change a wrong solution makes.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

REL_TOL = 1e-6
ABS_TOL = 1e-10
VERDICT_THRESHOLD = 0.05  # the CLI's default --threshold

# x-norm nodes: exact for |A psi - f|^2 with psi of degree < 128 (rounding aside)
_X_NODES = 136
# panel nodes: exact for k(x, .) * psi of degree <= 128 on each side of the kink
_PANEL_NODES = 72
# evaluate the residual in blocks of x to keep the check's memory small
_X_BLOCK = 8


class CheckError(Exception):
    """An artifact is missing, malformed, non-finite, or disagrees."""


def gauss(n: int, a: float, b: float):
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * t + 0.5 * (a + b), 0.5 * (b - a) * w


def bary_weights(n: int) -> np.ndarray:
    """Barycentric weights of the n Gauss-Legendre points, ascending order."""
    t, w = np.polynomial.legendre.leggauss(n)
    return (-1.0) ** np.arange(n) * np.sqrt((1.0 - t * t) * w)


def interpolate(nodes, bw, values, z) -> np.ndarray:
    """Barycentric interpolant through (nodes, values) evaluated at z."""
    z = np.asarray(z, dtype=float)
    diff = z[..., None] - nodes
    hit = diff == 0.0
    diff[hit] = 1.0
    t = bw / diff
    out = (t @ values) / t.sum(axis=-1)
    rows, cols = np.nonzero(hit.reshape(-1, nodes.size))
    out.reshape(-1)[rows] = values[cols]
    return out


def green(x, xi):
    return np.where(x <= xi, x * (1.0 - xi), xi * (1.0 - x))


def exact_free_term(x, modes, epsilon, omega):
    x = np.asarray(x, dtype=float)
    f = sum(c * np.sin(k * np.pi * x) / (k * np.pi) ** 2 for k, c in modes)
    return f + epsilon * np.sin(omega * x)


def psi_star(x, modes):
    return sum(c * np.sin(k * np.pi * np.asarray(x, dtype=float)) for k, c in modes)


def apply_green(nodes, values, x) -> np.ndarray:
    """int_0^1 k(x, xi) psi(xi) d xi, psi interpolated from (nodes, values)."""
    bw = bary_weights(nodes.size)
    t, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    out = np.empty(x.size)
    for s in range(0, x.size, _X_BLOCK):
        xb = x[s:s + _X_BLOCK, None]
        # left panel [0, x], right panel [x, 1]
        z = np.concatenate([0.5 * xb * (t + 1.0), xb + 0.5 * (1.0 - xb) * (t + 1.0)], axis=1)
        wz = np.concatenate([0.5 * xb * w, 0.5 * (1.0 - xb) * w], axis=1)
        out[s:s + _X_BLOCK] = np.sum(wz * green(xb, z) * interpolate(nodes, bw, values, z),
                                     axis=1)
    return out


def relative_residual(nodes, values, modes, epsilon, omega) -> float:
    x, wx = gauss(_X_NODES, 0.0, 1.0)
    f = exact_free_term(x, modes, epsilon, omega)
    r = apply_green(nodes, values, x) - f
    return math.sqrt(float(wx @ (r * r))) / math.sqrt(float(wx @ (f * f)))


def _read_csv(path, columns):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != columns:
        raise CheckError(f"{path}: header {rows[:1]} is not {columns}")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise CheckError(f"{path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(columns) or not np.all(np.isfinite(data)):
        raise CheckError(f"{path}: malformed or non-finite rows")
    return data


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc


def _finite(summary, key, path):
    value = summary.get(key)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckError(f"{path}: {key} = {value!r} is not a finite number")
    return float(value)


def _close(ours, theirs, what):
    if abs(ours - theirs) > ABS_TOL + REL_TOL * abs(theirs):
        raise CheckError(f"{what}: recomputed {ours!r}, reported {theirs!r}")


def check_solve(out_dir: str, truth: dict) -> dict:
    """Check one 1D solve; returns the quality figures it measured."""
    sol = _read_csv(os.path.join(out_dir, "solution.csv"), ["x", "psi"])
    summary_path = os.path.join(out_dir, "summary.json")
    summary = _read_json(summary_path)
    n = truth["grid"]
    nodes, weights = gauss(n, 0.0, 1.0)
    if sol.shape[0] != n or np.max(np.abs(sol[:, 0] - nodes)) > 1e-12:
        raise CheckError(f"{out_dir}: solution is not on the {n}-point Gauss grid")
    psi = sol[:, 1]
    reported = _finite(summary, "relative_residual", summary_path)
    _finite(summary, "residual_l2", summary_path)
    ours = relative_residual(nodes, psi, truth["modes"], truth["epsilon"], truth["omega"])
    _close(ours, reported, f"{summary_path}: relative_residual")
    verdict = ("no" if reported > VERDICT_THRESHOLD
               else "yes" if reported < VERDICT_THRESHOLD / 10.0 else "unknown")
    if summary.get("solvable") != verdict:
        raise CheckError(f"{summary_path}: verdict {summary.get('solvable')!r}, "
                         f"expected {verdict!r} for relative residual {reported!r}")
    err = psi - psi_star(nodes, truth["modes"])
    recon = math.sqrt(float(weights @ (err * err)))
    if truth["epsilon"] == 0.0:
        _close(recon, _finite(summary, "reconstruction_error_if_known", summary_path),
               f"{summary_path}: reconstruction_error_if_known")
    return {"relative_residual": ours, "recon_err": recon}


def check_reduce(out_dir: str, truth: dict) -> dict:
    """Check one 2D reduce --solve --verify run."""
    g = truth["grid2d"]
    sol = _read_csv(os.path.join(out_dir, f"{truth['bvp']}_solution.csv"), ["x", "y", "psi"])
    if sol.shape[0] != g * g:
        raise CheckError(f"{out_dir}: {sol.shape[0]} solution rows, expected {g * g}")
    path = os.path.join(out_dir, "reduce.json")
    summary = _read_json(path)
    for key in ("mu", "residual_l2"):
        _finite(summary, key, path)
    if summary.get("solvable") not in ("yes", "no", "unknown"):
        raise CheckError(f"{path}: missing verdict")
    _finite(summary, "closure_delta", path)
    return {"relative_residual": _finite(summary, "relative_residual", path)}
