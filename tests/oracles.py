"""Independent oracles shared by the test modules.

Everything here is deliberately built from different primitives than the
package paths it checks: composite quadrature built in-place, analytic
eigen-expansions, and separation-of-variables series.
"""

import numpy as np

from fredsolve.kernels import kernel_matrix


def composite_gauss(a, b, panels, n_per_panel):
    """Flat (nodes, weights) composite Gauss rule; built without the package."""
    t, v = np.polynomial.legendre.leggauss(n_per_panel)
    edges = np.linspace(a, b, panels + 1)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (hi - lo) * t + 0.5 * (lo + hi))
        ws.append(0.5 * (hi - lo) * v)
    return np.concatenate(xs), np.concatenate(ws)


def split_gauss(a, mid, b, n_per_panel):
    t, v = np.polynomial.legendre.leggauss(n_per_panel)
    xs, ws = [], []
    for lo, hi in ((a, mid), (mid, b)):
        if hi - lo < 1e-15:
            continue
        xs.append(0.5 * (hi - lo) * t + 0.5 * (lo + hi))
        ws.append(0.5 * (hi - lo) * v)
    return np.concatenate(xs), np.concatenate(ws)


def build_K(kernel, params):
    """Pointwise evaluator of K(x, xi) = k(x, xi) + lam int_0^1 H(x, z) k(z, xi) dz.

    A per-point adaptive rule, independent of the grid route's matrix
    composition: the z-quadrature is split at the k-kink (z = xi) and graded
    toward z = x where H concentrates as r -> 1.
    """
    p = params.poisson
    base = np.polynomial.legendre.leggauss(max(24, params.quad_order // 2))

    def z_rule(x, xi):
        breaks = {0.0, 1.0, float(xi), float(x)}
        d = max(1e-12, 1.0 - p.r)
        while d < 1.0:
            for s in (x - d, x + d):
                if 1e-14 < s < 1.0 - 1e-14:
                    breaks.add(float(s))
            d *= 8.0
        bp = sorted(breaks)
        t, v = base
        zs, wsl = [], []
        for lo, hi in zip(bp[:-1], bp[1:]):
            if hi - lo < 1e-14:
                continue
            zs.append(0.5 * (hi - lo) * t + 0.5 * (lo + hi))
            wsl.append(0.5 * (hi - lo) * v)
        return np.concatenate(zs), np.concatenate(wsl)

    def evaluate(x, xi):
        x_arr, xi_arr = np.broadcast_arrays(np.asarray(x, dtype=float),
                                            np.asarray(xi, dtype=float))
        out = np.empty(x_arr.shape)
        for idx in np.ndindex(x_arr.shape):
            xx, zz = float(x_arr[idx]), float(xi_arr[idx])
            zq, wq = z_rule(xx, zz)
            Hv = kernel_matrix("H", p, np.array([xx]), zq, params.min_rel_dist)[0]
            kv = np.asarray(kernel(zq, np.full_like(zq, zz)), dtype=float)
            out[idx] = (np.asarray(kernel(xx, zz), dtype=float)
                        + p.lam * float(np.sum(wq * Hv * kv)))
        return out if out.ndim else float(out)

    return evaluate


def tri_green(x, xi):
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return np.where(x <= xi, x * (1.0 - xi), xi * (1.0 - x))


def lavrentiev_exact_m1(alpha, x):
    """Exact regularized solution for the sine test problem at mode 1."""
    return np.sin(np.pi * x) / (1.0 + alpha * np.pi ** 2)


def membrane_psi(x, y, n_terms=20):
    """d^2 u / dx^2 of the clamped-membrane field for unit load.

    Single series, closed form in x: converges geometrically in the odd mode
    index away from y in {0, 1}.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = -np.ones(np.broadcast(x, y).shape)
    for j in range(n_terms):
        n = 2 * j + 1
        out = out + (4.0 / np.pi) * np.sin(n * np.pi * x) \
            * np.cosh(n * np.pi * (y - 0.5)) / (n * np.cosh(n * np.pi / 2.0))
    return out


def membrane_u(x, y, n_terms=20):
    """The membrane deflection itself (u = 0 on the whole boundary)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = 0.5 * x * (1.0 - x) + 0.0 * y
    for j in range(n_terms):
        n = 2 * j + 1
        out = out - (4.0 / np.pi ** 3) * np.sin(n * np.pi * x) \
            * np.cosh(n * np.pi * (y - 0.5)) / (n ** 3 * np.cosh(n * np.pi / 2.0))
    return out


def heat_mode(x, t):
    """Single separated mode of the heat problem with u0 = sin(pi x)."""
    return np.exp(-np.pi ** 2 * np.asarray(t, dtype=float)) * np.sin(np.pi * np.asarray(x, dtype=float))
