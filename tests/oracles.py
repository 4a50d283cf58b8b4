"""Independent oracles shared by the test modules.

Everything here is deliberately built from different primitives than the
package paths it checks: composite quadrature built in-place, analytic
eigen-expansions, and separation-of-variables series.
"""

import numpy as np

from fredsolve.grid import MIN_PRODUCT_ORDER, gauss_legendre, interp_matrix, operator_matrix
from fredsolve.kernels import kernel_matrix
from fredsolve.method_core import _Workspace


def composite_gauss(a, b, panels, n_per_panel):
    """Flat (nodes, weights) composite Gauss rule; built without the package."""
    t, v = np.polynomial.legendre.leggauss(n_per_panel)
    edges = np.linspace(a, b, panels + 1)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (hi - lo) * t + 0.5 * (lo + hi))
        ws.append(0.5 * (hi - lo) * v)
    return np.concatenate(xs), np.concatenate(ws)


def split_rule(lo, mid, hi, t, v):
    """Gauss panels (lo, mid), (mid, hi) of the base rule (t, v); a panel
    under 1e-14 is dropped."""
    xs, ws = [], []
    for p, q in ((lo, mid), (mid, hi)):
        if q - p < 1e-14:
            continue
        xs.append(0.5 * (q - p) * t + 0.5 * (p + q))
        ws.append(0.5 * (q - p) * v)
    return np.concatenate(xs), np.concatenate(ws)


def split_gauss(a, mid, b, n_per_panel):
    return split_rule(a, mid, b, *np.polynomial.legendre.leggauss(n_per_panel))


def product_rows(kernel, grid, volterra=False, quad_order=None):
    """Each row's product-integration rule: the points z and the kernel values
    times weights, split at xi = x_i or ending there when ``volterra`` (empty
    when the rule's interval is under 1e-14)."""
    t, v = np.polynomial.legendre.leggauss(max(int(quad_order or MIN_PRODUCT_ORDER), grid.n))
    for x in grid.nodes:
        hi = x if volterra else grid.b
        if hi - grid.a < 1e-14:
            yield np.empty(0), np.empty(0)
            continue
        zq, wq = split_rule(grid.a, min(x, hi), hi, t, v)
        yield zq, np.asarray(kernel(np.full_like(zq, x), zq), dtype=float) * wq


def operator_matrix_rows(kernel, grid, volterra=False, quad_order=None):
    """Product-integration matrix, one row and one barycentric interpolation
    matrix at a time."""
    return np.array([kw @ interp_matrix(grid.nodes, zq)
                     for zq, kw in product_rows(kernel, grid, volterra, quad_order)])


def trig_table(x, N):
    """[1 | cos(2n pi x) | sin(2n pi x)], n = 1..N, one row per point."""
    phase = 2.0 * np.pi * np.multiply.outer(x, np.arange(1, N + 1))
    return np.hstack([np.ones((x.size, 1)), np.cos(phase), np.sin(phase)])


def kernel_fourier_coeffs_rows(kernel, N, quad_order=64):
    """The (2N+1)-square moment matrix P = 2 int int T(x)^T k(x, xi) T(xi)
    (row: harmonic in x, column: harmonic in xi) with the inner xi-integral
    split at xi = x, one outer node and its own trigonometric samples at a
    time."""
    t, v = np.polynomial.legendre.leggauss(int(quad_order))
    x, w = 0.5 * t + 0.5, 0.5 * v
    inner = np.zeros((x.size, 2 * N + 1))
    for i, xi in enumerate(x):
        zq, wq = split_rule(0.0, xi, 1.0, t, v)
        kv = np.asarray(kernel(np.full_like(zq, xi), zq), dtype=float) * wq
        inner[i] = kv @ trig_table(zq, N)
    return 2.0 * ((trig_table(x, N) * w[:, None]).T @ inner)


def build_K(kernel, params):
    """Pointwise evaluator of K(x, xi) = k(x, xi) + lam int_0^1 H(x, z) k(z, xi) dz.

    A per-point adaptive rule, independent of the grid route's matrix
    composition: the z-quadrature is split at the k-kink (z = xi) and graded
    toward z = x where H concentrates as r -> 1.
    """
    p = params.poisson
    base = np.polynomial.legendre.leggauss(max(24, params.n_out // 2))

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
            Hv = kernel_matrix("H", p, np.array([xx]), zq)[0]
            kv = np.asarray(kernel(zq, np.full_like(zq, zz)), dtype=float)
            out[idx] = (np.asarray(kernel(xx, zz), dtype=float)
                        + p.lam * float(np.sum(wq * Hv * kv)))
        return out if out.ndim else float(out)

    return evaluate


def series_coeffs(kind, p):
    """(c0, a_1..a_N) of h, H, l or L, from the series definitions."""
    n = np.arange(1, p.n_trunc + 1)
    rn = np.power(p.r, n)
    lam, Lam = p.lam, p.Lambda
    if kind == "h":
        return 1.0, rn
    if kind == "H":
        return 1.0 / (1.0 - 2.0 * lam), rn / (1.0 - 2.0 * lam * rn)
    if kind == "l":
        return 1.0 / (1.0 - 2.0 * lam), rn * rn / (1.0 - 2.0 * lam * rn)
    return 1.0 / (1.0 - 2.0 * lam - Lam), rn * rn / (1.0 - 2.0 * lam * rn - Lam * rn * rn)


def series_kernel(kind, p, x, xi):
    """c0 + 2 sum a_n cos(2 pi n u), u = x - xi: one cosine per point pair and mode."""
    c0, a = series_coeffs(kind, p)
    u = np.asarray(x, dtype=float) - np.asarray(xi, dtype=float)
    out = np.full(u.shape, float(c0))
    n = np.arange(1, a.size + 1)
    step = max(1, int(1e6 // max(out.size, 1)))
    for s in range(0, a.size, step):
        out += 2.0 * (np.cos(2.0 * np.pi * np.multiply.outer(u, n[s:s + step])) @ a[s:s + step])
    return out


def row_rules(kernel, out_nodes, lo, hi, diag_split, quad_order):
    """Each output row's rule of apply_operator: the points z and the kernel
    values times weights, split at xi = x when ``diag_split`` and lo < x < hi."""
    t, v = np.polynomial.legendre.leggauss(int(quad_order))
    for x in out_nodes:
        if diag_split and lo < x < hi:
            zq, wq = split_rule(lo, x, hi, t, v)
        else:
            zq = 0.5 * (hi - lo) * t + 0.5 * (lo + hi)
            wq = 0.5 * (hi - lo) * v
        yield zq, wq * np.asarray(kernel(np.full_like(zq, x), zq), dtype=float)


def apply_operator_rows(kernel, out_nodes, source, lo, hi, diag_split, quad_order):
    """x -> int_lo^hi kernel(x, xi) g(xi) d xi, one row and one rule at a time."""
    out = np.zeros(len(out_nodes))
    for i, (zq, kw) in enumerate(row_rules(kernel, out_nodes, lo, hi, diag_split, quad_order)):
        if callable(source):
            g = np.asarray(source(zq), dtype=float)
        else:
            g = interp_matrix(source.grid.nodes, zq) @ source.values
        out[i] = np.sum(kw * g)
    return out


def tau_blocks(reduction, direction, grid, points):
    """One tau1 (direction 'x') or tau2 ('y') matrix per point, as a list,
    each from its own scalar-point assembly."""
    if direction == "x":
        kernel_at = lambda y: lambda x, xi: reduction.tau1(x, y, xi)
    else:
        kernel_at = lambda x: lambda y, eta: reduction.tau2(x, y, eta)
    return [operator_matrix(kernel_at(s), grid, diag_split=True) for s in points]


def forward2d_loops(reduction, psi):
    """Values of the 2D left-hand side, one row or column block at a time."""
    gx, gy = psi.x_grid, psi.y_grid
    out = np.zeros((gx.n, gy.n))
    for j, rows in enumerate(tau_blocks(reduction, "x", gx, gy.nodes)):
        out[:, j] += rows @ psi.values[:, j]
    for i, rows in enumerate(tau_blocks(reduction, "y", gy, gx.nodes)):
        out[i, :] += rows @ psi.values[i, :]
    return out


def reconstruct_u_loops(reduction, psi, which, boundary_corrected):
    """Values of either u route, with the edge blend built edge by edge."""
    gx, gy = psi.x_grid, psi.y_grid
    ends = np.array([0.0, 1.0])
    vals = np.zeros((gx.n, gy.n))
    if which == "x":
        for j, rows in enumerate(tau_blocks(reduction, "x", gx, gy.nodes)):
            vals[:, j] = rows @ psi.values[:, j]
        if boundary_corrected:
            Ly = interp_matrix(gy.nodes, ends)
            edge = np.zeros((gx.n, 2))
            for col, rows in enumerate(tau_blocks(reduction, "x", gx, (0.0, 1.0))):
                edge[:, col] = rows @ (psi.values @ Ly[col])
            y = gy.nodes[None, :]
            vals = vals - (edge[:, [0]] * (1.0 - y) + edge[:, [1]] * y)
        return vals
    F = np.asarray(reduction.free_term(gx.nodes[:, None], gy.nodes[None, :]), dtype=float)
    for i, rows in enumerate(tau_blocks(reduction, "y", gy, gx.nodes)):
        vals[i, :] = F[i, :] - rows @ psi.values[i, :]
    if boundary_corrected:
        Lx = interp_matrix(gx.nodes, ends)
        Fe = np.asarray(reduction.free_term(ends[:, None], gy.nodes[None, :]), dtype=float)
        edge = np.zeros((2, gy.n))
        for row, rows in enumerate(tau_blocks(reduction, "y", gy, (0.0, 1.0))):
            edge[row, :] = Fe[row, :] - rows @ (Lx[row] @ psi.values)
        x = gx.nodes[:, None]
        vals = vals - ((1.0 - x) * edge[[0], :] + x * edge[[1], :])
    return vals


def method2d_matrix_blocks(reduction, params, nx, ny):
    """The 2D Nystrom matrix, added block by block into the flat (nx ny)^2 array."""
    gx = gauss_legendre(nx, 0.0, 1.0)
    gy = gauss_legendre(ny, 0.0, 1.0)
    ws = _Workspace(params, grid01=gx, gridm=gauss_legendre(nx, -1.0, 0.0))
    tau2_rows = tau_blocks(reduction, "y", gy, gx.nodes)
    A = np.zeros((nx * ny, nx * ny))
    for j, rows in enumerate(tau_blocks(reduction, "x", gx, gy.nodes)):
        idx = np.arange(nx) * ny + j
        A[np.ix_(idx, idx)] += ws.smooth(rows)
    for i, rows in enumerate(tau2_rows):
        idx = i * ny + np.arange(ny)
        A[np.ix_(idx, idx)] += rows
    lam = params.poisson.lam
    for i in range(nx):
        for k in range(nx):
            A[i * ny:(i + 1) * ny, k * ny:(k + 1) * ny] += lam * ws.H_w[i, k] * tau2_rows[k]
    return A


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


def textbook_trajectory(method, problem, grid, param, psi0, k):
    """psi_0, ..., psi_k of an iteration family's one-step update, written out
    on the matrix the baselines assemble and applied k times:

    * ``fridman``: psi + param (f - A psi);
    * ``krasnoselskii``: psi - param A*A psi + param A* f, A* = W^-1 A^T W;
    * ``implicit``: the solution of (param I + A) psi' = param psi + f, one
      dense solve a step;
    * ``steepest``: psi - beta A*(A psi - f) with the exact line-search beta,
      psi unchanged once ||A*(A psi - f)||^2 <= 1e-30.

    ``param`` is the step (ignored by ``steepest``) or alpha.
    """
    A = operator_matrix(problem.kernel, grid, diag_split=problem.diag_split)
    f = np.asarray(problem.free_term(grid.nodes), dtype=float)
    w = grid.weights
    Astar = (A.T * w[None, :]) / w[:, None]

    def steepest(psi):
        g = Astar @ (A @ psi - f)
        gnorm2 = np.sum(w * g * g)
        if gnorm2 <= 1e-30:
            return psi
        return psi - gnorm2 / np.sum(w * (A @ g) * (A @ g)) * g

    update = {
        "fridman": lambda psi: psi + param * (f - A @ psi),
        "krasnoselskii": lambda psi: psi - param * (Astar @ A @ psi) + param * (Astar @ f),
        "implicit": lambda psi: np.linalg.solve(param * np.eye(grid.n) + A, param * psi + f),
        "steepest": steepest,
    }[method]
    out = [np.asarray(psi0(grid.nodes) if callable(psi0) else psi0, dtype=float)]
    for _ in range(k):
        out.append(update(out[-1]))
    return out
