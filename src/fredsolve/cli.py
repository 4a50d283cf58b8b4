"""Command-line surface: problems, forward, solve, bench, reduce.

All numeric output is formatted with 17 significant digits, '.' decimal
separator and LF line endings, so identical configurations produce
byte-identical files.  Wall-clock timings go to stderr only; the JSON
summary keeps a null runtime_ms field so artifacts stay deterministic.

Exit codes: 0 success, 1 configuration error, 2 numerical-parameter error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import baselines, method_core, problems, reduction2d
from .errors import (ConfigError, FredsolveError, NonFiniteValueError,
                     NumericalParameterError)
from .expr import compile_expr
from .grid import GridFunction, gauss_legendre
from .method_core import MethodParams
from .problems import NoiseSpec

__all__ = ["main"]

_METHODS = ("v2", "v2_single", "v1", "lavrentiev", "tikhonov", "fridman",
            "krasnoselskii", "implicit", "steepest", "quasisolution")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def write_svg(path, series, x_label, y_label, title):
    """Fixed 800x600 line chart; y on a log scale, one polyline per series."""
    width, height = 800, 600
    mx, my = 80, 60
    pts = [(x, y) for _, data in series for x, y in data if y > 0 and math.isfinite(y)]
    xs = [p[0] for p in pts] or [0.0, 1.0]
    ys = [p[1] for p in pts] or [1e-1, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-300:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = math.log10(min(ys)), math.log10(max(ys))
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def sx(x):
        return mx + (x - x_lo) / (x_hi - x_lo) * (width - 2 * mx)

    def sy(y):
        return height - my - (math.log10(y) - y_lo) / (y_hi - y_lo) * (height - 2 * my)

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="16" y="{height // 2}" font-size="12" transform="rotate(-90 16 {height // 2})">{y_label}</text>',
        f'<line x1="{mx}" y1="{height - my}" x2="{width - mx}" y2="{height - my}" stroke="black"/>',
        f'<line x1="{mx}" y1="{my}" x2="{mx}" y2="{height - my}" stroke="black"/>',
    ]
    for idx, (label, data) in enumerate(series):
        color = palette[idx % len(palette)]
        good = [(x, y) for x, y in data if y > 0 and math.isfinite(y)]
        if good:
            path_d = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in good)
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{path_d}"/>')
        parts.append(f'<text x="{width - mx + 6}" y="{my + 16 * idx + 12}" font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _load_problem_file(path):
    spec = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            spec[key.strip()] = value.strip()
    return spec


def _problem_from_args(args):
    name = args.problem
    if os.sep in name or name.endswith((".prob", ".txt")) or os.path.exists(name):
        spec = _load_problem_file(name)
        kernel_name = spec.get("kernel", "green_triangular")
        r = float(spec["r"]) if "r" in spec else args.r
        csv_path = spec.get("csv")
        if "psi_expr" in spec:
            prob = problems.make_manufactured(kernel_name, compile_expr(spec["psi_expr"]),
                                              r=r, csv_path=csv_path, label=name)
        elif "f_expr" in spec:
            kern, split = problems.get_kernel(kernel_name, r=r, csv_path=csv_path)
            prob = problems.FirstKindProblem(
                name=name, kernel=kern, free_term=compile_expr(spec["f_expr"]),
                provenance=f"problem file {name}", diag_split=split)
        else:
            raise ConfigError(f"{name}: need psi_expr or f_expr")
        eps = float(spec.get("noise.epsilon", 0.0))
        if eps > 0.0:
            prob = problems.perturb(prob, NoiseSpec(eps, float(spec.get("noise.omega", math.pi))))
        return prob
    if args.psi is not None:
        return problems.make_manufactured(name, compile_expr(args.psi), r=args.r)
    if args.f is not None:
        kern, split = problems.get_kernel(name, r=args.r)
        return problems.FirstKindProblem(name=name, kernel=kern,
                                         free_term=compile_expr(args.f),
                                         provenance="free term from --f", diag_split=split)
    # default benchmark input: the manufactured m=1 problem
    return problems.make_manufactured(name, lambda x: np.sin(np.pi * np.asarray(x)), r=args.r)


def _method_params(args):
    return MethodParams.create(r=args.r, lam=args.lam, mu=args.mu,
                               quad_order=args.grid, n_out=args.grid)


def _run_method(method, prob, args):
    """Run one solver; returns (GridFunction, summary dict)."""
    params = _method_params(args)
    extras = {}
    if method == "v2":
        state = method_core.method_v2(prob, params)
        psi = state.psi
        extras = {"mu": state.mu}
    elif method == "v2_single":
        psi, mu = method_core.method_v2_single(prob, params)
        extras = {"mu": mu}
    elif method == "v1":
        state = method_core.method_v1(prob, params, n_fourier=args.fourier_n)
        grid = gauss_legendre(args.grid, 0.0, 1.0)
        psi = GridFunction(grid, state.evaluate(grid.nodes))
    elif method == "lavrentiev":
        psi = baselines.lavrentiev(prob, args.alpha, n=args.grid)
    elif method == "tikhonov":
        psi = baselines.tikhonov_weighted(prob, args.alpha, lambda x: np.ones_like(x),
                                          n=args.grid)
    elif method == "fridman":
        step = args.step if args.step is not None else math.pi ** 2
        hist = baselines.fridman_iterate(prob, step, np.zeros(args.grid),
                                         max_iter=args.iters, n=args.grid)
        psi = hist.final()
    elif method == "krasnoselskii":
        nu = args.step if args.step is not None else 1.0
        hist = baselines.krasnoselskii_iterate(prob, nu, np.zeros(args.grid),
                                               max_iter=args.iters, n=args.grid)
        psi = hist.final()
    elif method == "implicit":
        hist = baselines.implicit_iterate(prob, args.alpha, np.zeros(args.grid),
                                          max_iter=args.iters, n=args.grid)
        psi = hist.final()
    elif method == "steepest":
        hist = baselines.steepest_descent(prob, np.zeros(args.grid),
                                          max_iter=args.iters, n=args.grid)
        psi = hist.final()
    elif method == "quasisolution":
        psi = baselines.quasisolution(prob, args.radius, n=args.grid)
    else:
        raise ConfigError(f"unknown method {method!r}; known: {_METHODS}")

    report = method_core.verify_solution(prob, psi, threshold=args.threshold)
    recon = None
    if prob.psi_star is not None:
        target = np.asarray(prob.psi_star(psi.grid.nodes), dtype=float)
        recon = psi.grid.l2_norm(psi.values - target)
    summary = {
        "method": method,
        "params": {"r": args.r, "lambda": args.lam, "mu": args.mu,
                   "alpha": args.alpha, "grid": args.grid,
                   "fourier_n": args.fourier_n},
        "residual_l2": report.residual_l2,
        "relative_residual": report.relative,
        "solvable": report.solvable,
        "runtime_ms": None,
        "reconstruction_error_if_known": recon,
    }
    summary.update(extras)
    return psi, summary


def cmd_problems(args):
    extra = {"tabulated": f"grid CSV at {args.csv} (bilinear)"} if args.csv else None
    table = problems.registered_kernels(extra)
    if args.format == "json":
        sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
    else:
        width = max(len(k) for k in table)
        for name in sorted(table):
            sys.stdout.write(f"{name:<{width}}  {table[name]}\n")
    return 0


def cmd_forward(args):
    kern, split = problems.get_kernel(args.problem, r=args.r, csv_path=args.csv)
    psi = compile_expr(args.psi if args.psi is not None else "0")
    f = problems.forward_apply(kern, psi, quad_order=args.grid, diag_split=split)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "forward.csv")
    write_csv(path, ["x", "f"], list(zip(f.grid.nodes, f.values)))
    sys.stdout.write(path + "\n")
    return 0


def cmd_solve(args):
    prob = _problem_from_args(args)
    started = time.perf_counter()
    psi, summary = _run_method(args.method, prob, args)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "solution.csv")
    json_path = os.path.join(args.out, "summary.json")
    write_csv(csv_path, ["x", "psi"], list(zip(psi.grid.nodes, psi.values)))
    write_json(json_path, summary)
    sys.stderr.write(f"solve finished in {elapsed_ms:.1f} ms\n")
    sys.stdout.write(csv_path + "\n" + json_path + "\n")
    return 0


def _bench_one(method, eps, omega, base_problem, args):
    row = {"method": method, "epsilon": eps, "omega": omega,
           "residual": None, "reconstruction_error": None, "status": "ok"}
    try:
        prob = base_problem
        if eps > 0.0:
            prob = problems.perturb(base_problem, NoiseSpec(eps, omega))
        psi, summary = _run_method(method, prob, args)
        row["residual"] = summary["residual_l2"]
        if base_problem.psi_star is not None:
            target = np.asarray(base_problem.psi_star(psi.grid.nodes), dtype=float)
            row["reconstruction_error"] = psi.grid.l2_norm(psi.values - target)
    except NumericalParameterError as exc:
        row["status"] = f"excluded: {exc.__class__.__name__}"
    except FredsolveError as exc:
        row["status"] = f"error: {exc.__class__.__name__}"
    return row


def cmd_bench(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    epsilons = [float(v) for v in args.epsilons.split(",") if v.strip()]
    omegas = [float(v) for v in args.omegas.split(",") if v.strip()]
    if not methods or not epsilons or not omegas:
        raise ConfigError("bench needs nonempty --methods, --epsilons, --omegas")
    base_problem = _problem_from_args(args)
    jobs = [(m, e, o) for m in methods for e in epsilons for o in omegas]
    with ThreadPoolExecutor(max_workers=min(8, len(jobs))) as pool:
        rows = list(pool.map(lambda j: _bench_one(j[0], j[1], j[2], base_problem, args), jobs))
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "bench.csv")
    write_csv(csv_path, ["method", "epsilon", "omega", "residual",
                         "reconstruction_error", "status"],
              [[r["method"], r["epsilon"], r["omega"], r["residual"],
                r["reconstruction_error"], r["status"]] for r in rows])
    series = []
    for m in methods:
        data = [(r["epsilon"], r["reconstruction_error"] or r["residual"] or float("nan"))
                for r in rows if r["method"] == m and r["status"] == "ok"]
        series.append((m, sorted(data)))
    svg_path = os.path.join(args.out, "bench.svg")
    write_svg(svg_path, series, "epsilon", "error (log)", "noise sweep")
    sys.stdout.write(csv_path + "\n" + svg_path + "\n")
    return 0


def cmd_reduce(args):
    os.makedirs(args.out, exist_ok=True)
    if args.bvp == "ode":
        a = compile_expr(args.a_expr)
        f = compile_expr(args.f_expr)
        if args.solve:
            psi_v, u_v = reduction2d.reduce_ode_volterra(a, f, n=args.grid)
            psi_f, u_f = reduction2d.reduce_ode_fredholm(a, f, n=args.grid)
            if not all(np.all(np.isfinite(g.values)) for g in (psi_v, u_v, psi_f, u_f)):
                raise NonFiniteValueError("the ode reduction produced non-finite psi or u")
            csv_path = os.path.join(args.out, "ode.csv")
            write_csv(csv_path, ["x", "psi_volterra", "u_volterra", "psi_fredholm", "u_fredholm"],
                      list(zip(u_v.grid.nodes, psi_v.values, u_v.values,
                               psi_f.values, u_f.values)))
            summary = {
                "bvp": "ode",
                "route_disagreement_u": float(np.max(np.abs(u_v.values - u_f.values))),
            }
            write_json(os.path.join(args.out, "reduce.json"), summary)
            sys.stdout.write(csv_path + "\n")
            return 0
        raise ConfigError("ode reduction is only meaningful with --solve")
    if args.bvp == "membrane":
        red = reduction2d.reduce_membrane()
    elif args.bvp == "heat":
        u0 = compile_expr(args.u0_expr)
        red = reduction2d.reduce_heat(u0)
    else:
        raise ConfigError(f"unknown bvp {args.bvp!r}; known: ode, membrane, heat")
    g = gauss_legendre(args.grid2d, 0.0, 1.0)
    rows = []
    for x in g.nodes:
        for y in g.nodes:
            rows.append([x, y, float(red.tau1(x, y, 0.5)), float(red.tau2(x, y, 0.5)),
                         float(np.asarray(red.free_term(x, y)))])
    if not np.all(np.isfinite(rows)):
        raise NonFiniteValueError(f"the {args.bvp} kernels or free term are not finite on the grid")
    tables = [(f"{args.bvp}_kernels.csv", ["x", "y", "tau1_at_xi_half", "tau2_at_eta_half", "f"],
               rows)]
    summary = {"bvp": args.bvp}
    if args.solve:
        params = _method_params(args)
        result = reduction2d.method2d_solve(red, params, nx=args.grid2d, ny=args.grid2d)
        sol_rows = []
        for i, x in enumerate(result.psi.x_grid.nodes):
            for j, y in enumerate(result.psi.y_grid.nodes):
                sol_rows.append([x, y, result.psi.values[i, j]])
        tables.append((f"{args.bvp}_solution.csv", ["x", "y", "psi"], sol_rows))
        summary.update({"mu": result.mu,
                        "residual_l2": result.report.residual_l2,
                        "relative_residual": result.report.relative})
        if args.verify:
            summary["solvable"] = result.report.solvable
        u1 = reduction2d.reconstruct_u(red, result.psi, "x")
        u2 = reduction2d.reconstruct_u(red, result.psi, "y")
        try:
            summary["closure_delta"] = reduction2d.closure_delta(u1, u2)
        except FredsolveError:
            summary["closure_delta"] = None
    # nothing is written until every table and the solve are known to be good
    out_paths = [os.path.join(args.out, name) for name, _, _ in tables]
    for path, (_, header, table) in zip(out_paths, tables):
        write_csv(path, header, table)
    out_paths.append(os.path.join(args.out, "reduce.json"))
    write_json(out_paths[-1], summary)
    sys.stdout.write("\n".join(out_paths) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="fredsolve",
                                     description="first-kind integral equations: "
                                                 "reformulation, baselines, reductions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", default="green_triangular",
                       help="registered kernel name or problem spec file")
        p.add_argument("--method", default="v2", help=f"one of {', '.join(_METHODS)}")
        p.add_argument("--r", type=float, default=0.5)
        p.add_argument("--lambda", dest="lam", type=float, default=0.2)
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--alpha", type=float, default=1e-4)
        p.add_argument("--grid", type=int, default=64)
        p.add_argument("--fourier-n", dest="fourier_n", type=int, default=16)
        p.add_argument("--out", default="out")
        p.add_argument("--psi", default=None, help="psi expression (manufactures the problem)")
        p.add_argument("--f", default=None, help="free-term expression")
        p.add_argument("--csv", default=None, help="tabulated-kernel CSV path")
        p.add_argument("--threshold", type=float, default=0.05)
        p.add_argument("--iters", type=int, default=200)
        p.add_argument("--step", type=float, default=None)
        p.add_argument("--radius", type=float, default=1.0)
        p.add_argument("--seedless", action="store_true",
                       help="accepted for symmetry; every run is deterministic")

    p = sub.add_parser("problems", help="list registered kernels")
    common(p)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.set_defaults(func=cmd_problems)

    p = sub.add_parser("forward", help="evaluate the direct problem f = A psi")
    common(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("solve", help="run one method and verify the output")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="noise sweep across methods")
    common(p)
    p.add_argument("--methods", default="lavrentiev,v2")
    p.add_argument("--epsilons", default="0,0.0001,0.001,0.01")
    p.add_argument("--omegas", default=f"{math.pi:.17g}")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("reduce", help="reduce a boundary problem; optionally solve")
    common(p)
    p.add_argument("bvp", choices=("ode", "membrane", "heat"))
    p.add_argument("--solve", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--a-expr", dest="a_expr", default="1")
    p.add_argument("--f-expr", dest="f_expr", default="-1")
    p.add_argument("--u0-expr", dest="u0_expr", default="sin(3.141592653589793*x)")
    p.add_argument("--grid2d", type=int, default=24)
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericalParameterError as exc:
        sys.stderr.write(f"numerical parameter error: {exc}\n")
        return 2
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
