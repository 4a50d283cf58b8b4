"""Command-line surface: problems, forward, solve, bench, reduce.

All numeric output is formatted with 17 significant digits, '.' decimal
separator and LF line endings, so identical configurations produce
byte-identical files.  Wall-clock timings go to stderr only; the JSON
summary keeps a null runtime_ms field so artifacts stay deterministic.

Exit codes: 0 success, 1 configuration error, 2 numerical-parameter error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import baselines, method_core, problems, reduction2d
from .errors import (ConfigError, FredsolveError, NonFiniteValueError,
                     NumericalParameterError, require_finite, require_order)
from .expr import compile_expr
from .grid import gauss_legendre
from .method_core import MethodParams
from .problems import NoiseSpec

__all__ = ["main"]


def _fmt(value) -> str:
    """One cell of a mixed row: None is empty, a float has 17 digits, else str()."""
    if value is None:
        return ""
    return "%.17g" % value if isinstance(value, float) else str(value)


def _float_rows(table) -> str:
    """The CSV rows of an (n, m) float table, every value as '%.17g' (NaN as 'nan').

    The tables repeat values heavily (grid coordinates, kernel samples), so
    each distinct float64 bit pattern is formatted once and a single '%'
    fills the row template.  Deduplicating on bits, not on value, keeps -0.0
    apart from 0.0; the digits are those of f"{v:.17g}".
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    n, m = table.shape
    bits, cell = np.unique(table.view(np.int64).ravel(), return_inverse=True)
    digits = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return (",".join(["%s"] * m) + "\n") * n % tuple(digits[cell])


def write_csv(path, header, rows):
    """Write `rows`, an (n, m) float array or a list of mixed rows, under `header`."""
    if isinstance(rows, np.ndarray):
        body = _float_rows(rows)
    else:
        body = "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + body)


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


def _number(spec, key, default):
    value = spec.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _problem_from_args(args):
    """One builder for both sources: a problem file's keys, else the same keys from flags."""
    name, label = args.problem, None
    spec = {"kernel": name, "r": args.r, "csv": args.csv, "psi_expr": args.psi, "f_expr": args.f}
    if os.sep in name or name.endswith((".prob", ".txt")) or os.path.exists(name):
        spec, label = {"kernel": "green_triangular", "r": args.r, **_load_problem_file(name)}, name
        if "psi_expr" not in spec and "f_expr" not in spec:
            raise ConfigError(f"{name}: need psi_expr or f_expr")
    noise = NoiseSpec(_number(spec, "noise.epsilon", 0.0), _number(spec, "noise.omega", math.pi))
    kernel_name, r, csv_path = spec["kernel"], _number(spec, "r", args.r), spec.get("csv")
    psi_expr, f_expr = spec.get("psi_expr"), spec.get("f_expr")
    if psi_expr is None and f_expr is not None:
        kern, split = problems.get_kernel(kernel_name, r=r, csv_path=csv_path)
        prob = problems.FirstKindProblem(
            name=label or name, kernel=kern, free_term=compile_expr(f_expr), diag_split=split,
            provenance=f"problem file {name}" if label else "free term from --f")
    else:
        # without an expression: the default benchmark input, the manufactured m=1 problem
        psi = (compile_expr(psi_expr) if psi_expr is not None
               else lambda x: np.sin(np.pi * np.asarray(x)))
        prob = problems.make_manufactured(kernel_name, psi, r=r, csv_path=csv_path, label=label)
    return problems.perturb(prob, noise) if noise.epsilon > 0.0 else prob


def _method_params(args):
    return MethodParams.create(r=args.r, lam=args.lam, mu=args.mu, n_out=args.grid)


def _run_v2(prob, args):
    state = method_core.method_v2(prob, _method_params(args))
    return state.psi, {"mu": state.mu}


def _run_v2_single(prob, args):
    psi, mu = method_core.method_v2_single(prob, _method_params(args))
    return psi, {"mu": mu}


def _steps(args):
    # the iterative baselines start from psi = 0 and take --iters steps
    return {"psi0": np.zeros(args.grid), "max_iter": args.iters, "n": args.grid}


# --method -> run(problem, args) -> (psi, summary extras).  Each entry looks
# its solver up on the module when it runs, so a replaced module attribute (a
# wrapper, a test double) is the one called.
_RUNNERS = {
    "v2": _run_v2,
    "v2_single": _run_v2_single,
    "v1": lambda prob, args: (
        method_core.method_v1(prob, _method_params(args), n_fourier=args.fourier_n), {}),
    "lavrentiev": lambda prob, args: (baselines.lavrentiev(prob, args.alpha, n=args.grid), {}),
    "tikhonov": lambda prob, args: (baselines.tikhonov_weighted(prob, args.alpha, n=args.grid), {}),
    # without --step, fridman steps by the first characteristic number on the grid
    "fridman": lambda prob, args: (
        baselines.fridman_iterate(prob, args.step, **_steps(args)), {}),
    "krasnoselskii": lambda prob, args: (baselines.krasnoselskii_iterate(
        prob, 1.0 if args.step is None else args.step, **_steps(args)), {}),
    "implicit": lambda prob, args: (
        baselines.implicit_iterate(prob, args.alpha, **_steps(args)), {}),
    "steepest": lambda prob, args: (baselines.steepest_descent(prob, **_steps(args)), {}),
    "quasisolution": lambda prob, args: (
        baselines.quasisolution(prob, args.radius, n=args.grid), {}),
}
_METHODS = tuple(_RUNNERS)


def _require_method(method, option="--method"):
    if method not in _RUNNERS:
        raise ConfigError(f"{option}: unknown method {method!r}; known: {_METHODS}")


def _run_method(method, prob, args):
    """Run one solver; returns (GridFunction, summary dict)."""
    # only v2, v2_single and v1 build MethodParams; no summary records a NaN
    require_finite(r=args.r, lam=args.lam, mu=args.mu)
    _require_method(method)
    psi, extras = _RUNNERS[method](prob, args)

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
    # without --psi, forward maps psi = 0 (solve and bench default to sin(pi x))
    args.psi = "0" if args.psi is None else args.psi
    prob = _problem_from_args(args)
    if prob.psi_star is None:
        raise ConfigError(f"forward needs psi_expr and no noise: {prob.name} has no psi to map")
    f = problems.forward_apply(prob.kernel, prob.psi_star, quad_order=args.grid,
                               diag_split=prob.diag_split)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "forward.csv")
    write_csv(path, ["x", "f"], np.column_stack([f.grid.nodes, f.values]))
    sys.stdout.write(path + "\n")
    return 0


def cmd_solve(args):
    require_order(grid=args.grid, iters=args.iters, fourier_n=args.fourier_n)
    prob = _problem_from_args(args)
    started = time.perf_counter()
    psi, summary = _run_method(args.method, prob, args)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "solution.csv")
    json_path = os.path.join(args.out, "summary.json")
    write_csv(csv_path, ["x", "psi"], np.column_stack([psi.grid.nodes, psi.values]))
    write_json(json_path, summary)
    sys.stderr.write(f"solve finished in {elapsed_ms:.1f} ms\n")
    sys.stdout.write(csv_path + "\n" + json_path + "\n")
    return 0


def _bench_one(method, noise, base_problem, args):
    row = {"method": method, "epsilon": noise.epsilon, "omega": noise.omega,
           "residual": None, "reconstruction_error": None, "status": "ok"}
    try:
        prob = base_problem
        if noise.epsilon > 0.0:
            prob = problems.perturb(base_problem, noise)
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


def _number_list(option, text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{option} must be comma-separated numbers, got {text!r}") from None


def cmd_bench(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    epsilons = _number_list("--epsilons", args.epsilons)
    omegas = _number_list("--omegas", args.omegas)
    if not methods or not epsilons or not omegas:
        raise ConfigError("bench needs nonempty --methods, --epsilons, --omegas")
    # every method, noise level, the threshold and the counts are validated
    # before the first row runs
    for m in methods:
        _require_method(m, "--methods")
    noises = [NoiseSpec(e, o) for e in epsilons for o in omegas]
    require_finite(threshold=args.threshold)
    require_order(grid=args.grid, iters=args.iters, fourier_n=args.fourier_n)
    base_problem = _problem_from_args(args)
    rows = [_bench_one(m, noise, base_problem, args) for m in methods for noise in noises]
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
    if args.bvp == "ode":
        a = compile_expr(args.a_expr)
        f = compile_expr(args.f_expr)
        if args.solve:
            psi_v, u_v = reduction2d.reduce_ode_volterra(a, f, n=args.grid)
            psi_f, u_f = reduction2d.reduce_ode_fredholm(a, f, n=args.grid)
            if not all(np.all(np.isfinite(g.values)) for g in (psi_v, u_v, psi_f, u_f)):
                raise NonFiniteValueError("the ode reduction produced non-finite psi or u")
            os.makedirs(args.out, exist_ok=True)
            csv_path = os.path.join(args.out, "ode.csv")
            write_csv(csv_path, ["x", "psi_volterra", "u_volterra", "psi_fredholm", "u_fredholm"],
                      np.column_stack([u_v.grid.nodes, psi_v.values, u_v.values,
                                       psi_f.values, u_f.values]))
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
    x, y = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    columns = [x, y, red.tau1(x, y, 0.5), red.tau2(x, y, 0.5), red.free_term(x, y)]
    table = np.stack([np.broadcast_to(np.asarray(c, dtype=float), x.shape).ravel()
                      for c in columns], axis=1)
    if not np.all(np.isfinite(table)):
        raise NonFiniteValueError(f"the {args.bvp} kernels or free term are not finite on the grid")
    tables = [(f"{args.bvp}_kernels.csv", ["x", "y", "tau1_at_xi_half", "tau2_at_eta_half", "f"],
               table)]
    summary = {"bvp": args.bvp}
    if args.solve:
        params = _method_params(args)
        result = reduction2d.method2d_solve(red, params, nx=args.grid2d, ny=args.grid2d,
                                            verify_threshold=args.threshold)
        # psi lives on the kernel table's grid, nx = ny = grid2d
        tables.append((f"{args.bvp}_solution.csv", ["x", "y", "psi"],
                       np.column_stack([x.ravel(), y.ravel(), result.psi.values.ravel()])))
        summary.update({"mu": result.mu,
                        "residual_l2": result.report.residual_l2,
                        "relative_residual": result.report.relative})
        if args.verify:
            summary["solvable"] = result.report.solvable
        # the solve's tau stacks, which its verification also used, serve the reconstructions
        u1 = reduction2d.reconstruct_u(red, result.psi, "x", result.T1)
        u2 = reduction2d.reconstruct_u(red, result.psi, "y", result.T2)
        try:
            summary["closure_delta"] = reduction2d.closure_delta(u1, u2)
        except FredsolveError:
            summary["closure_delta"] = None
    # nothing is written until every table and the solve are known to be good
    os.makedirs(args.out, exist_ok=True)
    out_paths = [os.path.join(args.out, name) for name, _, _ in tables]
    for path, (_, header, table) in zip(out_paths, tables):
        write_csv(path, header, table)
    out_paths.append(os.path.join(args.out, "reduce.json"))
    write_json(out_paths[-1], summary)
    sys.stdout.write("\n".join(out_paths) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1); subparsers inherit the class.

    No parser takes an abbreviated flag: with abbreviations, a flag one
    subcommand lacks could run as a longer one it has (``bench --method``
    as ``--methods``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


# the shared flags, in the order every subcommand lists the ones it reads
_SHARED_FLAGS = {
    "--problem": dict(default="green_triangular",
                      help="registered kernel name or problem spec file"),
    "--method": dict(default="v2", help=f"one of {', '.join(_METHODS)}"),
    "--r": dict(type=float, default=0.5),
    "--lambda": dict(dest="lam", type=float, default=0.2),
    "--mu": dict(type=float, default=None),
    "--alpha": dict(type=float, default=1e-4),
    "--grid": dict(type=int, default=64),
    "--fourier-n": dict(dest="fourier_n", type=int, default=16),
    "--out": dict(default="out"),
    "--psi": dict(default=None, help="psi expression (manufactures the problem)"),
    "--f": dict(default=None, help="free-term expression"),
    "--csv": dict(default=None, help="tabulated-kernel CSV path"),
    "--threshold": dict(type=float, default=0.05),
    "--iters": dict(type=int, default=200),
    "--step": dict(type=float, default=None),
    "--radius": dict(type=float, default=1.0),
    "--seedless": dict(action="store_true",
                       help="accepted for symmetry; every run is deterministic"),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args keeps no state between calls.

    Each subcommand accepts only the flags it reads.  Its parser comes back
    as the parsed namespace's ``parser``, so ``main`` reports any other flag
    under the subcommand's own usage line.
    """
    parser = _Parser(prog="fredsolve",
                     description="first-kind integral equations: "
                                 "reformulation, baselines, reductions")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag, spec in _SHARED_FLAGS.items():
            if flag in flags:
                p.add_argument(flag, **spec)
        p.set_defaults(func=func, parser=p)
        return p

    p = command("problems", cmd_problems, "list registered kernels", "--csv")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    command("forward", cmd_forward, "evaluate the direct problem f = A psi",
            "--problem", "--r", "--grid", "--out", "--psi", "--f", "--csv")

    command("solve", cmd_solve, "run one method and verify the output", *_SHARED_FLAGS)

    p = command("bench", cmd_bench, "noise sweep across methods",
                *(flag for flag in _SHARED_FLAGS if flag != "--method"))
    p.add_argument("--methods", default="lavrentiev,v2")
    p.add_argument("--epsilons", default="0,0.0001,0.001,0.01")
    p.add_argument("--omegas", default=f"{math.pi:.17g}")

    p = command("reduce", cmd_reduce, "reduce a boundary problem; optionally solve",
                "--r", "--lambda", "--mu", "--grid", "--out", "--threshold")
    p.add_argument("bvp", choices=("ode", "membrane", "heat"))
    p.add_argument("--solve", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--a-expr", dest="a_expr", default="1")
    p.add_argument("--f-expr", dest="f_expr", default="-1")
    p.add_argument("--u0-expr", dest="u0_expr", default="sin(3.141592653589793*x)")
    p.add_argument("--grid2d", type=int, default=24)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        # overflow and invalid values reach the finite checks, which report them
        with np.errstate(all="ignore"):
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
