"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each fredsolve layer
(and numpy.linalg's dense routines) with wrappers that record a span per
call: name, start, end, parent span and request.  Every binding of the
original function is replaced, in its own module and in every fredsolve
module that imported it with ``from ... import``.  The problem's kernel and
free-term callables are wrapped where the problem is built.  Spans stay in
memory; ``Tracer.layer_metrics`` turns them into per-request figures and
``Tracer.dump`` writes them out.

A span's self time is its duration minus the time covered by its direct
children, so the self times of a request's spans add up to the request's
wall time.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (module, attribute) of every public function wrapped as a span
SPAN_TARGETS = {
    "cli.main": [("fredsolve.cli", "main")],
    "grid.operator_matrix": [("fredsolve.grid", "operator_matrix")],
    "grid.apply_operator": [("fredsolve.grid", "apply_operator")],
    "grid.interp_matrix": [("fredsolve.grid", "interp_matrix")],
    "grid.kernel_fourier_coeffs": [("fredsolve.grid", "kernel_fourier_coeffs")],
    "kernels.kernel_matrix": [("fredsolve.kernels", "kernel_matrix")],
    "kernels.poisson_h": [("fredsolve.kernels", "poisson_h")],
    "fredholm2.solve_direct": [("fredsolve.fredholm2", "solve_direct")],
    "fredholm2.estimate_spectrum": [("fredsolve.fredholm2", "estimate_spectrum")],
    "linalg.svd": [("numpy.linalg", "svd")],
    "linalg.solve": [("numpy.linalg", "solve")],
    "linalg.other": [("numpy.linalg", "eigh"), ("numpy.linalg", "inv"),
                     ("numpy.linalg", "cond")],
    "method_core.method_v2": [("fredsolve.method_core", "method_v2")],
    "method_core.method_v2_single": [("fredsolve.method_core", "method_v2_single")],
    "method_core.method_v1": [("fredsolve.method_core", "method_v1")],
    "method_core.select_mu": [("fredsolve.method_core", "select_mu")],
    "method_core.verify_solution": [("fredsolve.method_core", "verify_solution")],
    "baselines.solve": [("fredsolve.baselines", name) for name in (
        "lavrentiev", "tikhonov_weighted", "fridman_iterate", "krasnoselskii_iterate",
        "implicit_iterate", "steepest_descent", "quasisolution")],
    "reduction2d.method2d_solve": [("fredsolve.reduction2d", "method2d_solve")],
    "reduction2d.forward2d": [("fredsolve.reduction2d", "forward2d")],
    "reduction2d.reconstruct_u": [("fredsolve.reduction2d", "reconstruct_u")],
    "reduction2d.verify2d": [("fredsolve.reduction2d", "verify2d")],
    # spans of the problem's own callables, wrapped where problems are built
    "problems.free_term": [],
}

# spans that must fire on each workload; together they cover SPAN_TARGETS
EXPECTED_SPANS = {
    "solve_1d": {
        "cli.main", "problems.free_term", "grid.operator_matrix", "grid.apply_operator",
        "grid.interp_matrix", "grid.kernel_fourier_coeffs", "kernels.kernel_matrix",
        "kernels.poisson_h", "fredholm2.solve_direct", "fredholm2.estimate_spectrum",
        "linalg.svd", "linalg.solve", "linalg.other", "method_core.method_v2",
        "method_core.method_v2_single", "method_core.method_v1", "method_core.select_mu",
        "method_core.verify_solution", "baselines.solve"},
    "reduce_2d": {
        "cli.main", "grid.interp_matrix", "kernels.kernel_matrix", "kernels.poisson_h",
        "linalg.svd", "linalg.solve", "reduction2d.method2d_solve", "reduction2d.forward2d",
        "reduction2d.reconstruct_u", "reduction2d.verify2d"},
}

# per-layer metrics: self time of a span, its call count, or a computed count
TIME_METRICS = (
    "cli.main", "problems.free_term", "grid.operator_matrix", "grid.apply_operator",
    "grid.interp_matrix", "grid.kernel_fourier_coeffs", "kernels.kernel_matrix",
    "kernels.poisson_h", "fredholm2.solve_direct", "fredholm2.estimate_spectrum",
    "linalg.svd", "linalg.solve", "linalg.other", "method_core.method_v2",
    "method_core.method_v2_single", "method_core.method_v1",
    "method_core.verify_solution", "baselines.solve", "reduction2d.method2d_solve",
    "reduction2d.forward2d", "reduction2d.reconstruct_u", "reduction2d.verify2d")
CALL_METRICS = (
    "problems.free_term", "grid.operator_matrix", "grid.apply_operator",
    "grid.interp_matrix", "kernels.kernel_matrix", "fredholm2.solve_direct",
    "fredholm2.estimate_spectrum", "linalg.svd", "linalg.solve", "linalg.other",
    "method_core.select_mu", "method_core.verify_solution")
# computed from call arguments or results, not measured
COUNT_METRICS = ("problems.kernel_points", "kernels.series_terms",
                 "baselines.iterations", "reduction2d.unknowns")


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    return ([(f"{n}.ms", "ms") for n in TIME_METRICS]
            + [(f"{n}.calls", "count") for n in CALL_METRICS]
            + [(n, "count") for n in COUNT_METRICS]
            + [("trace.overhead_ratio", "ratio")])


def _count_series_terms(args, kwargs):
    # kernel_matrix(kind, p, out_nodes, in_nodes, ...): 'h' is closed form
    kind, p, out_nodes, in_nodes = args[:4]
    return 0 if kind == "h" else len(out_nodes) * len(in_nodes) * p.n_trunc


def _count_unknowns(args, kwargs):
    return kwargs.get("nx", 24) * kwargs.get("ny", 24)


def _count_iterations(result):
    iterates = getattr(result, "iterates", None)
    return 0 if iterates is None else len(iterates) - 1


# span name -> (counter name, count from (args, kwargs)) or from the result
_ARG_COUNTS = {"kernels.kernel_matrix": ("kernels.series_terms", _count_series_terms),
               "reduction2d.method2d_solve": ("reduction2d.unknowns", _count_unknowns)}
_RESULT_COUNTS = {"baselines.solve": ("baselines.iterations", _count_iterations)}


def self_times(spans) -> dict:
    """Total self time in ns per span name.

    ``spans`` holds [name, start, end, parent index] rows; children lie
    inside their parent's interval.
    """
    child = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(int)
    for i, (name, start, end, *_rest) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


class Tracer:
    """Span recorder; spans are kept only while a request is open."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, request id]
        self.counts = Counter()
        self.requests = 0
        self._stack = []
        self._request = None
        self._undo = []

    # -- request scope -----------------------------------------------------
    def begin_request(self):
        self._request = self.requests
        self.requests += 1

    def end_request(self):
        self._request = None

    # -- wrappers ------------------------------------------------------------
    def _span(self, name, fn):
        arg_count = _ARG_COUNTS.get(name)
        result_count = _RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            row = [name, time.perf_counter_ns(), 0, parent, self._request]
            self.spans.append(row)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter_ns()
                self._stack.pop()
            if arg_count:
                self.counts[arg_count[0]] += arg_count[1](args, kwargs)
            if result_count:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted_kernel(self, kernel):
        def counted(x, xi):
            if self._request is not None:
                self.counts["problems.kernel_points"] += np.broadcast(
                    np.asarray(x), np.asarray(xi)).size
            return kernel(x, xi)

        counted.__wrapped__ = kernel
        return counted

    def _wrap_problem(self, problem):
        free = getattr(problem.free_term, "__wrapped__", problem.free_term)
        return dataclasses.replace(problem, free_term=self._span("problems.free_term", free))

    def _replace_everywhere(self, original, replacement):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "numpy.linalg" or name.split(".")[0] == "fredsolve"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every target; ``uninstall`` restores the originals."""
        import importlib

        for name, targets in SPAN_TARGETS.items():
            for module, attr in targets:
                original = getattr(importlib.import_module(module), attr)
                self._replace_everywhere(original, self._span(name, original))
        problems = importlib.import_module("fredsolve.problems")
        get_kernel = problems.get_kernel
        make_manufactured = problems.make_manufactured
        perturb = problems.perturb

        def traced_get_kernel(*args, **kwargs):
            kernel, split = get_kernel(*args, **kwargs)
            return self._counted_kernel(kernel), split

        def traced_make_manufactured(*args, **kwargs):
            return self._wrap_problem(make_manufactured(*args, **kwargs))

        def traced_perturb(problem, spec):
            # perturb the unwrapped free term so that a call is counted once
            base = getattr(problem.free_term, "__wrapped__", problem.free_term)
            return self._wrap_problem(perturb(dataclasses.replace(problem, free_term=base), spec))

        self._replace_everywhere(get_kernel, traced_get_kernel)
        self._replace_everywhere(make_manufactured, traced_make_manufactured)
        self._replace_everywhere(perturb, traced_perturb)

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------
    def fired(self) -> set:
        return {row[0] for row in self.spans}

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric, averaged per traced request."""
        n = max(self.requests, 1)
        selfs = self_times(self.spans)
        calls = Counter(row[0] for row in self.spans)
        values = {}
        for name in TIME_METRICS:
            values[f"{name}.ms"] = selfs.get(name, 0) / 1e6 / n
        for name in CALL_METRICS:
            values[f"{name}.calls"] = calls[name] / n
        for name in COUNT_METRICS:
            values[name] = self.counts[name] / n
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "requests": self.requests}, fh)
