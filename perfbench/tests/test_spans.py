import contextlib
import io
import json
import os

import pytest

import spans
from conftest import ROOT


def test_self_times_of_a_span_tree_sum_to_its_wall_time():
    # root [0, 100] > a [10, 60] > (b [15, 25], c [30, 55] > d [31, 32]); e [70, 90]
    rows = [["root", 0, 100, -1], ["a", 10, 60, 0], ["b", 15, 25, 1],
            ["c", 30, 55, 1], ["d", 31, 32, 3], ["e", 70, 90, 0]]
    selfs = spans.self_times(rows)
    assert selfs == {"root": 30, "a": 15, "b": 10, "c": 24, "d": 1, "e": 20}
    assert sum(selfs.values()) == 100


def test_every_listed_span_is_expected_on_some_workload():
    expected = set().union(*spans.EXPECTED_SPANS.values())
    assert expected == set(spans.SPAN_TARGETS)
    assert set(spans.EXPECTED_SPANS) == {"solve_1d", "reduce_2d"}


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    assert declared == spans.per_layer_metric_names()


def _solve(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.fixture()
def tracer():
    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import fredsolve.grid as grid
    import fredsolve.method_core as method_core
    import fredsolve.reduction2d as reduction2d
    import numpy as np

    before = (grid.operator_matrix, method_core.operator_matrix, reduction2d.interp_matrix,
              np.linalg.svd)
    t = spans.Tracer()
    t.install()
    try:
        assert grid.operator_matrix is method_core.operator_matrix
        assert grid.operator_matrix.__wrapped__ is before[0]
        assert reduction2d.interp_matrix.__wrapped__ is before[2]
        assert np.linalg.svd.__wrapped__ is before[3]
    finally:
        t.uninstall()
    assert (grid.operator_matrix, method_core.operator_matrix, reduction2d.interp_matrix,
            np.linalg.svd) == before


def test_a_traced_v2_request_verifies_twice(tracer, tmp_path):
    import fredsolve.cli as cli

    tracer.begin_request()
    _solve(cli, ["solve", "--method", "v2", "--grid", "16", "--out", str(tmp_path)])
    tracer.end_request()
    values = tracer.layer_metrics(overhead_ratio=1.0)
    assert values["method_core.verify_solution.calls"] == 2
    assert values["grid.interp_matrix.calls"] > 16
    assert values["kernels.series_terms"] > 0
    assert values["problems.kernel_points"] > 0
    assert {"cli.main", "method_core.method_v2", "linalg.svd"} <= tracer.fired()
    wall = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(spans.self_times(tracer.spans).values()) == wall


def test_calls_outside_a_request_are_not_recorded(tracer, tmp_path):
    import fredsolve.cli as cli

    _solve(cli, ["solve", "--method", "lavrentiev", "--grid", "16", "--out", str(tmp_path)])
    assert tracer.spans == [] and not tracer.counts


def test_end_to_end_metrics_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["end_to_end"]]
    records = [{"label": "a", "latency_s": 0.01 * (k + 1), "ok": True,
                "relative_residual": 0.5} for k in range(120)]
    metrics, extras = run.end_to_end(records, [0.4, 0.5, 0.6], 0.3)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == declared
    assert all(value > 0 for value, _ in metrics.values())
    assert extras["samples_beyond_p90"] >= 10 and extras["failed_ratio"] == 0.0
