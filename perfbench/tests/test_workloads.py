import math

import numpy as np
import pytest

import check
import workloads
from fredsolve.expr import compile_expr

NAMES = workloads.NAMES


def _shape(pool):
    """The mix a pool is drawn from: labels, options and noise levels."""
    labels = sorted(req.label for req in pool)
    options = sorted(tuple(a.split("=")[0] for a in req.argv if a.startswith("--")
                           and a not in ("--psi", "--problem")) for req in pool)
    noise = sorted(req.truth.get("epsilon", -1.0) for req in pool)
    return labels, options, noise


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name, tmp_path):
    assert workloads.make_pool(name, 7) == workloads.make_pool(name, 7)
    a = workloads.materialize(workloads.make_pool(name, 7), str(tmp_path / "a"))
    files_a = {p.name: p.read_text() for p in (tmp_path / "a").iterdir()}
    b = workloads.materialize(workloads.make_pool(name, 7), str(tmp_path / "b"))
    files_b = {p.name: p.read_text() for p in (tmp_path / "b").iterdir()}
    assert [[x.replace("/b/", "/a/") for x in argv] for argv in b] == a
    assert files_a == files_b


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_other_inputs_same_mix(name):
    one, two = workloads.make_pool(name, 1), workloads.make_pool(name, 2)
    assert one != two
    assert _shape(one) == _shape(two)
    orders_one = workloads.pass_orders(name, 1, len(one))
    orders_two = workloads.pass_orders(name, 2, len(one))
    first = [next(orders_one) for _ in range(3)]
    assert all(sorted(o) == list(range(len(one))) for o in first)
    assert first != [next(orders_two) for _ in range(3)]


def test_pool_sizes_give_enough_samples_for_the_tail():
    for name in NAMES:
        size = len(workloads.make_pool(name, 0))
        assert workloads.min_passes(size) * size >= workloads.MIN_REQUESTS
    assert len(workloads.make_pool("solve_1d", 0)) == 13 + 28


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_program_parses_the_truth_the_check_uses(seed):
    x = np.linspace(0.0, 1.0, 41)
    for req in workloads.make_pool("solve_1d", seed) + workloads.make_pool("reduce_2d", seed):
        if "modes" not in req.truth:
            continue
        expr = req.problem_file[1].split("psi_expr=")[1].splitlines()[0] if req.problem_file \
            else next(a.split("=", 1)[1] for a in req.argv if "=" in a)
        np.testing.assert_allclose(compile_expr(expr)(x), check.psi_star(x, req.truth["modes"]),
                                   rtol=0, atol=1e-12)


def test_free_terms_have_the_fixed_norm():
    xs, ws = check.gauss(64, 0.0, 1.0)
    for req in workloads.make_pool("solve_1d", 3):
        f = check.exact_free_term(xs, req.truth["modes"], 0.0, 0.0)
        assert math.isclose(math.sqrt(ws @ (f * f)), workloads.FREE_TERM_NORM, rel_tol=1e-9)
