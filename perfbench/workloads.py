"""Seeded request pools for the two benchmark workloads.

A workload is a fixed mix of CLI requests; the seed picks psi* (a few
sin(k pi x) modes with seeded coefficients), the free-term noise
epsilon * sin(omega x), heat's initial data, and the order of requests in
every pass.  psi* is scaled so that its free term has a fixed L2 norm, so
each epsilon means the same noise-to-signal ratio for every seed.  The
program only ever sees the argv and problem files built here; the ground
truth stays with the benchmark's output check.

Generation uses the standard library's ``random`` so that the inputs do not
depend on the numpy version.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

PI = "3.141592653589793"

# every epsilon appears equally often in a pool, so the mix is seed-independent
NOISE_LEVELS = (0.0, 1e-4, 1e-3, 1e-2)

# L2 norms on [0, 1] of the free term A psi* and of heat's u0
FREE_TERM_NORM = 0.05
U0_NORM = 0.5

REFORM_METHODS = ("v2", "v2_single", "v1")
BASELINE_METHODS = ("lavrentiev", "tikhonov", "fridman", "krasnoselskii",
                    "implicit", "steepest", "quasisolution")

# the request each process runs once before timing: a small one of the mix
WARMUP = {"solve_1d": "v2-n64-r0.5-0", "reduce_2d": "membrane-24-0"}

# fewest passes that give every run at least 100 requests, so that the p90
# latency has at least ten samples beyond it
MIN_REQUESTS = 100


@dataclass(frozen=True)
class Request:
    """One CLI call: argv without --out, an optional problem file, and the truth.

    ``problem_file`` is (file name, content); its path replaces the
    ``{problem}`` token in ``argv`` when the request is materialised.
    ``truth`` holds what the output check needs: psi* modes and
    coefficients, the noise, and the grid size.
    """

    label: str
    argv: tuple
    problem_file: tuple | None = None
    truth: dict = field(default_factory=dict)


def _modes(rng: random.Random, norm: float, gain) -> tuple[tuple[int, float], ...]:
    """Two or three distinct sine modes from 1..4, scaled so that
    ||sum gain(k) c_k sin(k pi x)|| = norm."""
    ks = sorted(rng.sample(range(1, 5), rng.choice((2, 3))))
    cs = [rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0)) for _ in ks]
    # the sines are orthogonal with ||sin(k pi x)||^2 = 1/2 on [0, 1]
    scale = norm / math.sqrt(sum((gain(k) * c) ** 2 for k, c in zip(ks, cs)) / 2.0)
    # the expression grammar has no exponent syntax: fixed-point decimals only
    return tuple((k, float(f"{c * scale:.12f}")) for k, c in zip(ks, cs))


def _psi_modes(rng):
    # green_triangular maps sin(k pi x) to sin(k pi x) / (k pi)^2
    return _modes(rng, FREE_TERM_NORM, lambda k: 1.0 / (k * math.pi) ** 2)


def sine_expr(modes) -> str:
    """The modes as an expression in fredsolve's CLI grammar.

    It may start with '-', so argv passes it as --option=value.
    """
    terms = [f"{c:.12f}*sin({k}*{PI}*x)" for k, c in modes]
    return "+".join(terms).replace("+-", "-")


def _noise(rng: random.Random, count: int) -> list[tuple[float, float]]:
    levels = [NOISE_LEVELS[i % len(NOISE_LEVELS)] for i in range(count)]
    rng.shuffle(levels)
    return [(eps, float(f"{rng.uniform(2.0, 12.0):.12f}")) for eps in levels]


def _solve_request(label, method, grid, r, modes, eps, omega) -> Request:
    argv = ["solve", "--method", method, "--grid", str(grid), "--r", str(r)]
    truth = {"modes": modes, "epsilon": eps, "omega": omega, "grid": grid}
    if eps == 0.0:
        return Request(label, tuple(argv + [f"--psi={sine_expr(modes)}"]), None, truth)
    content = (f"kernel=green_triangular\nr={r}\npsi_expr={sine_expr(modes)}\n"
               f"noise.epsilon={eps!r}\nnoise.omega={omega!r}\n")
    return Request(label, tuple(argv + ["--problem", "{problem}"]),
                   (f"{label}.prob", content), truth)


def _reform_requests(rng):
    combos = [(m, g, r) for m in REFORM_METHODS for g in (64, 128) for r in (0.5, 0.9)]
    # the CLI's default request twice, as users send it most
    combos.append(("v2", 64, 0.5))
    noise = _noise(rng, len(combos))
    return [_solve_request(f"{m}-n{g}-r{r}-{k}", m, g, r, _psi_modes(rng), eps, om)
            for k, ((m, g, r), (eps, om)) in enumerate(zip(combos, noise))]


def _baseline_rows(rng):
    # the rows of `fredsolve bench`, sent one by one: its thread pool is
    # larger than the two cores the benchmark gets, so it is left out
    rows = [(m, eps) for m in BASELINE_METHODS for eps in NOISE_LEVELS]
    out = []
    for m, eps in rows:
        omega = float(f"{rng.uniform(2.0, 12.0):.12f}")
        out.append(_solve_request(f"{m}-eps{eps:g}", m, 64, 0.5, _psi_modes(rng), eps, omega))
    return out


def _solve_1d(rng):
    # 28 baseline rows (about 70 ms each) and 13 paper-method requests (80 ms
    # to 1.1 s).  The p50 falls inside the baseline rows, whose times lie
    # within 30% of each other.  The p90 falls on the two v2_single types of
    # 300-400 ms (n=128 r=0.5, n=64 r=0.9).  The tail is not the p80: that
    # falls between v1 and v2 at n=64 r=0.9, which are up to 50% apart.
    return _reform_requests(rng) + _baseline_rows(rng)


def _reduce_2d(rng):
    # 24^2 requests take about half as long as 28^2 ones.  Five small and two
    # large put the p50 at 70% of the small requests' samples and the p90 at
    # 30% of the slowest type's (heat at 28^2), away from the gap.
    # Membrane has no seeded input, so the extra requests are heat's.
    mix = [("membrane", 24, 1), ("membrane", 28, 1), ("heat", 24, 4), ("heat", 28, 1)]
    out = []
    for bvp, g, copies in mix:
        for copy in range(copies):
            argv = ["reduce", bvp, "--solve", "--verify", "--grid2d", str(g)]
            truth = {"bvp": bvp, "grid2d": g}
            if bvp == "heat":
                modes = _modes(rng, U0_NORM, lambda k: 1.0)
                argv.append(f"--u0-expr={sine_expr(modes)}")
                truth["modes"] = modes
            out.append(Request(f"{bvp}-{g}-{copy}", tuple(argv), None, truth))
    return out


_BUILDERS = {"solve_1d": _solve_1d, "reduce_2d": _reduce_2d}
NAMES = tuple(_BUILDERS)


def make_pool(workload: str, seed: int) -> list[Request]:
    """The workload's requests for this seed, in a fixed (unshuffled) order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(_BUILDERS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def pass_orders(workload: str, seed: int, size: int):
    """Endless seeded permutations of range(size), one per pass."""
    rng = random.Random(f"{workload}:{seed}:order")
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield order


def min_passes(pool_size: int) -> int:
    return -(-MIN_REQUESTS // pool_size)


def materialize(pool: list[Request], workdir: str) -> list[list[str]]:
    """Write the problem files under workdir; return each request's full argv.

    Every request writes its artifacts to its own directory under workdir.
    """
    os.makedirs(workdir, exist_ok=True)
    argvs = []
    for i, req in enumerate(pool):
        out = os.path.join(workdir, f"out{i:02d}")
        argv = list(req.argv)
        if req.problem_file is not None:
            name, content = req.problem_file
            path = os.path.join(workdir, name)
            with open(path, "w", newline="\n") as fh:
                fh.write(content)
            argv = [path if a == "{problem}" else a for a in argv]
        argvs.append(argv + ["--out", out])
    return argvs
