"""fredsolve benchmark: one workload, one process, closed loop with one client.

    python3 perfbench/run.py --workload solve_1d --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  Each request is one ``fredsolve.cli.main(argv)``
call, issued only after the previous one returned and its artifacts were
checked (see check.py).  Requests run in whole passes over the workload's
seeded pool until about ``--seconds`` of wall time is used.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
request untraced and traced and reports the per-layer metrics of spans.py,
plus the ratio of traced to untraced wall time.  The last line of standard
output is the JSON result; the lines before it print every metric with its
unit, the figures that are not gated (failed_ratio, quality medians) and
the environment record, which also goes to perfbench/.out/results/.
"""

import os
import time

STARTED = time.monotonic()

# one BLAS thread, pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import ctypes.util  # noqa: E402


def _settle_malloc():
    """Fix glibc's mmap and trim thresholds at the ceiling of their dynamic rule.

    glibc raises both thresholds the first time it frees a large mmapped
    block (up to 32 MiB and 64 MiB).  When that happens depends on the order
    of requests, which the seed picks, and it moved peak RSS between two
    levels about 10% apart.  Fixed at the ceiling, every process allocates
    as a warmed-up one does.  Returns whether the thresholds were set.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(mallopt(m_trim_threshold, 64 << 20))


MALLOC_SETTLED = _settle_malloc()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

# set-up is timed in this many fresh processes; setup_s is their median
SETUP_PROBES = 7
TAIL_PERCENTILE = 90


def _load_program():
    """Import fredsolve from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fredsolve", "__init__.py")):
        raise RuntimeError(f"no fredsolve sources under {SRC}")
    sys.path.insert(0, SRC)
    import fredsolve.cli

    if not os.path.abspath(fredsolve.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported fredsolve from {fredsolve.cli.__file__}, not {SRC}")
    return fredsolve.cli


class Runner:
    """The workload's materialised requests and the loop that issues them."""

    def __init__(self, cli, workload: str, seed: int, workdir: str):
        self.cli = cli
        self.workload = workload
        self.pool = workloads.make_pool(workload, seed)
        self.argvs = workloads.materialize(self.pool, workdir)
        self.warmup = [r.label for r in self.pool].index(workloads.WARMUP[workload])

    def request(self, i: int, tracer=None) -> dict:
        """Issue request i, time the CLI call, then check its artifacts."""
        argv = self.argvs[i]
        shutil.rmtree(argv[-1], ignore_errors=True)
        # free the previous request's cyclic garbage, so that neither its
        # collection nor its memory lands on this request
        gc.collect()
        sink = io.StringIO()
        error = None
        if tracer is not None:
            tracer.begin_request()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed request, not a failed benchmark
            rc, error = None, traceback.format_exc()
        latency = time.perf_counter() - started
        if tracer is not None:
            tracer.end_request()
        record = {"label": self.pool[i].label, "latency_s": latency, "ok": False}
        if rc != 0:
            record["error"] = error or f"exit code {rc}: {sink.getvalue()[-500:]}"
            return record
        verify = check.check_reduce if self.workload == "reduce_2d" else check.check_solve
        try:
            record.update(verify(argv[-1], self.pool[i].truth))
        except check.CheckError as exc:
            record["error"] = str(exc)
            return record
        record["ok"] = True
        return record


def run_passes(orders, seconds, min_passes, issue, before_pass=None):
    """Whole passes over the pool for about `seconds` of measuring.

    ``issue(i)`` sends request i and returns its records; ``before_pass``
    runs before each pass and is not counted.  After ``min_passes``, a pass
    starts only if one more pass of the mean length so far fits in
    ``seconds``, so that a slow spell of the host does not lengthen the run.
    """
    records, used, done = [], 0.0, 0
    while done < min_passes or used * (done + 1) / done <= seconds:
        if before_pass:
            before_pass(done)
        started = time.monotonic()
        for i in next(orders):
            records.extend(issue(i))
        used += time.monotonic() - started
        done += 1
    return records


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 prints its configuration only
        blas = {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "malloc_thresholds_fixed": MALLOC_SETTLED,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def _setup(args, workdir):
    cli = _load_program()
    runner = Runner(cli, args.workload, args.seed, workdir)
    warm = runner.request(runner.warmup)
    return runner, warm


def setup_probe(args) -> int:
    """Set up as a workload process does, then print when it was ready."""
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        _, warm = _setup(args, workdir)
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not warm["ok"]:
        sys.stderr.write(f"warm-up failed: {warm['error']}\n")
        return 1
    print(f"{ready!r}")
    return 0


def setup_seconds(args) -> float:
    """Process start to ready-for-the-first-request, in a fresh process."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - started


def end_to_end(records, setup_times, in_process_setup):
    latencies = [r["latency_s"] for r in records]
    ok = [r for r in records if r["ok"]]
    metrics = {
        "latency_p50_ms": (1e3 * _percentile(latencies, 50), "ms"),
        f"latency_p{TAIL_PERCENTILE}_ms": (1e3 * _percentile(latencies, TAIL_PERCENTILE), "ms"),
        "requests_per_s": (len(ok) / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(1 for v in latencies if v > _percentile(latencies, TAIL_PERCENTILE))
    extras = {
        "failed_ratio": (len(records) - len(ok)) / len(records),
        "rel_residual_median": statistics.median(r["relative_residual"] for r in ok)
        if ok else None,
        "recon_err_median": statistics.median(r["recon_err"] for r in ok)
        if ok and "recon_err" in ok[0] else None,
        "requests": len(records),
        f"samples_beyond_p{TAIL_PERCENTILE}": beyond,
        "setup_probe_s": setup_times,
        "setup_in_process_s": in_process_setup,
    }
    return metrics, extras


def traced(args, runner, orders):
    """Each request runs twice back to back, once untraced and once traced.

    The pairs alternate which runs first, so neither side gets the warmer
    caches; their wall times give the tracing overhead.
    """
    tracer = spans.Tracer()
    pairs = [0]

    def paired(i):
        def traced_request():
            tracer.install()
            try:
                return dict(runner.request(i, tracer), traced=True)
            finally:
                tracer.uninstall()

        pairs[0] += 1
        if pairs[0] % 2:
            return [runner.request(i), traced_request()]
        return [traced_request(), runner.request(i)]

    records = run_passes(orders, args.seconds, 1, paired)
    plain = sum(r["latency_s"] for r in records if not r.get("traced"))
    traced_ = sum(r["latency_s"] for r in records if r.get("traced"))
    missing = spans.EXPECTED_SPANS[args.workload] - tracer.fired()
    values = tracer.layer_metrics(overhead_ratio=traced_ / plain)
    metrics = {name: (values[name], unit) for name, unit in spans.per_layer_metric_names()}
    return records, metrics, tracer, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        return run(args)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


def run(args) -> int:
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    results = os.path.join(OUT, "results")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    try:
        runner, warm = _setup(args, workdir)
        in_process_setup = time.monotonic() - STARTED
        orders = workloads.pass_orders(args.workload, args.seed, len(runner.pool))
        min_passes = workloads.min_passes(len(runner.pool))
        tracer = None
        if args.trace:
            records, metrics, tracer, missing = traced(args, runner, orders)
            extras = {"requests": len(records),
                      "traced_requests": tracer.requests}
            if missing:
                raise RuntimeError(f"span(s) never fired on {args.workload}: "
                                   f"{sorted(missing)}; a renamed or bypassed layer "
                                   f"would read as zero cost")
        else:
            # set-up probes run between passes, so they sample the whole run
            setup_times = []

            def probe(index):
                if index < SETUP_PROBES:
                    setup_times.append(setup_seconds(args))

            records = run_passes(orders, args.seconds, min_passes,
                                 lambda i: [runner.request(i)], before_pass=probe)
            while len(setup_times) < SETUP_PROBES:
                setup_times.append(setup_seconds(args))
            metrics, extras = end_to_end(records, setup_times, in_process_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in [warm] + records if not r["ok"]]
    env = environment(args)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.dump(stem + ".spans.json")
    with open(stem + ".json", "w") as fh:
        json.dump({"environment": env, "metrics": {k: v[0] for k, v in metrics.items()},
                   "units": {k: v[1] for k, v in metrics.items()}, "extras": extras,
                   "warmup": warm, "records": records}, fh, indent=1)

    print(f"# fredsolve benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} requests={len(records)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    for name, value in extras.items():
        print(f"{name:36s} {value}")
    for r in failed[:5]:
        print(f"FAILED {r['label']}: {r['error'].strip().splitlines()[-1]}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": 1 + len(records),
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
