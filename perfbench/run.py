"""medianforge benchmark: one command, three workloads, output checks, metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 20 --trace 0

The package is imported from ./src as shipped; the benchmark sets no BLAS or
OpenMP thread variable. --trace 0 prints the end-to-end metrics; --trace 1
runs the same units twice, untraced and then traced, and prints the
per-layer metrics and the tracing overhead. The last line of standard output
is the result object; the line before it is a detail object with the
machine section, the workload summary and any failed check.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
               "GOTO_NUM_THREADS", "OMP_THREAD_LIMIT")
IMPORT_REPEATS = 5
GENERATE_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stress-sweep", "certify-large", "attack-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_package():
    """Import medianforge from ./src, refusing any other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "medianforge", "__init__.py")):
        sys.exit(f"error: no package at {os.path.relpath(SRC)}/medianforge; "
                 "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import medianforge
    if os.path.dirname(os.path.dirname(os.path.abspath(medianforge.__file__))) != SRC:
        sys.exit(f"error: medianforge imported from {medianforge.__file__}, not ./src")
    return medianforge


def llc_bytes():
    """Size of the highest-level CPU cache, from sysfs; None where unreadable."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    try:
        for index in os.listdir(base):
            if not index.startswith("index"):
                continue
            with open(os.path.join(base, index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, index, "size")) as fh:
                text = fh.read().strip()
            size = int(text[:-1]) * {"K": 1 << 10, "M": 1 << 20}[text[-1]] \
                if text[-1] in "KM" else int(text)
            best = max(best, (level, size))
    except (OSError, ValueError):
        return None
    return best[1]


def blas_version(module):
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # build metadata layout differs across releases
        return None


def machine():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def setup_seconds(workload, smoke):
    """Median cold import of medianforge.cli in a fresh interpreter, plus the
    median time to generate the workload's inputs."""
    imports = []
    for _ in range(2 if smoke else IMPORT_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import medianforge.cli"], env=package_env(),
                       check=True, stdin=subprocess.DEVNULL)
        imports.append(perf_counter() - start)
    generation = []
    for _ in range(GENERATE_REPEATS):
        start = perf_counter()
        workload.generate()
        generation.append(perf_counter() - start)
    return statistics.median(imports) + statistics.median(generation), imports, generation


def run_units(workload, first, count=None, seconds=None):
    """Closed loop: unit after unit, until `count` units or `seconds` have passed."""
    walls, trials = [], 0
    start = perf_counter()
    index = first
    while (count is not None and len(walls) < count) or \
            (seconds is not None and (not walls or perf_counter() - start < seconds)):
        wall, n = workload.unit(index)
        walls.append(wall)
        trials += n
        index += 1
    return walls, trials


def end_to_end(workload, setup_s):
    count = workload.plan(traced=False)
    for index in range(workload.warmup_units):
        workload.unit(index)
    walls, trials = run_units(workload, workload.warmup_units, count=count,
                              seconds=None if count else workload.seconds)
    if count:
        rate = trials / sum(walls)
    else:
        # The median unit rides out stalls caused by other tenants of the host.
        rate = workload.unit_trials / statistics.median(walls)
    return {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {"units": len(walls), "unit_walls_s": walls, "trials_timed": trials}


def traced(workload, trace_dir):
    """Run the same units untraced, then traced; per-layer metrics and overhead."""
    import tracing

    count = workload.plan(traced=True)
    for index in range(workload.warmup_units):
        workload.unit(index)
    first = workload.warmup_units
    mark = workload.mark()
    plain, _ = run_units(workload, first, count=count)
    untraced_s = sum(plain)
    phase = workload.untraced_metrics(mark, untraced_s)

    os.makedirs(trace_dir, exist_ok=True)
    tr = tracing.Tracing(trace_dir)
    tr.install()
    workload.tracing = tr
    try:
        traced_walls, _ = run_units(workload, first, count=count)
    finally:
        tr.uninstall()
        workload.tracing = None
    traced_s = sum(traced_walls)

    metrics = tracing.layer_metrics(tr.collect())
    metrics.update(phase)
    metrics.update(workload.pass_metrics())
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "frac")
    metrics["failed_frac"] = (workload.failed / max(1, workload.attempted), "frac")
    names = sorted(metrics)
    return metrics, {
        "units_per_phase": count,
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "absent_functions": tr.absent,
        "absent_metrics": tracing.absent_metrics(names, tr.absent),
        "not_exercised": [n for n in names if metrics[n][0] == 0],
    }


def peak_rss_mb():
    """Peak RSS of this process plus the largest peak among its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None):
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, HERE)
    import workloads

    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.smoke,
                                                  os.path.join(workdir, "io"))
    try:
        setup_s, imports, generation = setup_seconds(workload, args.smoke)
        workload.prepare()
        if args.trace:
            metrics, info = traced(workload, os.path.join(workdir, "trace"))
        else:
            metrics, info = end_to_end(workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))

    correct = not workload.problems
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "setup": {"import_s": imports, "generate_s": generation},
        "run": info,
        "summary": workload.summary(),
        "problems": workload.problems,
    }
    result = {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
