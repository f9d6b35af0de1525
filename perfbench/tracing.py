"""Per-layer tracing for the traced benchmark run.

The package is never edited. Instead, `Tracing.install` rebinds package
functions at module boundaries: every package module namespace that holds a
traced function gets a wrapper that times the call and counts it. A name a
later refactor removed is recorded as absent and the run goes on.

Work done in pool workers is traced too. The wrapper around
`simulate._run_tasks` hands the pool a picklable `TracedTask`; each worker
task records into a fresh `Recorder` and appends it as one JSON line to a
per-process file, which the parent merges when the traced phase ends.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE_MODULES = (
    "medianforge",
    "medianforge.profiles",
    "medianforge.solvers",
    "medianforge.strategy",
    "medianforge.simulate",
    "medianforge.reportio",
    "medianforge.cli",
)

# Spans whose per-call durations are kept for percentiles; every other span
# keeps only its call count and total time, because some run 10^4 times a trial.
SAMPLED_SPANS = (
    "profiles.build",
    "solvers.geometric_median",
    "solvers.skewed_geometric_median",
    "strategy.best_response",
    "simulate.task",
    "cli.command",
)

# Failure classes that get their own simulate.failed.<class> metric; any other
# class counts under simulate.failed.Other.
FAILURE_CLASSES = (
    "AtVoterPoint",
    "BracketFailure",
    "DegenerateDimension",
    "DimensionMismatch",
    "MajorityAttack",
    "NotSPD",
    "SolverFailure",
    "ZeroVector",
    "RuntimeError",
    "ValueError",
    "Other",
)


class Recorder:
    """Call counts, total seconds and sampled values of one traced stretch."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.samples = defaultdict(list)

    def span(self, name, seconds):
        self.calls[name] += 1
        self.total[name] += seconds
        if name in SAMPLED_SPANS:
            self.samples[name].append(seconds)

    def count(self, name, n=1):
        self.calls[name] += n

    def value(self, name, x):
        self.samples[name].append(x)

    def to_doc(self):
        return {"calls": self.calls, "total": self.total, "samples": self.samples}

    def merge(self, doc):
        for k, v in doc["calls"].items():
            self.calls[k] += v
        for k, v in doc["total"].items():
            self.total[k] += v
        for k, v in doc["samples"].items():
            self.samples[k].extend(v)


# The Tracing installed in this process. Pool workers made by fork inherit it
# with the rebound functions; a worker made by spawn starts with None and
# installs its own on its first task.
_ACTIVE = None


class Tracing:
    """Installs the boundary wrappers and owns the recorder they write to."""

    def __init__(self, trace_dir):
        self.trace_dir = trace_dir
        self.rec = Recorder()
        self.absent = []
        self.in_blackbox = 0
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        global _ACTIVE
        self._wrap("medianforge.profiles", "uniform_profile", self._timed("profiles.build"))
        self._wrap("medianforge.solvers", "geometric_median",
                   self._timed("solvers.geometric_median", self._after_solve))
        self._wrap("medianforge.solvers", "skewed_geometric_median",
                   self._timed("solvers.skewed_geometric_median", self._after_solve))
        self._wrap("medianforge.solvers", "min_norm_subgradient",
                   self._timed("solvers.min_norm_subgradient"))
        self._wrap("medianforge.strategy", "best_response",
                   self._timed("strategy.best_response", self._after_best_response))
        # The two search paths have no public entry point; trace them while
        # they exist under these names.
        self._wrap("medianforge.strategy", "_projection_response",
                   self._timed("strategy.projection"))
        self._wrap("medianforge.strategy", "_blackbox_response", self._blackbox)
        self._wrap("medianforge.strategy", "_solve_gm_raw", self._raw_solve,
                   namespaces=("medianforge.strategy",))
        self._wrap("medianforge.strategy", "boundary_point",
                   self._timed("strategy.boundary_point"))
        self._wrap("medianforge.strategy", "numeric_skewness",
                   self._timed("strategy.numeric_skewness"))
        self._wrap("medianforge.strategy", "byzantine_bound",
                   self._timed("strategy.byzantine_bound"))
        self._wrap("medianforge.simulate", "_run_tasks", self._run_tasks)
        self._wrap("medianforge.reportio", "dump_report",
                   self._timed("reportio.dump", self._bytes_of("path", 1)))
        self._wrap("medianforge.reportio", "write_rows_csv",
                   self._timed("reportio.rows_csv", self._bytes_of("path", 0)))
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        _ACTIVE = None

    def _wrap(self, module_name, attr, make_wrapper, namespaces=PACKAGE_MODULES):
        """Rebind module_name.attr, in every namespace that holds it, to a wrapper."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        for name in namespaces:
            ns = sys.modules.get(name)
            if ns is None:
                continue
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self._undo.append((ns, key, original))

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.rec.span(name, time.perf_counter() - start)
                if after is not None:
                    after(result, args, kwargs)
                return result
            return wrapper
        return make

    def _after_solve(self, result, args, kwargs):
        iterations = getattr(result, "iterations", None)
        if iterations is not None:
            self.rec.count("solvers.iterations", int(iterations))

    def _after_best_response(self, report, args, kwargs):
        cands = getattr(report, "candidates", None) or {}
        proj, blackbox = cands.get("projection"), cands.get("blackbox")
        if proj is None or blackbox is None:
            return
        self.rec.value("strategy.path_gap", float(blackbox["dist"] - proj["dist"]))
        self.rec.count("strategy.projection_wins", int(proj["dist"] <= blackbox["dist"]))

    def _bytes_of(self, keyword, position):
        def after(result, args, kwargs):
            path = kwargs.get(keyword, args[position] if len(args) > position else None)
            if isinstance(path, str) and os.path.exists(path):
                self.rec.count("reportio.bytes_written", os.path.getsize(path))
        return after

    def _blackbox(self, original):
        timed = self._timed("strategy.blackbox")(original)

        def wrapper(*args, **kwargs):
            self.in_blackbox += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self.in_blackbox -= 1
        return wrapper

    def _raw_solve(self, original):
        def wrapper(*args, **kwargs):
            if self.in_blackbox:
                self.rec.count("strategy.blackbox_solves")
            return original(*args, **kwargs)
        return wrapper

    def _run_tasks(self, original):
        def wrapper(*args, **kwargs):
            if not args or not callable(args[0]):
                return original(*args, **kwargs)
            tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
            parallel = args[2] if len(args) > 2 else kwargs.get("parallel", 1)
            # The package runs tasks inline unless parallel > 1 and there is
            # more than one task; otherwise it starts min(parallel, tasks) workers.
            workers = 1
            if parallel and parallel > 1 and len(tasks) > 1:
                workers = min(parallel, len(tasks))
            start = time.perf_counter()
            try:
                return original(TracedTask(args[0], self.trace_dir), *args[1:], **kwargs)
            finally:
                wall = time.perf_counter() - start
                self.rec.span("simulate.run_tasks", wall)
                self.rec.total["simulate.worker_capacity"] += wall * workers
        return wrapper

    # -- collection ---------------------------------------------------------

    def collect(self):
        """Merge what the workers wrote into this process's recorder."""
        for name in sorted(os.listdir(self.trace_dir)):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(self.trace_dir, name)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    self.rec.merge(json.loads(line))
            os.remove(path)
        return self.rec


class TracedTask:
    """Picklable wrapper that traces one pool task in whichever process runs it."""

    def __init__(self, fn, trace_dir):
        self.fn = fn
        self.trace_dir = trace_dir

    def __call__(self, task):
        tracing = _ACTIVE
        if tracing is None:
            tracing = Tracing(self.trace_dir)
            tracing.install()
        outer, tracing.rec = tracing.rec, Recorder()
        failure = row = None
        start = time.perf_counter()
        try:
            row = self.fn(task)
        except Exception as exc:
            failure = type(exc).__name__
            raise
        finally:
            rec = tracing.rec
            rec.span("simulate.task", time.perf_counter() - start)
            if failure is None and isinstance(row, dict) and row.get("error"):
                failure = str(row["error"]).split(":", 1)[0]
            if failure is not None:
                rec.count("simulate.failed." + (failure if failure in FAILURE_CLASSES
                                                else "Other"))
            path = os.path.join(self.trace_dir, f"{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec.to_doc()) + "\n")
            tracing.rec = outer
        return row


def _quantile(values, q):
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(rec):
    """Per-layer metrics from a merged recorder, as {name: (value, unit)}.

    `_s` names without a percentile are total seconds over the traced phase,
    `.calls` and counts are totals, and shares are of best_response time.
    """
    calls, total, samples = rec.calls, rec.total, rec.samples
    br_calls = calls["strategy.best_response"]
    br_total = total["strategy.best_response"]
    capacity = total["simulate.worker_capacity"]
    out = {
        "profiles.build_s": (_quantile(samples["profiles.build"], 0.5), "s"),
        "solvers.gm_solve_s.p50": (_quantile(samples["solvers.geometric_median"], 0.5), "s"),
        "solvers.gm_solve_s.p90": (_quantile(samples["solvers.geometric_median"], 0.9), "s"),
        "solvers.skewed_solve_s.p50": (
            _quantile(samples["solvers.skewed_geometric_median"], 0.5), "s"),
        "solvers.iterations": (calls["solvers.iterations"], "count"),
        "solvers.min_norm_subgradient.calls": (calls["solvers.min_norm_subgradient"], "count"),
        "solvers.min_norm_subgradient_s": (total["solvers.min_norm_subgradient"], "s"),
        "strategy.best_response_s.p50": (_quantile(samples["strategy.best_response"], 0.5), "s"),
        "strategy.best_response_s.p90": (_quantile(samples["strategy.best_response"], 0.9), "s"),
        "strategy.best_response.calls": (br_calls, "count"),
        "strategy.projection_s": (total["strategy.projection"], "s"),
        "strategy.blackbox_s": (total["strategy.blackbox"], "s"),
        "strategy.projection_share": (
            total["strategy.projection"] / br_total if br_total else 0.0, "frac"),
        "strategy.blackbox_share": (
            total["strategy.blackbox"] / br_total if br_total else 0.0, "frac"),
        "strategy.blackbox_solves": (
            calls["strategy.blackbox_solves"] / br_calls if br_calls else 0.0, "count"),
        "strategy.path_gap": (_quantile(samples["strategy.path_gap"], 0.5), "dist"),
        "strategy.projection_wins": (calls["strategy.projection_wins"], "count"),
        "strategy.boundary_point_s": (total["strategy.boundary_point"], "s"),
        "strategy.boundary_point.calls": (calls["strategy.boundary_point"], "count"),
        "strategy.numeric_skewness_s": (total["strategy.numeric_skewness"], "s"),
        "strategy.byzantine_bound_s": (total["strategy.byzantine_bound"], "s"),
        "simulate.tasks": (calls["simulate.task"], "count"),
        "simulate.task_s.p50": (_quantile(samples["simulate.task"], 0.5), "s"),
        "simulate.task_s.p90": (_quantile(samples["simulate.task"], 0.9), "s"),
        "simulate.pool_busy_frac": (
            total["simulate.task"] / capacity if capacity else 0.0, "frac"),
        "reportio.dump_s": (total["reportio.dump"], "s"),
        "reportio.rows_csv_s": (total["reportio.rows_csv"], "s"),
        "reportio.bytes_written": (calls["reportio.bytes_written"], "bytes"),
        "cli.command_s": (_quantile(samples["cli.command"], 0.5), "s"),
    }
    for cls in FAILURE_CLASSES:
        out["simulate.failed." + cls] = (calls["simulate.failed." + cls], "count")
    return out


# Which wrapped function each metric reads, to mark metrics of absent names.
METRIC_SOURCES = {
    "profiles.": "medianforge.profiles.uniform_profile",
    "solvers.gm_": "medianforge.solvers.geometric_median",
    "solvers.skewed_": "medianforge.solvers.skewed_geometric_median",
    "solvers.min_norm": "medianforge.solvers.min_norm_subgradient",
    "strategy.best_response": "medianforge.strategy.best_response",
    "strategy.path_gap": "medianforge.strategy.best_response",
    "strategy.projection_wins": "medianforge.strategy.best_response",
    "strategy.projection_": "medianforge.strategy._projection_response",
    "strategy.blackbox_s": "medianforge.strategy._blackbox_response",
    "strategy.blackbox_share": "medianforge.strategy._blackbox_response",
    "strategy.blackbox_solves": "medianforge.strategy._solve_gm_raw",
    "strategy.boundary_point": "medianforge.strategy.boundary_point",
    "strategy.numeric_skewness": "medianforge.strategy.numeric_skewness",
    "strategy.byzantine_bound": "medianforge.strategy.byzantine_bound",
    "simulate.": "medianforge.simulate._run_tasks",
    "reportio.dump": "medianforge.reportio.dump_report",
    "reportio.rows_csv": "medianforge.reportio.write_rows_csv",
}


def absent_metrics(names, absent_functions):
    """Metric names whose traced function did not exist in this program."""
    missing = set(absent_functions)
    out = []
    for name in names:
        prefixes = [p for p in METRIC_SOURCES if name.startswith(p)]
        if prefixes and METRIC_SOURCES[max(prefixes, key=len)] in missing:
            out.append(name)
    return sorted(out)
