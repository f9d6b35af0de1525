"""The three benchmark workloads: inputs made from a seed, timed units, output checks.

Every workload is driven by one process in a closed loop: the next unit of
work starts only when the previous one has returned. A unit is

- stress-sweep: one asymptotic_experiment call (two criterion-6 trials,
  parallel=2) on a panel entry;
- certify-large: one cycle over the three large shapes, each a certified
  aggregate built from raw points (uniform_profile, geometric_median,
  skewed_geometric_median);
- attack-cli: one cycle of three in-process `medianforge simulate` commands,
  one per byzantine (V_T, V_S) shape, with --parallel 2.

Only the package calls are timed; writing configs and checking outputs is not.
The checks accept any correct program: certificates and bounds, never stored
bytes.
"""

import contextlib
import csv
import io
import json
import os
from time import perf_counter

import numpy as np

import medianforge as mf
import sweep_config as sc
from medianforge import cli
from medianforge import simulate as sim

HERE = os.path.dirname(os.path.abspath(__file__))
TOL = 1e-10
GAIN_FLOOR_RTOL = 1e-9
MAX_PROBLEMS = 20


def derived_seed(*key):
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class Workload:
    """Shared bookkeeping: operation counts and failed output checks."""

    name = None
    warmup_units = 1        # untimed units run before timing
    nominal_unit_s = 1.0    # typical unit wall time, sizes the traced run

    def __init__(self, seed, seconds, smoke, workdir):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.workdir = workdir
        self.tracing = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.gains = []          # stress-sweep max_gain per checked trial
        self.solve_times = []    # certify-large (input, method, seconds) per solve

    def problem(self, text):
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def mark(self):
        """Position in the per-solve record, to take one phase's solves."""
        return len(self.solve_times)

    def untraced_metrics(self, mark, untraced_s):
        """Gain and solve rates of the untraced phase, reported with the layers."""
        self.untraced_solves = self.solve_times[mark:]
        solves = [t for _, _, t in self.untraced_solves]
        return {
            "gain_mean": (float(np.mean(self.gains)) if self.gains else 0.0, "1"),
            "solves_per_s": (len(solves) / untraced_s if solves else 0.0, "1/s"),
            "solve_s.p50": (float(np.median(solves)) if solves else 0.0, "s"),
        }

    def prepare(self):
        """Set-up work of the benchmark itself, outside setup_s."""

    def pass_metrics(self):
        return {"solvers.pass_s": (0.0, "s"),
                "solvers.pass_equiv_per_solve": (0.0, "count"),
                "solvers.pass_gbps_computed": (0.0, "GB/s")}

    def plan(self, traced):
        """Units per run: None loops units for --seconds; a traced run does a
        fixed count per phase, sized so both phases fit in --seconds."""
        if traced:
            return max(1, int(self.seconds / (2.0 * self.nominal_unit_s)))
        return None


# -- stress-sweep -------------------------------------------------------------


class StressSweep(Workload):
    """Criterion-6 boundary-stress sweep; best_response does almost all the work.

    The panel (panel.json) holds eight experiment seeds with the max_gain
    each of their first twelve trials reached when the panel was recorded.
    The seed picks one entry; a run sweeps its trials in one call, as
    criterion 6 sweeps its 200, so the pool stays busy until the last
    trials. Twelve trials keep the idle tail, one worker finishing the last
    ~7-s trial alone, a small share of the run.
    """

    name = "stress-sweep"
    warmup_units = 0
    e2e_trials = sc.TRIALS_PER_ENTRY
    trace_trials = 4
    smoke_trials = 2

    def generate(self):
        with open(os.path.join(HERE, "panel.json"), encoding="utf-8") as fh:
            panel = json.load(fh)
        entries = panel["entries"]
        self.entry = entries[int(np.random.default_rng(self.seed).integers(len(entries)))]

    def plan(self, traced):
        if self.smoke:
            self.unit_trials = self.smoke_trials
        else:
            self.unit_trials = self.trace_trials if traced else self.e2e_trials
        return 1

    def unit(self, index):
        entry = self.entry
        config = sc.experiment_config(sim, entry["seed"], self.unit_trials)
        start = perf_counter()
        report = sim.asymptotic_experiment(config, parallel=sc.PARALLEL)
        wall = perf_counter() - start
        self.attempted += config.trials
        rows = sorted(report.rows, key=lambda r: r["trial"])
        if [r["trial"] for r in rows] != list(range(config.trials)):
            self.problem(f"entry {entry['seed']}: rows for trials {[r['trial'] for r in rows]}")
        for row in rows:
            if row.get("error"):
                self.failed += 1
                self.problem(f"entry {entry['seed']} trial {row['trial']}: {row['error']}")
                continue
            gain, floor = row["max_gain"], entry["max_gain"][row["trial"]]
            self.gains.append(gain)
            # Gains are lower bounds on the worst case: a correct search may
            # find more, never less, than the recorded floor. The slack admits
            # rounding: computing the solver's distances with np.linalg.norm
            # instead of einsum moved gains by up to 3.5e-12 of their size.
            if not gain >= floor - GAIN_FLOOR_RTOL * abs(floor):
                self.problem(f"entry {entry['seed']} trial {row['trial']}: max_gain "
                             f"{gain!r} below recorded floor {floor!r}")
        return wall, config.trials

    def summary(self):
        return {"gain_mean": float(np.mean(self.gains)) if self.gains else None,
                "experiment_seed": self.entry["seed"], "trials": self.unit_trials}


# -- certify-large --------------------------------------------------------------


def reference_median(points):
    """Long independent solve: Weiszfeld from the mean, then exact Newton steps.

    Returns the point and its own local certificate ||grad|| / lambda_min(H).
    """
    n, d = points.shape
    z = points.mean(axis=0)
    for _ in range(20):
        w = 1.0 / np.linalg.norm(points - z, axis=1)
        z = (w @ points) / w.sum()
    best = None
    for _ in range(30):
        diffs = z - points
        r = np.linalg.norm(diffs, axis=1)
        u = diffs / r[:, None]
        g = u.mean(axis=0)
        h = np.eye(d) * np.mean(1.0 / r) - (u / r[:, None]).T @ u / n
        gn = float(np.linalg.norm(g))
        if best is not None and gn >= best[1]:
            break
        best = (z, gn, h)
        z = z - np.linalg.solve(h, g)
    z, gn, h = best
    return z, gn / float(np.linalg.eigvalsh(h)[0])


class CertifyLarge(Workload):
    """Serial certified aggregates of large, cold, raw point sets.

    profiles and solvers do the work; strategy and the process pool are
    skipped. Each shape has two instances, used in alternate cycles, so no
    solve starts from data the previous cycle just touched.
    """

    name = "certify-large"
    # The first cycles of a fresh process ran up to 50% slower than later ones.
    warmup_units = 3
    nominal_unit_s = 2.5
    shapes = ((100_000, 5), (10_000, 50), (200_000, 10))
    smoke_shapes = ((2_000, 5), (500, 20), (4_000, 10))
    instances = 2
    unit_trials = 3

    def generate(self):
        shapes = self.smoke_shapes if self.smoke else self.shapes
        self.inputs = []
        for k, (v, d) in enumerate(shapes):
            per_shape = []
            for j in range(self.instances):
                rng = np.random.default_rng(derived_seed(self.seed, k, j))
                x = rng.standard_normal((v, d)) * rng.uniform(0.5, 3.0, d)
                x += rng.standard_normal(d)
                a = rng.standard_normal((d, d))
                skew = np.eye(d) + 0.5 * (a @ a.T) / d
                per_shape.append({"key": f"{v}x{d}#{j}", "x": x, "skew": skew})
            self.inputs.append(per_shape)

    def prepare(self):
        for per_shape in self.inputs:
            for item in per_shape:
                x, skew = item["x"], item["skew"]
                item["ref_gm"], item["ref_gm_err"] = reference_median(x)
                y, y_err = reference_median(x @ skew.T)
                item["ref_skewed"] = np.linalg.solve(skew, y)
                item["ref_skewed_err"] = y_err / float(np.linalg.eigvalsh(skew)[0])
                # Rounding in the distance sums limits how exactly any solver
                # can place the point; allow that on top of both certificates.
                item["slack"] = 1e-12 * (1.0 + float(np.max(np.abs(x))))

    def unit(self, index):
        wall = 0.0
        for per_shape in self.inputs:
            item = per_shape[index % self.instances]
            self.attempted += 1
            try:
                t0 = perf_counter()
                profile = mf.uniform_profile(item["x"])
                t1 = perf_counter()
                gm = mf.geometric_median(profile, TOL)
                t2 = perf_counter()
                skewed = mf.skewed_geometric_median(profile, item["skew"], TOL)
                t3 = perf_counter()
            except Exception as exc:  # a failed solve is counted, not fatal to the run
                self.failed += 1
                self.problem(f"{item['key']}: {type(exc).__name__}: {exc}")
                continue
            wall += t3 - t0
            self.solve_times.append((item["key"], "gm", t2 - t1))
            self.solve_times.append((item["key"], "skewed", t3 - t2))
            self._check(item, "gm", gm, item["ref_gm"], item["ref_gm_err"])
            self._check(item, "skewed", skewed, item["ref_skewed"], item["ref_skewed_err"])
            item["last_point"] = gm.point
        return wall, self.unit_trials

    def _check(self, item, method, result, ref, ref_err):
        if not result.grad_norm <= TOL:
            self.problem(f"{item['key']} {method}: grad_norm {result.grad_norm:.3e} > {TOL}")
        dist = float(np.linalg.norm(result.point - ref))
        allowed = result.additive_bound + ref_err + item["slack"]
        if not dist <= allowed:
            self.problem(f"{item['key']} {method}: {dist:.3e} from the reference solve, "
                         f"certificate allows {allowed:.3e}")

    def pass_metrics(self, repeats=7):
        """Distance-pass metrics: one loss_eval per distinct input, timed.

        pass_s is the mean over inputs of the median pass time; bytes are
        computed as V*d*8 per pass, with every input inside the LLC.
        """
        passes = {}
        for per_shape in self.inputs:
            for item in per_shape:
                profile = mf.uniform_profile(item["x"])
                z = item.get("last_point", item["ref_gm"])
                samples = []
                for _ in range(repeats):
                    t0 = perf_counter()
                    mf.loss_eval(profile, z)
                    samples.append(perf_counter() - t0)
                passes[item["key"]] = (float(np.median(samples)), item["x"].nbytes)
        seconds = [p for p, _ in passes.values()]
        equiv = [t / passes[key][0] for key, _, t in self.untraced_solves]
        return {
            "solvers.pass_s": (float(np.mean(seconds)), "s"),
            "solvers.pass_equiv_per_solve": (float(np.median(equiv)), "count"),
            "solvers.pass_gbps_computed": (
                sum(b for _, b in passes.values()) / sum(seconds) / 1e9, "GB/s"),
        }

    def summary(self):
        shapes = self.smoke_shapes if self.smoke else self.shapes
        return {"shapes": [list(s) for s in shapes], "instances": self.instances}


# -- attack-cli -----------------------------------------------------------------


class AttackCli(Workload):
    """Byzantine simulate commands shaped like criterion 5, run in process.

    The pool runs many millisecond tasks, so dispatch and pickling show; at
    V_T=3 the median lands on a voter (snap-to-voter and Vardi-Zhang
    branches). reportio writes the JSON and CSV reports; no best response.
    """

    name = "attack-cli"
    nominal_unit_s = 3.5
    shapes = ((3, 1), (11, 5), (101, 49))
    trials = 500
    smoke_trials = 20

    def generate(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.unit_trials = len(self.shapes) * (self.smoke_trials if self.smoke else self.trials)

    def unit(self, index):
        trials = self.smoke_trials if self.smoke else self.trials
        wall = 0.0
        for k, (v_t, v_s) in enumerate(self.shapes):
            config = {
                "experiment": "byzantine",
                "distribution": {"kind": "isotropic-gaussian", "dim": 3},
                "V_T": v_t,
                "V_S": v_s,
                "trials": trials,
                "seed": derived_seed(self.seed, index, k),
            }
            cfg_path = os.path.join(self.workdir, f"config_{k}.json")
            out_dir = os.path.join(self.workdir, f"out_{k}")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = ["simulate", "--config", cfg_path, "--parallel", "2",
                    "--output", out_dir, "--deterministic"]
            stderr = io.StringIO()
            self.attempted += trials
            with contextlib.redirect_stderr(stderr):
                t0 = perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a traceback is a failed command, not a crash
                    code = f"{type(exc).__name__}: {exc}"
                seconds = perf_counter() - t0
            wall += seconds
            if self.tracing is not None:
                self.tracing.rec.span("cli.command", seconds)
            if code != 0:
                self.failed += trials
                self.problem(f"({v_t},{v_s}) exit {code}: {stderr.getvalue().strip()}")
                continue
            self._check(out_dir, v_t, v_s, trials)
        return wall, self.unit_trials

    def _check(self, out_dir, v_t, v_s, trials):
        with open(os.path.join(out_dir, "byzantine_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        results = report["results"]
        if results["summary"]["all_within_bound"] is not True:
            self.problem(f"({v_t},{v_s}): all_within_bound is not true")
        if len(results["rows"]) != trials:
            self.problem(f"({v_t},{v_s}): {len(results['rows'])} report rows for {trials}")
        with open(os.path.join(out_dir, "byzantine_trials.csv"), newline="",
                  encoding="utf-8") as fh:
            csv_rows = sum(1 for _ in csv.reader(fh)) - 1
        if csv_rows != trials:
            self.problem(f"({v_t},{v_s}): {csv_rows} CSV rows for {trials} trials")

    def summary(self):
        return {"shapes": [list(s) for s in self.shapes],
                "trials_per_command": self.smoke_trials if self.smoke else self.trials}


WORKLOADS = {w.name: w for w in (StressSweep, CertifyLarge, AttackCli)}
