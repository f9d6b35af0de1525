import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from medianforge import simulate as sim
from medianforge import solvers as sv
from medianforge import strategy as st
from medianforge.errors import DimensionMismatch, MajorityAttack, NotSPD
from medianforge.linalg import (_openblas_thread_controls, check_spd, one_blas_thread, spd_inv,
                                spd_sqrt)
from medianforge.profiles import uniform_profile
from medianforge.solvers import geometric_median, loss_gradient
from medianforge.strategy import achievable_contains, skewness


class TestDistributions:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            sim.PreferenceDistribution("cauchy", 3)
        with pytest.raises(ValueError):
            sim.PreferenceDistribution("isotropic-gaussian", 1)
        with pytest.raises(ValueError):
            sim.PreferenceDistribution("diagonal-gaussian", 3, sigmas=(1.0, 2.0))
        with pytest.raises(ValueError, match="unknown distribution kind 'four-corner'"):
            sim.PreferenceDistribution("four-corner", 2)

    @pytest.mark.parametrize("kind,extra,message", [
        ("isotropic-gaussian", {"radius": -4}, "isotropic-gaussian takes no radius; "
         "only uniform-ball does"),
        ("diagonal-gaussian", {"sigmas": (1, 1, 1), "radius": 1.0},
         "diagonal-gaussian takes no radius; only uniform-ball does"),
        ("uniform-ball", {"radius": 1.0, "sigmas": (1, 1, 1)},
         "uniform-ball takes no sigmas; only diagonal-gaussian does"),
        ("isotropic-gaussian", {"sigmas": (1, 1, 1)},
         "isotropic-gaussian takes no sigmas; only diagonal-gaussian does"),
    ], ids=["gaussian-radius", "diagonal-radius", "ball-sigmas", "gaussian-sigmas"])
    def test_parameter_of_another_kind_refused(self, kind, extra, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.PreferenceDistribution(kind, 3, **extra)

    def test_same_seed_same_profile(self):
        d = sim.PreferenceDistribution("uniform-ball", 4, radius=2.0)
        a = sim.sample_profile(d, 50, 123)
        b = sim.sample_profile(d, 50, 123)
        np.testing.assert_array_equal(a.voters, b.voters)
        c = sim.sample_profile(d, 50, 124)
        assert not np.array_equal(a.voters, c.voters)

    def test_four_corner_atoms(self):
        prof = sim.build_theorem1_instance(8.0, 5).honest_profile
        expected = {(-8.0, -1.0), (-8.0, 1.0), (8.0, -1.0), (8.0, 1.0)}
        assert {tuple(v) for v in prof.voters} == expected
        assert prof.count == 20

    def test_gaussian_mean_concentration(self):
        d = sim.PreferenceDistribution("isotropic-gaussian", 5)
        hits = 0
        runs = 100
        for seed in range(runs):
            prof = sim.sample_profile(d, 400, seed)
            if np.linalg.norm(prof.voters.mean(axis=0)) <= 4.0 * math.sqrt(5.0 / 400.0):
                hits += 1
        assert hits / runs >= 0.99

    def test_uniform_ball_radius(self):
        d = sim.PreferenceDistribution("uniform-ball", 3, radius=1.5)
        prof = sim.sample_profile(d, 500, 7)
        assert np.max(np.linalg.norm(prof.voters, axis=1)) <= 1.5 + 1e-12


ISO3 = sim.PreferenceDistribution("isotropic-gaussian", 3)
TRIANGLE = uniform_profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("call,name", [
    (lambda: sim.ExperimentConfig(ISO3, V_grid=(200.7,), trials=2, seed=1), "V_grid"),
    (lambda: sim.ExperimentConfig(ISO3, V_grid=(True,), trials=2, seed=1), "V_grid"),
    (lambda: sim.ExperimentConfig(ISO3, V_grid=(200,), trials=2.5, seed=1), "trials"),
    (lambda: sim.theorem1_experiment(20, [200.9]), "V_grid"),
    (lambda: sim.build_theorem1_instance(20.0, "5"), "V"),
    (lambda: sim.byzantine_experiment(ISO3, 3.7, 1, 2, 0), "V_T"),
    (lambda: sim.byzantine_experiment(ISO3, 3, 0.5, 2, 0), "V_S"),
    (lambda: sim.byzantine_experiment(ISO3, 3, 1, np.float64(2.5), 0), "trials"),
    (lambda: sim.PreferenceDistribution("isotropic-gaussian", 5.5), "dim"),
    (lambda: sim.sample_profile(ISO3, 10.5, 0), "v_count"),
    *((lambda n=n: st.byzantine_bound(TRIANGLE, n), "num_strategic") for n in (1.5, True)),
    (lambda: sim.fit_isotropizing_skew(ISO3, samples=200.5), "samples"),
    *(call for seed in (1.5, True) for call in (
        (lambda s=seed: sim.byzantine_experiment(ISO3, 3, 1, 2, s), "seed"),
        (lambda s=seed: sim.ExperimentConfig(ISO3, V_grid=(200,), trials=2, seed=s), "seed"),
        (lambda s=seed: sim.sample_profile(ISO3, 10, s), "seed"),
        (lambda s=seed: st.best_response(np.full(2, 2.0), TRIANGLE, seed=s), "seed"),
        (lambda s=seed: st.condition_checker(TRIANGLE, 0.1, seed=s), "seed"),
        (lambda s=seed: st.numeric_skewness(np.eye(2), seed=s), "seed"),
        (lambda s=seed: sim.fit_isotropizing_skew(ISO3, seed=s), "seed"),
    )),
], ids=["config-V_grid", "config-V_grid-bool", "config-trials", "theorem1-V_grid",
        "theorem1-instance-V", "byzantine-V_T", "byzantine-V_S", "byzantine-trials",
        "distribution-dim", "sample-v_count", "byzantine_bound-1.5", "byzantine_bound-True",
        "isotropizing-samples",
        *(f"{where}-seed-{seed}" for seed in (1.5, True)
          for where in ("byzantine", "config", "sample", "best_response", "condition_checker",
                        "numeric_skewness", "isotropizing"))])
def test_library_refuses_counts_that_are_not_integers(call, name, monkeypatch):
    monkeypatch.setattr(sim, "_run_tasks", None)  # refused before any solve or task
    monkeypatch.setattr(sim, "_solve_gm", None)
    monkeypatch.setattr(st, "_solve_gm", None)
    with pytest.raises(ValueError, match=f"^{name}: expected an integer, got "):
        call()


CONFIG5 = sim.ExperimentConfig(sim.PreferenceDistribution("isotropic-gaussian", 5),
                               V_grid=(200,), trials=1, seed=0)
EXPERIMENTS = {
    "theorem1": lambda p: sim.theorem1_experiment(20.0, [200], parallel=p),
    "asymptotic": lambda p: sim.asymptotic_experiment(CONFIG5, parallel=p),
    "convergence": lambda p: sim.convergence_diagnostics(
        sim.ExperimentConfig(CONFIG5.distribution, (100, 200), 1, 0), parallel=p),
    "byzantine": lambda p: sim.byzantine_experiment(ISO3, 3, 1, 2, 0, parallel=p),
}


@pytest.mark.parametrize("parallel,message", [
    (0, "parallel must be >= 1, got 0"),
    (2.5, "parallel: expected an integer, got 2.5"),
])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiments_refuse_parallel_before_any_task(experiment, parallel, message,
                                                     monkeypatch):
    monkeypatch.setattr(sim, "_run_tasks", None)
    monkeypatch.setattr(sim, "build_theorem1_instance", None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EXPERIMENTS[experiment](parallel)


@pytest.mark.parametrize("cores,parallel,tasks,workers", [
    (2, 64, 10, 2), (8, 3, 10, 3), (8, 64, 5, 5), (None, 4, 10, None), (8, 4, 1, None),
], ids=["cores", "parallel", "tasks", "unknown-cores", "one-task"])
def test_pool_workers_capped_by_cores_and_tasks(cores, parallel, tasks, workers,
                                                monkeypatch):
    import concurrent.futures

    started = []

    class Pool:  # records the worker count and runs the tasks inline
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert sim._run_tasks(abs, list(range(-tasks, 0)), parallel) == list(range(tasks, 0, -1))
    assert started == ([] if workers is None else [workers])


def _never_called(*args, **kwargs):
    raise AssertionError("called before the arguments were judged")


@pytest.mark.parametrize("call,message", [
    (lambda: sv.skewed_geometric_median(TRIANGLE, np.eye(3)),
     "skew matrix has shape (3, 3), dim is 2"),
    (lambda: st.best_response(np.zeros(2), TRIANGLE, s=np.eye(3)),
     "preference matrix has shape (3, 3), dim is 2"),
    (lambda: st.best_response(np.zeros(3), TRIANGLE), "theta0 has shape (3,), dim is 2"),
    (lambda: st.best_response(np.zeros(2), TRIANGLE, extra_votes=[np.zeros(2), np.zeros(1)]),
     "extra vote 1 has shape (1,), dim is 2"),
    (lambda: st.no_shoe_check(np.eye(2), np.eye(3)),
     "second preference matrix has shape (3, 3), dim is 2"),
    # the two asymptotic messages are the parent's, kept as they were
    (lambda: sim.asymptotic_experiment(CONFIG5, s=np.eye(2)),
     "preference matrix has shape (2, 2), dim is 5"),
    (lambda: sim.asymptotic_experiment(CONFIG5, median_skew=np.eye(3)),
     "median_skew has shape (3, 3), dim is 5"),
    # the skewed norm and its derivatives: the skewed loss of one voter at the origin
    *((lambda f=f: f(uniform_profile(np.zeros((1, 3))), np.eye(2), [1.0, 2.0, 3.0]),
       "skew matrix has shape (2, 2), dim is 3")
      for f in (sv.skewed_loss_eval, sv.skewed_loss_gradient, sv.skewed_loss_hessian)),
], ids=["skewed-median", "best-response-preference", "best-response-theta0",
        "best-response-extra-vote", "no-shoe", "asymptotic-preference",
        "asymptotic-median-skew", "skewed-norm", "skewed-gradient", "skewed-hessian"])
def test_library_refuses_arrays_of_the_wrong_size(call, message, monkeypatch):
    for module, name in ((sv, "_solve_gm"), (sv, "_solve_gm_raw"), (st, "_solve_gm"),
                         (st, "_solve_gm_raw"), (sim, "_solve_gm"), (sim, "_run_tasks")):
        monkeypatch.setattr(module, name, _never_called)
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call,name", [
    (lambda: sim.PreferenceDistribution("uniform-ball", 3, radius=True), "radius"),
    (lambda: sim.PreferenceDistribution("diagonal-gaussian", 3, sigmas=(True, 1, 1)),
     "sigmas"),
    (lambda: sim.ExperimentConfig(ISO3, V_grid=(200,), trials=2, seed=1, epsilon=True),
     "epsilon"),
    (lambda: sim.ExperimentConfig(ISO3, V_grid=(200,), trials=2, seed=1, epsilon="0.1"),
     "epsilon"),
    (lambda: st.condition_checker(TRIANGLE, beta="0.1"), "beta"),
], ids=["radius-true", "sigmas-true", "epsilon-true", "epsilon-string", "beta-string"])
def test_library_refuses_numbers_that_are_bools_or_strings(call, name, monkeypatch):
    monkeypatch.setattr(st, "_solve_gm", None)
    with pytest.raises(ValueError, match=f"^{name}: expected a number, got "):
        call()


@pytest.mark.parametrize("grid,message", [
    ([400, 200], "V_grid must be non-empty and strictly ascending, got [400, 200]"),
    ([200, 200], "V_grid must be non-empty and strictly ascending, got [200, 200]"),
    (200, "V_grid: expected a list, got 200"),
], ids=["descending", "repeated", "bare-int"])
def test_theorem1_grid_refused_before_any_task(grid, message, monkeypatch):
    monkeypatch.setattr(sim, "_run_tasks", None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sim.theorem1_experiment(20.0, grid)


def test_library_takes_integral_counts_as_ints():
    cfg = sim.ExperimentConfig(ISO3, V_grid=(np.int64(200), 400.0), trials=np.int32(2), seed=1)
    assert (cfg.V_grid, cfg.trials) == ((200, 400), 2)
    assert all(type(v) is int for v in (*cfg.V_grid, cfg.trials))
    assert type(sim.PreferenceDistribution("isotropic-gaussian", np.int64(3)).dim) is int


class TestTheorem1Instance:
    def test_invariants(self):
        for v in (200, 1000):
            inst = sim.build_theorem1_instance(12.0, v)
            x = inst.corner_x
            corners = uniform_profile([[-x, -1.0], [-x, 1.0], [x, -1.0], [x, 1.0]])
            grad = 4.0 * loss_gradient(corners, inst.g_v)
            assert np.linalg.norm(grad) * v == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(
                inst.theta0, inst.g_v + grad / math.sqrt(v), atol=1e-15
            )
            assert inst.truthful_dist == pytest.approx(v**-1.5, rel=1e-9)

    def test_small_x_rejected(self):
        with pytest.raises(ValueError):
            sim.build_theorem1_instance(4.0, 100)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_x_rejected(self, x):
        # NaN fails every comparison, and inf**3 does not overflow
        with pytest.raises(ValueError, match="finite corner abscissa X >= 8, got"):
            sim.build_theorem1_instance(x, 100)

    def test_overflowing_x_rejected(self):
        # (x**3)**2 overflows a float past about 2.4e51, x**3 past about 5.6e102
        for x in (1e60, 1e200):
            with pytest.raises(ValueError, match="too large"):
                sim.build_theorem1_instance(x, 10)

    @pytest.mark.parametrize("x,reason", [(1e25, "theta0 rounds onto g_V"),
                                          (1e40, "non-finite entries"),
                                          (1e10, "the corners read as collinear"),
                                          (1e15, "theta0 rounds onto g_V"),
                                          (1e20, "theta0 rounds onto g_V")])
    def test_x_lost_to_rounding_rejected(self, x, reason):
        # far below the overflow bound: from 1e15 theta0 == g_V, at 1e40 the
        # vote's coefficient is 0/0, and from 1e9 the rank test reads the
        # corners as collinear; all are refused without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = re.escape(f"X={x!r} is too large") + f".*{reason}"
            with pytest.raises(ValueError, match=match):
                sim.build_theorem1_instance(x, 50)

    def test_strategic_vote_achievable_for_large_v(self):
        inst = sim.build_theorem1_instance(20.0, 1000)
        assert achievable_contains(inst.honest_profile, inst.strategic_vote)

    def test_gain_ratio_approaches_limit(self):
        rep = sim.theorem1_experiment(20.0, [400, 1600])
        limit = (1.0 + 400.0) / 80.0
        gaps = [abs(r["ratio"] - limit) for r in rep.rows]
        assert gaps[1] < gaps[0]
        assert rep.rows[1]["ratio"] == pytest.approx(limit, abs=0.1)

    def test_gain_monotone_in_x(self):
        gains = []
        for x in (8.0, 12.0, 16.0, 20.0):
            rep = sim.theorem1_experiment(x, [500])
            gains.append(rep.rows[0]["gain_alpha"])
        assert all(b >= a for a, b in zip(gains, gains[1:]))

    def test_truthful_median_certified(self):
        rep = sim.theorem1_experiment(12.0, [300])
        row = rep.rows[0]
        assert row["truthful_median_err"] <= row["truthful_median_bound"]

    def test_row_reports_the_manipulated_median_certificate(self):
        inst = sim.build_theorem1_instance(20.0, 200)
        manipulated = st._median_with_vote(inst.honest_profile.voters,
                                           inst.strategic_vote, None)
        row = sim._theorem1_task(inst)
        assert row["strategic_median_bound"] == manipulated.additive_bound < 1e-6
        assert row["strategic_dist"] == float(np.linalg.norm(manipulated.point - inst.theta0))


class TestAsymptoticExperiment:
    def test_isotropic_skew_and_gains_shrink(self):
        d = sim.PreferenceDistribution("isotropic-gaussian", 5)
        cfg = sim.ExperimentConfig(d, V_grid=(200, 800), trials=3, seed=5)
        rep = sim.asymptotic_experiment(cfg, parallel=2)
        small = rep.summary["200"]
        large = rep.summary["800"]
        assert large["mean_skew_closed"] < small["mean_skew_closed"] + 0.05
        assert large["max_gain"] < small["max_gain"]
        assert large["max_gain"] <= 0.1

    def test_rows_replayable_and_bounded(self):
        d = sim.PreferenceDistribution("diagonal-gaussian", 5, sigmas=(1, 1, 1, 1, 4))
        cfg = sim.ExperimentConfig(d, V_grid=(300,), trials=3, seed=21, epsilon=0.1)
        rep = sim.asymptotic_experiment(cfg)
        for row in rep.rows:
            assert row["error"] is None
            assert abs(row["skew_numeric"] - row["skew_closed"]) <= 1e-7
            # replaying the recorded seed recovers the trial's profile and
            # hence its Hessian skewness
            prof = sim.sample_profile(d, row["V"], row["seed"])
            h = check_spd(sv.loss_hessian(prof, geometric_median(prof).point))
            assert skewness(h).value == pytest.approx(row["skew_closed"], abs=1e-9)
        assert rep.summary["300"]["fraction_within_bound"] == 1.0

    def test_dim_guard(self):
        d = sim.PreferenceDistribution("isotropic-gaussian", 3)
        cfg = sim.ExperimentConfig(d, V_grid=(100,), trials=1, seed=0)
        with pytest.raises(ValueError):
            sim.asymptotic_experiment(cfg)

    def test_skew_numeric_is_the_objective_at_the_closed_form_maximizer(self, monkeypatch):
        # criterion-6 trials 0-3; the gains are not under test, so skip their search
        def oracle(*args, **kwargs):
            raise AssertionError("the sphere oracle ran inside a trial")

        monkeypatch.setattr(st, "numeric_skewness", oracle)
        monkeypatch.setattr(sim, "numeric_skewness", oracle, raising=False)
        monkeypatch.setattr(sim, "best_response", lambda *a, **k: SimpleNamespace(
            gain_alpha=0.0, truthful_dist=0.0, strategic_dist=0.0))
        d = sim.PreferenceDistribution("diagonal-gaussian", 5, sigmas=(1, 1, 1, 1, 4))
        for trial in range(4):
            seed = sim._derived_seed(2026, 1, 1000, trial)
            measured = sim._stress_gains(sim.sample_profile(d, 1000, seed), np.eye(5), seed)
            assert measured["skew_numeric"] == pytest.approx(measured["skew_closed"],
                                                             rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kwargs,error", [
        ({"s": np.diag([1.0, 1.0, -1.0, 1.0, 1.0])}, NotSPD),
        ({"s": np.eye(2)}, DimensionMismatch),
        ({"median_skew": np.eye(2)}, DimensionMismatch),
        ({"median_skew": np.ones((5, 5))}, NotSPD),
    ], ids=["non-spd-preference", "2x2-preference", "2x2-median-skew",
            "singular-median-skew"])
    def test_matrices_checked_before_any_trial(self, monkeypatch, kwargs, error):
        calls = []
        monkeypatch.setattr(sim, "_run_tasks", lambda *a: calls.append(a))
        d = sim.PreferenceDistribution("diagonal-gaussian", 5, sigmas=(1, 1, 1, 1, 4))
        cfg = sim.ExperimentConfig(d, V_grid=(200,), trials=1, seed=0)
        with pytest.raises(error):
            sim.asymptotic_experiment(cfg, **kwargs)
        assert calls == []

    @pytest.mark.parametrize("kwargs,error,message", [
        ({"s": np.full((5, 5), np.inf)}, NotSPD, "preference matrix has non-finite entries"),
        ({"median_skew": np.ones((5, 4))}, DimensionMismatch,
         "expected a square median_skew, got shape (5, 4)"),
    ], ids=["infinite-preference", "5x4-median-skew"])
    def test_matrix_errors_name_the_matrix(self, kwargs, error, message):
        d = sim.PreferenceDistribution("diagonal-gaussian", 5, sigmas=(1, 1, 1, 1, 4))
        cfg = sim.ExperimentConfig(d, V_grid=(200,), trials=1, seed=0)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sim.asymptotic_experiment(cfg, **kwargs)

    def test_parallel_matches_serial(self):
        d = sim.PreferenceDistribution("diagonal-gaussian", 5, sigmas=(1, 1, 1, 1, 2))
        cfg = sim.ExperimentConfig(d, V_grid=(200,), trials=2, seed=3)
        a = sim.asymptotic_experiment(cfg, parallel=1)
        b = sim.asymptotic_experiment(cfg, parallel=2)
        assert a.rows == b.rows

    def test_skewed_preferences_respect_their_bound(self):
        # a preference norm that privileges a tight dimension inflates both
        # the bound matrix skewness and the realized gains, in step
        dist = sim.PreferenceDistribution("diagonal-gaussian", 5,
                                          sigmas=(1, 1, 1, 1, 4))
        cfg = sim.ExperimentConfig(dist, V_grid=(500,), trials=4, seed=31,
                                   epsilon=0.1)
        pref = np.diag([2.0, 1.0, 1.0, 1.0, 0.5])
        plain = sim.asymptotic_experiment(cfg, parallel=2)
        skewed = sim.asymptotic_experiment(cfg, s=pref, parallel=2)
        assert skewed.summary["500"]["fraction_within_bound"] == 1.0
        assert (
            skewed.summary["500"]["mean_skew_closed"]
            > plain.summary["500"]["mean_skew_closed"]
        )
        assert skewed.summary["500"]["max_gain"] > plain.summary["500"]["max_gain"]

    def test_median_skew_reduces_gains(self):
        dist = sim.PreferenceDistribution("diagonal-gaussian", 5,
                                          sigmas=(1, 1, 1, 1, 4))
        sigma = sim.fit_isotropizing_skew(dist, samples=1500, seed=2)
        cfg = sim.ExperimentConfig(dist, V_grid=(500,), trials=4, seed=13)
        plain = sim.asymptotic_experiment(cfg, parallel=2)
        skewed = sim.asymptotic_experiment(cfg, median_skew=sigma, parallel=2)
        gains_plain = [r["max_gain"] for r in plain.rows]
        gains_skewed = [r["max_gain"] for r in skewed.rows]
        assert np.median(gains_skewed) < np.median(gains_plain)
        assert max(gains_skewed) < max(gains_plain)
        # the tuned skew drives the matched voter's gain toward 0
        assert np.median(gains_skewed) <= 0.04 * np.median(gains_plain)


    def test_median_skew_maps_the_voters(self):
        # A median-skew row is the plain-median sweep of the mapped voters
        # Sk x under the mapped preference norm.
        dist = sim.PreferenceDistribution("isotropic-gaussian", 5)
        sk = np.diag([1.0, 1.0, 1.0, 1.0, 3.0])
        cfg = sim.ExperimentConfig(dist, V_grid=(200,), trials=1, seed=7)
        row = sim.asymptotic_experiment(cfg, median_skew=sk).rows[0]
        mapped = uniform_profile(sim.sample_profile(dist, 200, row["seed"]).voters @ sk.T)
        pref = np.ascontiguousarray(spd_sqrt(spd_inv(sk) @ spd_inv(sk)))
        measured = sim._stress_gains(mapped, pref, row["seed"])
        assert {key: row[key] for key in measured} == measured
        assert row["max_gain"] == max(measured[f"gain_gamma_{g}"] for g in sim.STRESS_GAMMAS)

    def test_failed_trial_row_has_the_completed_row_keys(self):
        # two voters in d=5 fail the trial; 200 complete it
        dist = sim.PreferenceDistribution("isotropic-gaussian", 5)
        cfg = sim.ExperimentConfig(dist, V_grid=(2, 200), trials=1, seed=0)
        failed, completed = sim.asymptotic_experiment(cfg).rows
        assert (failed["error"] is not None, completed["error"]) == (True, None)
        assert list(failed) == list(completed)
        assert all(failed[key] is None for key in failed
                   if key not in ("V", "trial", "seed", "error"))
        assert all(completed[f"{name}_gamma_{g}"] > 0.0 for g in sim.STRESS_GAMMAS
                   for name in ("truthful_dist", "strategic_dist"))


def _blas_threads(_task=None):
    """(pid, thread count of each loaded OpenBLAS) of the calling process."""
    return os.getpid(), [get() for get, _ in _openblas_thread_controls()]


def _fresh_python(code, **env):
    """Run code in a new interpreter that imports this medianforge; env
    entries set (a string) or remove (None) variables. Returns stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))
    full = {k: v for k, v in os.environ.items() if k not in env}
    full.update({k: v for k, v in env.items() if v is not None})
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=full,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy_optimize_or_linalg():
    # nor does the skew fit, whose every step is a median solve
    out = _fresh_python("""
        import sys
        import medianforge, medianforge.cli
        from medianforge import simulate as sim
        loaded = lambda: sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules)
        print(loaded())
        dist = sim.PreferenceDistribution("diagonal-gaussian", 5, sigmas=(1, 1, 1, 1, 4))
        sim.fit_isotropizing_skew(dist, samples=500)
        print(loaded())
    """)
    assert out == "[]\n[]\n"


class TestOpenBLASPin:
    @pytest.mark.parametrize("env", [None, "3"], ids=["unset", "preset-3"])
    @pytest.mark.parametrize("parallel", [1, 2])
    def test_library_first_loaded_in_the_block_starts_at_one_thread(self, parallel, env):
        if not _openblas_thread_controls():
            pytest.skip("no OpenBLAS loaded")
        # scipy's OpenBLAS is mapped only once the task imports scipy.optimize:
        # in the pool workers at parallel=2, in this interpreter at parallel=1
        out = _fresh_python(f"""
            import os, sys
            from medianforge import simulate
            from medianforge.linalg import _openblas_thread_controls
            assert "scipy.linalg" not in sys.modules

            def task(_):
                from scipy import optimize
                return [get() for get, _ in _openblas_thread_controls()]

            if __name__ == "__main__":
                print(simulate._run_tasks(task, [0, 1], {parallel}))
                print(os.environ.get("OPENBLAS_NUM_THREADS"))
        """, OPENBLAS_NUM_THREADS=env)
        counts, after = out.splitlines()
        assert counts == "[[1, 1], [1, 1]]"
        assert after == str(env)

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_tasks_run_on_one_thread_and_the_count_is_restored(self, parallel):
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        pid, before = _blas_threads()
        # start from 2 threads so a missing restore shows on a one-core host too
        for _, set_ in controls:
            set_(2)
        try:
            rows = sim._run_tasks(_blas_threads, [0, 1], parallel)
            after = _blas_threads()[1]
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)
        assert [counts for _, counts in rows] == [[1] * len(controls)] * 2
        assert all((row_pid == pid) == (parallel == 1) for row_pid, _ in rows)
        assert after == [2] * len(controls)

    def test_convergence_rows_independent_of_worker_count(self):
        # V_ref = 2000 voters in d = 50: a size where the OpenBLAS thread
        # count changes the last bits of the reference median and Hessian
        d = sim.PreferenceDistribution("isotropic-gaussian", 50)
        cfg = sim.ExperimentConfig(d, V_grid=(100, 200), trials=1, seed=5)
        serial = sim.convergence_diagnostics(cfg, parallel=1)
        pooled = sim.convergence_diagnostics(cfg, parallel=2)
        assert serial.rows == pooled.rows


class TestConvergenceDiagnostics:
    def test_median_error_slope(self):
        d = sim.PreferenceDistribution("isotropic-gaussian", 5)
        cfg = sim.ExperimentConfig(d, V_grid=(250, 500, 1000, 2000, 4000),
                                   trials=5, seed=17)
        rep = sim.convergence_diagnostics(cfg, parallel=2)
        assert rep.summary["median_error_slope"] <= -0.4
        hess = rep.summary["hessian_errors"]
        assert all(b < a for a, b in zip(hess, hess[1:]))
        assert rep.summary["V_ref"] == 40000

    def test_one_reference_solve_per_trial(self, monkeypatch):
        calls = []
        solve = sv._solve_gm

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sim, "_solve_gm", counted)
        d = sim.PreferenceDistribution("isotropic-gaussian", 5)
        cfg = sim.ExperimentConfig(d, V_grid=(100, 200, 400), trials=3, seed=14)
        rows = sim.convergence_diagnostics(cfg).rows
        assert len(calls) == 3 * (1 + 3)
        # the rows of one task per (V, trial), each solving its own reference,
        # under the same BLAS pin as the tasks
        expected = []
        with one_blas_thread():
            for v in cfg.V_grid:
                for t in range(cfg.trials):
                    trial_seed = sim._derived_seed(14, 2, v, t)
                    ref_seed = sim._derived_seed(14, 2, 0, t)
                    at_v = solve(sim.sample_profile(d, v, trial_seed))[0]
                    at_ref = solve(sim.sample_profile(d, 4000, ref_seed))[0]
                    expected.append({
                        "V": v, "trial": t, "seed": trial_seed, "ref_seed": ref_seed,
                        "median_err": float(np.linalg.norm(at_v.z - at_ref.z)),
                        "hessian_err": float(np.max(np.abs(at_v.hessian()
                                                           - at_ref.hessian()))),
                    })
        assert rows == expected

    def test_single_voter_count_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "_run_tasks", lambda *a: calls.append(a))
        d = sim.PreferenceDistribution("isotropic-gaussian", 5)
        cfg = sim.ExperimentConfig(d, V_grid=(100,), trials=1, seed=0)
        with pytest.raises(ValueError, match="two V_grid entries"):
            sim.convergence_diagnostics(cfg)
        assert calls == []

    def test_reference_is_stable_by_symmetry(self):
        # the isotropic reference median sits near the origin
        d = sim.PreferenceDistribution("isotropic-gaussian", 5)
        prof = sim.sample_profile(d, 20000, 99)
        g = geometric_median(prof).point
        assert np.linalg.norm(g) <= 0.05


class TestByzantineExperiment:
    def test_no_strategic_no_displacement(self):
        d = sim.PreferenceDistribution("isotropic-gaussian", 3)
        rep = sim.byzantine_experiment(d, 5, 0, trials=3, seed=1)
        assert all(r["displacement"] == 0.0 for r in rep.rows)

    def test_three_one_ball(self):
        d = sim.PreferenceDistribution("uniform-ball", 2, radius=1.0)
        rep = sim.byzantine_experiment(d, 3, 1, trials=60, seed=5)
        assert rep.summary["all_within_bound"]
        for r in rep.rows:
            assert r["displacement"] <= 3.0 * r["delta"] / (2.0 * math.sqrt(2.0)) + 1e-9

    def test_rows_scale_exactly_with_the_ball(self):
        # every attack places its votes relative to the profile's scale, so a
        # ball shrunk by 2^-40 gives each row's distances shrunk by 2^-40
        unit, tiny = (sim.byzantine_experiment(
            sim.PreferenceDistribution("uniform-ball", 2, radius=r), 3, 1, trials=30,
            seed=12).rows for r in (1.0, 2.0 ** -40))
        for a, b in zip(unit, tiny):
            for key in ("delta", "bound", "displacement"):
                assert b[key] == math.ldexp(a[key], -40)
            assert b["within_bound"] == a["within_bound"]

    def test_rows_independent_of_chunked_dispatch(self):
        # 200 tasks on 2 workers go in chunks of 6
        d = sim.PreferenceDistribution("isotropic-gaussian", 3)
        serial = sim.byzantine_experiment(d, 3, 1, trials=200, seed=9, parallel=1)
        pooled = sim.byzantine_experiment(d, 3, 1, trials=200, seed=9, parallel=2)
        assert pooled.rows == serial.rows
        assert [r["trial"] for r in pooled.rows] == list(range(200))

    def test_outlier_solves_end_within_20_iterations(self, monkeypatch):
        # (V_T, V_S) = (3, 1): one far strategic vote, so Weiszfeld crawls;
        # before the crawl rule the slowest of these solves took 748
        # iterations. A solve that ends on a voter point ends on its bits.
        ends = []
        solve = sv._solve_gm_raw

        def recorded(*args):
            p, stats = solve(*args)
            ends.append((p, stats["iterations"]))
            return p, stats

        monkeypatch.setattr(sv, "_solve_gm_raw", recorded)
        d = sim.PreferenceDistribution("isotropic-gaussian", 3)
        sim.byzantine_experiment(d, 3, 1, trials=200, seed=4242)
        assert len(ends) == 400
        assert max(iterations for _, iterations in ends) <= 20
        on_voters = [p for p, _ in ends if p.at_voter]
        assert on_voters
        for p in on_voters:
            np.testing.assert_array_equal(p.z, p.voters[p.nearest])

    def test_majority_rejected(self):
        d = sim.PreferenceDistribution("isotropic-gaussian", 3)
        with pytest.raises(MajorityAttack):
            sim.byzantine_experiment(d, 3, 3, trials=1, seed=0)

    def test_displacement_grows_toward_majority(self):
        d = sim.PreferenceDistribution("isotropic-gaussian", 2)
        maxes = []
        for v_s in (1, 5, 9):
            rep = sim.byzantine_experiment(d, 10, v_s, trials=30, seed=2)
            assert rep.summary["all_within_bound"]
            maxes.append(rep.summary["max_displacement"])
        assert maxes[0] < maxes[1] < maxes[2]
        # growth tracks the (1 - rho^2)^(-1/2) ball inflation qualitatively
        inflation = [1.0 / math.sqrt(1.0 - (v_s / 10.0) ** 2) for v_s in (1, 5, 9)]
        assert maxes[2] / maxes[0] > 0.5 * inflation[2] / inflation[0]

    def test_one_truthful_solve_per_trial(self, monkeypatch):
        calls = []
        solve = sv._solve_gm

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        # every median of a profile, certified or not, goes through _solve_gm
        for module in (sim, sv, st):
            monkeypatch.setattr(module, "_solve_gm", counted)
        dist = sim.PreferenceDistribution("isotropic-gaussian", 3)
        row = sim._byzantine_task((dist, 11, 5, 0, 7))
        # the truthful median and the median of the combined profile
        assert len(calls) == 2
        truthful = sim.sample_profile(dist, 11, sim._derived_seed(row["seed"], 0))
        assert row["bound"] == st.byzantine_bound(truthful, 5)

    @pytest.mark.parametrize("v_t,v_s", [(3, 1), (11, 5), (11, 0), (101, 49)])
    def test_row_reads_the_ball_of_byzantine_bound(self, v_t, v_s):
        dist = sim.PreferenceDistribution("isotropic-gaussian", 3)
        for trial in range(3):  # each attack kind
            row = sim._byzantine_task((dist, v_t, v_s, trial, 7))
            truthful = sim.sample_profile(dist, v_t, sim._derived_seed(row["seed"], 0))
            # with no strategic voter the radius is delta itself
            assert row["delta"] == st.byzantine_bound(truthful, 0)
            assert row["bound"] == st.byzantine_bound(truthful, v_s)


def test_fit_isotropizing_skew_reduces_hessian_skewness():
    dist = sim.PreferenceDistribution("diagonal-gaussian", 5, sigmas=(1, 1, 1, 1, 4))
    sigma = sim.fit_isotropizing_skew(dist, samples=1500, seed=4)
    prof = sim.sample_profile(dist, 4000, 31)
    plain_h = np.linalg.eigvalsh(
        np.cov(prof.voters.T)
    )  # sanity: the raw spread really is anisotropic
    assert plain_h[-1] / plain_h[0] > 4.0
    from medianforge.solvers import loss_hessian

    g = geometric_median(prof).point
    h = loss_hessian(prof, g)
    scaled = uniform_profile(prof.voters @ sigma.T)
    g_s = geometric_median(scaled).point
    h_s = sigma @ loss_hessian(scaled, g_s) @ sigma
    assert skewness(h_s).value < 0.25 * skewness(h).value


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_isotropizing_skew_makes_the_pilot_hessian_isotropic(seed):
    dist = sim.PreferenceDistribution("diagonal-gaussian", 8,
                                      sigmas=(1, 2, 3, 4, 5, 6, 7, 16))
    sigma = sim.fit_isotropizing_skew(dist, seed=seed)
    assert np.exp(np.log(np.diag(sigma)).mean()) == pytest.approx(1.0, abs=1e-12)
    pilot = uniform_profile(sim.sample_profile(dist, 2000, seed).voters @ sigma)
    h = sv.loss_hessian(pilot, geometric_median(pilot).point)
    assert skewness(sigma @ h @ sigma).value <= 1e-3


class TestConsumersReadTheSolve:
    """Callers that read no certificate take the median, and the curvature
    there, from the final pass of one solve."""

    def test_no_certified_solve_outside_the_vote_median(self, monkeypatch):
        certified = sv.geometric_median

        def vote_median_only(*args, **kwargs):
            # best_response reports the certificate of each candidate's median
            if sys._getframe(1).f_code.co_name != "_median_with_vote":
                raise AssertionError("geometric_median called for an uncertified median")
            return certified(*args, **kwargs)

        monkeypatch.setattr(st, "geometric_median", vote_median_only)
        iso = sim.PreferenceDistribution("isotropic-gaussian", 3)
        prof = sim.sample_profile(iso, 400, 5)
        sim._convergence_task((iso, (100,), 1000, 0, 14))
        sim._theorem1_task(sim.build_theorem1_instance(20, 200))
        sim._stress_gains(sim.sample_profile(iso, 30, 2), np.eye(3), 2)
        sim.fit_isotropizing_skew(iso, samples=100, seed=1)
        st.byzantine_bound(prof, 10)
        st.condition_checker(prof, 0.05)
