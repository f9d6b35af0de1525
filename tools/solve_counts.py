"""Count the distance passes of one criterion-6 trial or of byzantine trials.

Usage: python tools/solve_counts.py SEED TRIAL
       python tools/solve_counts.py byzantine V_T V_S TRIALS SEED

The first form runs criterion-6 trial TRIAL of the stress sweep at experiment
seed SEED (V=1000, d=5, sigmas (1,1,1,1,4), S=I, as tests/test_acceptance.py
runs it). The second runs TRIALS byzantine trials of shape (V_T, V_S) at seed
SEED on the 3-d isotropic Gaussian, as the attack-cli benchmark workload runs
them. Both run serially in this process, under one OpenBLAS thread, with the
solver's functions wrapped to count. Changes nothing in src/. Prints:

- passes: every distance pass (`solvers._Pass`) the trial builds;
- newton_calls: calls of `solvers._newton`;
- newton_trials_evaluated: passes built inside those calls;
- newton_trials_proved: halvings skipped because `_Pass.proved_worse` proved
  them rejected (0 on a tree without it);
- snap_tests: passes built by the solve loop on exactly a voter's point,
  after the solve's first pass;
- solves: calls of the solve loop `solvers._solve_gm_raw`;
- voter_ends: solves whose final pass lies exactly on a voter's point;
- max_iterations: the most iterations one solve took;
- max_gain of the trial, or max_displacement of the byzantine trials, so two
  trees can also be compared on the result.

The counts depend only on the code and the inputs, not on timing.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from medianforge import simulate as sim  # noqa: E402
from medianforge import solvers as sv  # noqa: E402
from medianforge import strategy  # noqa: E402
from medianforge.linalg import one_blas_thread  # noqa: E402


def main(argv):
    byzantine = argv[1:2] == ["byzantine"]
    try:
        args = [int(a) for a in argv[1 + byzantine:]]
    except ValueError:
        args = []
    if len(args) != (4 if byzantine else 2):
        sys.exit(__doc__.split("\n\n")[1])
    counts = dict.fromkeys(("passes", "newton_calls", "newton_trials_evaluated",
                            "newton_trials_proved", "snap_tests", "solves",
                            "voter_ends", "max_iterations"), 0)
    state = {"newton": False, "in_solve": False, "solve_start": False, "marks": None}

    init, newton, solve = sv._Pass.__init__, sv._newton, sv._solve_gm_raw

    def counted_init(self, *args):
        init(self, *args)
        counts["passes"] += 1
        if state["newton"]:
            counts["newton_trials_evaluated"] += 1
        elif state["solve_start"]:
            state["solve_start"] = False
        elif state["in_solve"] and self.dists[self.nearest] == 0.0:
            counts["snap_tests"] += 1

    def counted_newton(p, at):
        counts["newton_calls"] += 1
        before = counts["newton_trials_evaluated"]
        state["newton"], state["marks"] = True, None
        try:
            return newton(p, at)
        finally:
            state["newton"] = False
            evaluated = counts["newton_trials_evaluated"] - before
            # Walk the halvings in the order the loop visits them: a marked
            # one is skipped, an unmarked one is evaluated, until the last
            # evaluation this call made.
            for k, marked in enumerate(state["marks"] if state["marks"] is not None else ()):
                if evaluated == 0:
                    break
                if marked and k > 0:
                    counts["newton_trials_proved"] += 1
                else:
                    evaluated -= 1

    def counted_solve(*args):
        counts["solves"] += 1
        state["in_solve"], state["solve_start"] = True, True
        try:
            p, iterations = solve(*args)
        finally:
            state["in_solve"] = False
        counts["voter_ends"] += bool(p.dists[p.nearest] == 0.0)
        counts["max_iterations"] = max(counts["max_iterations"], iterations)
        return p, iterations

    sv._Pass.__init__, sv._newton = counted_init, counted_newton
    sv._solve_gm_raw = strategy._solve_gm_raw = counted_solve
    if hasattr(sv._Pass, "proved_worse"):
        proved = sv._Pass.proved_worse

        def counted_proved(self, zs):
            state["marks"] = proved(self, zs)
            return state["marks"]

        sv._Pass.proved_worse = counted_proved

    with one_blas_thread():
        if byzantine:
            dist = sim.PreferenceDistribution("isotropic-gaussian", 3)
            result = ("max_displacement",
                      sim.byzantine_experiment(dist, *args).summary["max_displacement"])
        else:
            seed, trial = args
            dist = sim.PreferenceDistribution("diagonal-gaussian", 5, sigmas=(1, 1, 1, 1, 4))
            row = sim._asymptotic_task((dist, 1000, trial, seed, np.eye(5), None))
            if row["error"]:
                sys.exit(f"trial failed: {row['error']}")
            result = ("max_gain", row["max_gain"])
    for key, value in counts.items():
        print(f"{key} {value}")
    print(f"{result[0]} {result[1]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
