"""Count the distance passes of one criterion-6 trial or of byzantine trials.

Usage: python tools/solve_counts.py SEED TRIAL
       python tools/solve_counts.py byzantine V_T V_S TRIALS SEED

The first form runs criterion-6 trial TRIAL of the stress sweep at experiment
seed SEED (V=1000, d=5, sigmas (1,1,1,1,4), S=I, as tests/test_acceptance.py
runs it). The second runs TRIALS byzantine trials of shape (V_T, V_S) at seed
SEED on the 3-d isotropic Gaussian, as the attack-cli benchmark workload runs
them. Both run serially in this process, under one OpenBLAS thread. Every
solve counts its own work (`solvers._solve_gm_raw` returns its stats); the
script wraps that solve loop to sum them, and `_Pass.__init__` to count every
pass. Changes nothing in src/. Prints:

- passes: every distance pass (`solvers._Pass`) the run builds, in a solve
  or not (the projection path builds many outside any solve);
- solve_passes, newton_calls, newton_trials_evaluated (passes built by Newton
  steps), newton_trials_proved (halvings that `_Pass.proved_worse` proved
  rejected without a pass) and snap_tests: the solves' stats, summed;
- solves: calls of the solve loop;
- voter_ends: solves whose final pass lies exactly on a voter's point;
- max_iterations: the most iterations one solve took;
- max_gain of the trial, or max_displacement of the byzantine trials, so two
  trees can also be compared on the result.

The counts depend only on the code and the inputs, not on timing.
"""

import os
import sys
from collections import Counter

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from medianforge import simulate as sim  # noqa: E402
from medianforge import solvers as sv  # noqa: E402
from medianforge import strategy  # noqa: E402
from medianforge.linalg import one_blas_thread  # noqa: E402

SUMMED = ("newton_calls", "newton_trials_evaluated", "newton_trials_proved", "snap_tests",
          "solves", "voter_ends", "max_iterations")


def main(argv):
    byzantine = argv[1:2] == ["byzantine"]
    try:
        args = [int(a) for a in argv[1 + byzantine:]]
    except ValueError:
        args = []
    if len(args) != (4 if byzantine else 2):
        sys.exit(__doc__.split("\n\n")[1])
    totals = Counter()  # the solves' stats summed, and what the wrappers add
    init, solve = sv._Pass.__init__, sv._solve_gm_raw

    def counted_init(self, *args):
        init(self, *args)
        totals["all_passes"] += 1

    def counted_solve(*args):
        totals["solves"] += 1
        p, stats = solve(*args)
        totals.update(stats)
        totals["voter_ends"] += bool(p.dists[p.nearest] == 0.0)
        totals["max_iterations"] = max(totals["max_iterations"], stats["iterations"])
        return p, stats

    sv._Pass.__init__ = counted_init
    sv._solve_gm_raw = strategy._solve_gm_raw = counted_solve
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
    print(f"passes {totals['all_passes']}")
    print(f"solve_passes {totals['passes']}")
    for key in SUMMED:
        print(f"{key} {totals[key]}")
    print(f"{result[0]} {result[1]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
