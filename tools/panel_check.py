"""Rerun the stress-sweep panel and compare every trial with its recorded floor.

Usage: python tools/panel_check.py [SEED ...]

Runs each panel entry of perfbench/panel.json (all of them, or those whose
experiment seed is given) as perfbench/record_panel.py records it: one
asymptotic_experiment call of twelve trials at the entry's seed. Writes
nothing. Prints one line per trial: seed, trial, max_gain, floor, the relative
difference (max_gain - floor) / |floor|, and `equal`, `above` or `below`.
Exits 1 if a trial failed or a gain fell below its floor by more than the
benchmark's relative slack, else 0.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
sys.dont_write_bytecode = True  # leaves perfbench/ as it found it

import sweep_config as sc  # noqa: E402
from medianforge import simulate as sim  # noqa: E402
from workloads import GAIN_FLOOR_RTOL  # noqa: E402


def panel_entries(argv, usage):
    """The panel entries whose seeds argv[1:] names, all of them if none."""
    with open(os.path.join(PERFBENCH, "panel.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    known = [e["seed"] for e in entries]
    try:
        seeds = [int(a) for a in argv[1:]] or known
    except ValueError:
        sys.exit(usage)
    if set(seeds) - set(known):
        sys.exit(f"not a panel seed: {sorted(set(seeds) - set(known))}; panel: {known}")
    return [e for e in entries if e["seed"] in seeds]


def rerun(entries):
    """Yields (seed, row, floor) for each trial of each entry, in trial order."""
    for entry in entries:
        config = sc.experiment_config(sim, entry["seed"], sc.TRIALS_PER_ENTRY)
        rows = sorted(sim.asymptotic_experiment(config, parallel=sc.PARALLEL).rows,
                      key=lambda r: r["trial"])
        for row, floor in zip(rows, entry["max_gain"]):
            yield entry["seed"], row, floor


def main(argv):
    entries = panel_entries(argv, __doc__.split("\n\n")[1])
    bad = 0
    print("seed trial max_gain floor rel_diff verdict")
    for seed, row, floor in rerun(entries):
        if row["error"]:
            bad += 1
            print(f"{seed} {row['trial']} error: {row['error']}", flush=True)
            continue
        gain = row["max_gain"]
        verdict = "equal" if gain == floor else "above" if gain > floor else "below"
        bad += gain < floor - GAIN_FLOOR_RTOL * abs(floor)
        print(f"{seed} {row['trial']} {gain!r} {floor!r} "
              f"{(gain - floor) / abs(floor):.3e} {verdict}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
