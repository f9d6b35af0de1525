"""Record the stress-sweep panel: the max_gain floor of every panel trial.

Run from the repository root:

    python3 perfbench/record_panel.py

Each panel entry is one asymptotic_experiment call of twelve trials at its own
experiment seed. The recorded max_gain values are the floors the benchmark
holds every later version of the program to: a better search may only raise
them.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sweep_config as sc  # noqa: E402
from medianforge import simulate as sim  # noqa: E402


def main():
    entries = []
    for j in range(sc.PANEL_ENTRIES):
        seed = sc.BASE_SEED + j
        config = sc.experiment_config(sim, seed, sc.TRIALS_PER_ENTRY)
        rows = sorted(sim.asymptotic_experiment(config, parallel=sc.PARALLEL).rows,
                      key=lambda r: r["trial"])
        if any(r["error"] for r in rows):
            raise SystemExit(f"panel entry {seed} has a failed trial: {rows}")
        entries.append({"seed": seed, "max_gain": [r["max_gain"] for r in rows]})
        print(f"seed {seed}: {entries[-1]['max_gain']}", file=sys.stderr, flush=True)
    doc = {
        "distribution": {"kind": "diagonal-gaussian", "sigmas": list(sc.SIGMAS)},
        "V": sc.VOTERS,
        "entries": entries,
    }
    with open(os.path.join(HERE, "panel.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
