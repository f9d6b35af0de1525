"""Measure how far rounding-only solver changes move the stress-sweep panel gains.

Usage: python tools/gain_spread.py [SEED ...]

Reruns each panel entry of perfbench/panel.json (all of them, or those whose
experiment seed is given) as tools/panel_check.py does, once under each of two
variants of the solver that change only how a pass rounds. Each is patched
into this process before the worker pool forks:

- step-c: a smooth pass's Weiszfeld step reads the stored c = w / r,
  (c @ voters) / c.sum(), in place of its spelled-out np.linalg.norm norms;
- hessian-t: `_Pass.hessian` forms (diffs * coef)^T diffs in place of
  diffs^T (diffs * coef).

Prints one line per trial: variant, seed, trial, max_gain, floor and the
relative move (max_gain - floor) / |floor|. Then one line per variant: the
move of largest size, and how many trials fall below their floor by more than
the benchmark's relative slack. Writes nothing. Exits 1 if a trial failed,
else 0.
"""

import sys

sys.dont_write_bytecode = True  # leaves tools/ and perfbench/ as it found them

import numpy as np  # noqa: E402

import panel_check  # noqa: E402
from medianforge import solvers as sv  # noqa: E402

step = sv._Pass.step


def step_c(self):
    if self.rest is None:
        return (self.c @ self.voters) / self.c.sum()
    return step(self)


def hessian_t(self):
    self.require_smooth()
    h = np.eye(self.z.size) * self.c.sum()
    h -= (self.diffs * (self.c / self.dists**2)[:, None]).T @ self.diffs
    return h


VARIANTS = {"step-c": ("step", step_c), "hessian-t": ("hessian", hessian_t)}


def main(argv):
    entries = panel_check.panel_entries(argv, __doc__.split("\n\n")[1])
    failed, summary = 0, []
    print("variant seed trial max_gain floor rel_move")
    for name, (attr, variant) in VARIANTS.items():
        original = getattr(sv._Pass, attr)
        setattr(sv._Pass, attr, variant)
        moves = []
        try:
            for seed, row, floor in panel_check.rerun(entries):
                if row["error"]:
                    failed += 1
                    print(f"{name} {seed} {row['trial']} error: {row['error']}", flush=True)
                    continue
                moves.append((row["max_gain"] - floor) / abs(floor))
                print(f"{name} {seed} {row['trial']} {row['max_gain']!r} {floor!r} "
                      f"{moves[-1]:.3e}", flush=True)
        finally:
            setattr(sv._Pass, attr, original)
        largest = max(moves, key=abs, default=0.0)
        below = sum(m < -panel_check.GAIN_FLOOR_RTOL for m in moves)
        summary.append(f"{name}: largest move {largest:.3e}, {below} of {len(moves)} "
                       f"trials below the {panel_check.GAIN_FLOOR_RTOL:.0e} slack")
    print("\n".join(summary))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
