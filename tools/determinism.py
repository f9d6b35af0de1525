"""Write every --deterministic report and CSV of a fixed command set.

Usage: python tools/determinism.py [--record] OUTDIR

Runs the medianforge CLI from the src/ directory of the checkout that holds
this script, once per command of a fixed set, each in a fresh interpreter
with fixed inputs and seeds, two commands at a time on a machine with two
or more cores. OUTDIR receives the generated inputs and every
report and CSV. The commands run inside OUTDIR on relative paths, so no
report echoes where it was written, and two checkouts agree exactly when

    python tools/determinism.py /tmp/a       # in one checkout
    python tools/determinism.py /tmp/b       # in the other
    diff -r /tmp/a /tmp/b

prints nothing. With --record, the script also rewrites
tests/determinism.sha256: the numpy, scipy and OpenBLAS versions, then one
SHA-256 digest per file of OUTDIR, which tests/test_determinism.py compares
against a fresh run.

The set: aggregate gm (uniform, weighted, the same weights times
2^1020, whose float sum overflows, triangle, the same
triangle shrunk to 1e-20, whose thresholds follow the profile's scale, a collinear
profile of affine rank 1, so the report says degenerate_dimension true, and a
profile with tied first coordinates, which the lexsort path orders), aggregate
skewed-gm (25x3 profile, triangle), aggregate cw (uniform, and the eye(3)
simplex, whose cw median lies outside the hull), aggregate avg (weighted),
skewness --numeric-check, best-response (--preset thm1, a profile with an
inline theta0, a preference matrix and a seed, and the same run with profile
and theta0 scaled by 2^-64, where the boundary bracket follows the profile's
scale), and simulate byzantine (three configs: one at --parallel 2, and one
shaped like the attack-cli benchmark's (3, 1), whose far outlier makes
Weiszfeld crawl), theorem1, asymptotic (plain, and with a preference matrix
plus median_skew) and convergence (two configs; the second, three V values by
three trials, runs at --parallel 2, where each worker task returns the rows
of one trial, so its bytes also pin how those rows are put back in order).

It also runs a fixed set of commands that must fail, and writes
errors/NAME.txt with the exit code and stderr of each, so the same diff shows
every changed message: weights files that are header-only, hold a negative
weight, a weight lost to normalizing, two columns, or too few rows; a non-SPD
--pref-matrix, --skew-matrix and skewness --matrix; a 3x3 --skew-matrix on a
2-d profile, a 2x2 --pref-matrix on a 3-d one and a 2x3 skewness --matrix;
a non-finite --theta0, and an inline and a file --theta0 of 3 entries on a
2-d profile; a profile CSV with a cell of 131,073 characters, over the csv
module's field limit, and one with an inf cell; an all-zero skewness
--matrix; best-response with --input but no --theta0, and --preset thm1
with --X but no --V;
best-response on the collinear profile; best-response --restarts 0;
--preset thm1 --X 1e40; and simulate configs with "trials": 0, with V_S = V_T,
with a 2x2 asymptotic preference_matrix, with a uniform-ball "radius": true,
with a descending theorem1 V_grid, with a byzantine "seed": 1.5, one
nested 1,100 lists deep, past the JSON decoder's recursion limit, the
skewed asymptotic config with median_skew misspelled "median_skw", a
byzantine isotropic-gaussian distribution with a "radius", and a convergence
config with an "epsilon", which only the asymptotic sweep reads. The
script exits 1 if a run that must succeed fails, or a run that must fail
exits 0, prints a traceback or leaves behind the --output it names last.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RECORD = os.path.join(ROOT, "tests", "determinism.sha256")

# The profile run's theta0 = (0.3, 0.2, 0.1), scaled exactly like its voters.
TINY_THETA0 = ",".join(repr(math.ldexp(x, -64)) for x in (0.3, 0.2, 0.1))

DIAG_GAUSSIAN = {"kind": "diagonal-gaussian", "dim": 5, "sigmas": [1, 1, 1, 1, 4]}

SIMULATE = {
    "byzantine_isotropic": ({"experiment": "byzantine", "seed": 11, "V_T": 5, "V_S": 2,
                             "trials": 8,
                             "distribution": {"kind": "isotropic-gaussian", "dim": 3}}, 2),
    "byzantine_ball": ({"experiment": "byzantine", "seed": 12, "V_T": 3, "V_S": 1,
                        "trials": 30,
                        "distribution": {"kind": "uniform-ball", "dim": 2, "radius": 1.0}}, 1),
    "byzantine_outlier": ({"experiment": "byzantine", "seed": 4242, "V_T": 3, "V_S": 1,
                           "trials": 60,
                           "distribution": {"kind": "isotropic-gaussian", "dim": 3}}, 1),
    "theorem1": ({"experiment": "theorem1", "X": 20, "V_grid": [200, 400]}, 1),
    "asymptotic": ({"experiment": "asymptotic", "seed": 13, "V_grid": [200], "trials": 2,
                    "distribution": DIAG_GAUSSIAN}, 1),
    "asymptotic_skewed": ({"experiment": "asymptotic", "seed": 13, "V_grid": [200],
                           "trials": 2, "distribution": DIAG_GAUSSIAN,
                           "preference_matrix": np.diag([2, 1, 1, 1, 0.5]).tolist(),
                           "median_skew": np.diag([1, 1, 1, 1, 0.5]).tolist()}, 1),
    "convergence": ({"experiment": "convergence", "seed": 14, "V_grid": [100, 200],
                     "trials": 2, "distribution": {"kind": "isotropic-gaussian", "dim": 5}}, 1),
    "convergence_pooled": ({"experiment": "convergence", "seed": 14,
                            "V_grid": [100, 200, 400], "trials": 3,
                            "distribution": {"kind": "isotropic-gaussian", "dim": 5}}, 2),
}


TRIANGLE_GM = ["aggregate", "--input", "inputs/triangle.csv", "--method", "gm"]
ERRORS = {
    "weights_header_only": [*TRIANGLE_GM, "--weights", "inputs/bad_weights_header.csv"],
    "weights_negative": [*TRIANGLE_GM, "--weights", "inputs/bad_weights_negative.csv"],
    "weights_underflow": [*TRIANGLE_GM, "--weights", "inputs/bad_weights_underflow.csv"],
    "weights_two_columns": [*TRIANGLE_GM, "--weights", "inputs/bad_weights_two_columns.csv"],
    "weights_too_few": [*TRIANGLE_GM, "--weights", "inputs/bad_weights_too_few.csv"],
    "pref_matrix_not_spd": ["best-response", "--input", "inputs/profile.csv", "--theta0",
                            "0.3,0.2,0.1", "--pref-matrix", "inputs/not_spd3.csv"],
    "skew_matrix_not_spd": ["aggregate", "--input", "inputs/triangle.csv", "--method",
                            "skewed-gm", "--skew-matrix", "inputs/not_spd2.csv"],
    "skewness_not_spd": ["skewness", "--matrix", "inputs/not_spd3.csv"],
    "skew_matrix_wrong_size": ["aggregate", "--input", "inputs/triangle.csv", "--method",
                               "skewed-gm", "--skew-matrix", "inputs/skew3.csv"],
    "pref_matrix_wrong_size": ["best-response", "--input", "inputs/profile.csv", "--theta0",
                               "0.3,0.2,0.1", "--pref-matrix", "inputs/skew2.csv"],
    "skewness_not_square": ["skewness", "--matrix", "inputs/matrix_2x3.csv"],
    "theta0_nan": ["best-response", "--input", "inputs/triangle.csv", "--theta0", "nan,0"],
    "theta0_wrong_size": ["best-response", "--input", "inputs/triangle.csv", "--theta0",
                          "1,2,3"],
    "theta0_file_wrong_size": ["best-response", "--input", "inputs/triangle.csv", "--theta0",
                               "inputs/theta0_3d.csv"],
    "profile_field_too_large": ["aggregate", "--input", "inputs/field_too_large.csv",
                                "--method", "gm"],
    "profile_infinite_cell": ["aggregate", "--input", "inputs/infinite_cell.csv",
                              "--method", "gm"],
    "skewness_zero_matrix": ["skewness", "--matrix", "inputs/zero2.csv"],
    "best_response_no_theta0": ["best-response", "--input", "inputs/triangle.csv"],
    "preset_thm1_no_v": ["best-response", "--preset", "thm1", "--X", "20"],
    "best_response_collinear": ["best-response", "--input", "inputs/collinear.csv",
                                "--theta0", "1,1,1"],
    "best_response_restarts_zero": ["best-response", "--input", "inputs/triangle.csv",
                                    "--theta0", "2,2", "--restarts", "0"],
    "preset_thm1_x_1e40": ["best-response", "--preset", "thm1", "--X", "1e40", "--V", "50"],
    "simulate_no_trials": ["simulate", "--config", "inputs/byzantine_no_trials.json",
                           "--output", "simulate_byzantine_no_trials"],
    "simulate_majority": ["simulate", "--config", "inputs/byzantine_majority.json",
                          "--output", "simulate_byzantine_majority"],
    "simulate_preference_2x2": ["simulate", "--config", "inputs/asymptotic_preference_2x2.json",
                                "--output", "simulate_asymptotic_preference_2x2"],
    "simulate_radius_true": ["simulate", "--config", "inputs/byzantine_radius_true.json",
                             "--output", "simulate_byzantine_radius_true"],
    "simulate_theorem1_descending": ["simulate", "--config", "inputs/theorem1_descending.json",
                                     "--output", "simulate_theorem1_descending"],
    "simulate_seed_fraction": ["simulate", "--config", "inputs/byzantine_seed_fraction.json",
                               "--output", "simulate_byzantine_seed_fraction"],
    "simulate_nested_too_deeply": ["simulate", "--config", "inputs/nested_too_deeply.json",
                                   "--output", "simulate_nested_too_deeply"],
    "simulate_misspelled_median_skew": ["simulate", "--config",
                                        "inputs/asymptotic_median_skw.json",
                                        "--output", "simulate_asymptotic_median_skw"],
    "simulate_gaussian_radius": ["simulate", "--config",
                                 "inputs/byzantine_gaussian_radius.json",
                                 "--output", "simulate_byzantine_gaussian_radius"],
    "simulate_convergence_epsilon": ["simulate", "--config", "inputs/convergence_epsilon.json",
                                     "--output", "simulate_convergence_epsilon"],
}


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(rows):
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def write_inputs(out_dir):
    inputs = os.path.join(out_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    rng = np.random.default_rng(2026)
    profile = rng.standard_normal((40, 3))
    write_csv(os.path.join(inputs, "profile.csv"), profile)
    write_csv(os.path.join(inputs, "profile_tiny.csv"), np.ldexp(profile, -64))
    weights = rng.uniform(0.5, 2.0, size=(40, 1))
    write_csv(os.path.join(inputs, "weights.csv"), weights)
    write_csv(os.path.join(inputs, "weights_huge.csv"), np.ldexp(weights, 1020))
    write_csv(os.path.join(inputs, "profile25.csv"),
              rng.standard_normal((25, 3)) * [1.0, 2.0, 0.5])
    write_csv(os.path.join(inputs, "collinear.csv"),
              np.outer(rng.standard_normal(30), [1.0, -2.0, 0.5]) + [3.0, 1.0, -1.0])
    tied = rng.standard_normal((40, 3))
    tied[:, 0] = rng.integers(-2, 3, 40)
    write_csv(os.path.join(inputs, "tied.csv"), tied)
    write_csv(os.path.join(inputs, "triangle.csv"), [[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    write_csv(os.path.join(inputs, "triangle_tiny.csv"),
              [[0.0, 0.0], [1e-20, 0.0], [0.0, 1e-20]])
    write_csv(os.path.join(inputs, "simplex.csv"), np.eye(3))
    write_csv(os.path.join(inputs, "skew3.csv"),
              [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]])
    write_csv(os.path.join(inputs, "skew2.csv"), np.diag([1.0, 0.5]))
    write_csv(os.path.join(inputs, "not_spd3.csv"), np.diag([1.0, -1.0, 1.0]))
    write_csv(os.path.join(inputs, "not_spd2.csv"), np.diag([1.0, -1.0]))
    write_csv(os.path.join(inputs, "matrix_2x3.csv"), np.ones((2, 3)))
    write_csv(os.path.join(inputs, "theta0_3d.csv"), [[1.0, 2.0, 3.0]])
    write_csv(os.path.join(inputs, "zero2.csv"), np.zeros((2, 2)))
    with open(os.path.join(inputs, "infinite_cell.csv"), "w", encoding="utf-8") as fh:
        fh.write("1,2\n3,inf\n")
    with open(os.path.join(inputs, "bad_weights_header.csv"), "w", encoding="utf-8") as fh:
        fh.write("weight\n")
    write_csv(os.path.join(inputs, "bad_weights_negative.csv"), [[1.0], [-1.0], [1.0]])
    write_csv(os.path.join(inputs, "bad_weights_underflow.csv"), [[5e-324], [1.0], [1.0]])
    write_csv(os.path.join(inputs, "bad_weights_two_columns.csv"), np.ones((3, 2)))
    write_csv(os.path.join(inputs, "bad_weights_too_few.csv"), [[1.0], [1.0]])
    with open(os.path.join(inputs, "field_too_large.csv"), "w", encoding="utf-8") as fh:
        fh.write("1" * 131073 + "\n")
    with open(os.path.join(inputs, "nested_too_deeply.json"), "w", encoding="utf-8") as fh:
        fh.write("[" * 1100 + "]" * 1100)
    configs = {name: cfg for name, (cfg, _) in SIMULATE.items()}
    configs["byzantine_no_trials"] = dict(SIMULATE["byzantine_ball"][0], trials=0)
    configs["byzantine_majority"] = dict(SIMULATE["byzantine_ball"][0], V_S=3)
    configs["asymptotic_preference_2x2"] = dict(SIMULATE["asymptotic"][0],
                                                preference_matrix=np.eye(2).tolist())
    ball = SIMULATE["byzantine_ball"][0]
    configs["byzantine_radius_true"] = dict(ball, distribution=dict(ball["distribution"],
                                                                     radius=True))
    configs["theorem1_descending"] = dict(SIMULATE["theorem1"][0], V_grid=[400, 200])
    configs["byzantine_seed_fraction"] = dict(ball, seed=1.5)
    skewed = dict(SIMULATE["asymptotic_skewed"][0])
    skewed["median_skw"] = skewed.pop("median_skew")
    configs["asymptotic_median_skw"] = skewed
    isotropic = SIMULATE["byzantine_isotropic"][0]
    configs["byzantine_gaussian_radius"] = dict(
        isotropic, distribution=dict(isotropic["distribution"], radius=-4))
    configs["convergence_epsilon"] = dict(SIMULATE["convergence"][0], epsilon=0.1)
    for name, cfg in configs.items():
        with open(os.path.join(inputs, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)


def commands():
    det = ["--deterministic"]
    yield ["aggregate", "--input", "inputs/profile.csv", "--method", "gm",
           "--output", "aggregate_gm_uniform.json", *det]
    yield ["aggregate", "--input", "inputs/profile.csv", "--weights", "inputs/weights.csv",
           "--method", "gm", "--output", "aggregate_gm_weighted.json", *det]
    yield ["aggregate", "--input", "inputs/profile.csv", "--weights",
           "inputs/weights_huge.csv", "--method", "gm",
           "--output", "aggregate_gm_weighted_huge.json", *det]
    yield ["aggregate", "--input", "inputs/triangle.csv", "--method", "gm",
           "--output", "aggregate_gm_triangle.json", *det]
    yield ["aggregate", "--input", "inputs/triangle_tiny.csv", "--method", "gm",
           "--output", "aggregate_gm_triangle_tiny.json", *det]
    yield ["aggregate", "--input", "inputs/collinear.csv", "--method", "gm",
           "--output", "aggregate_gm_collinear.json", *det]
    yield ["aggregate", "--input", "inputs/tied.csv", "--method", "gm",
           "--output", "aggregate_gm_tied.json", *det]
    yield ["aggregate", "--input", "inputs/profile25.csv", "--method", "skewed-gm",
           "--skew-matrix", "inputs/skew3.csv", "--output", "aggregate_skewed_25x3.json",
           *det]
    yield ["aggregate", "--input", "inputs/triangle.csv", "--method", "skewed-gm",
           "--skew-matrix", "inputs/skew2.csv", "--output", "aggregate_skewed_triangle.json",
           *det]
    yield ["aggregate", "--input", "inputs/profile.csv", "--method", "cw",
           "--output", "aggregate_cw_uniform.json", *det]
    yield ["aggregate", "--input", "inputs/profile.csv", "--weights", "inputs/weights.csv",
           "--method", "avg", "--output", "aggregate_avg_weighted.json", *det]
    yield ["aggregate", "--input", "inputs/simplex.csv", "--method", "cw",
           "--output", "aggregate_cw_simplex.json", *det]
    yield ["skewness", "--matrix", "inputs/skew3.csv", "--numeric-check",
           "--output", "skewness_skew3.json", *det]
    yield ["best-response", "--preset", "thm1", "--X", "20", "--V", "200",
           "--output", "best_response_thm1.json", *det]
    yield ["best-response", "--input", "inputs/profile.csv", "--theta0", "0.3,0.2,0.1",
           "--pref-matrix", "inputs/skew3.csv", "--seed", "7",
           "--output", "best_response_profile.json", *det]
    yield ["best-response", "--input", "inputs/profile_tiny.csv", "--theta0", TINY_THETA0,
           "--pref-matrix", "inputs/skew3.csv", "--seed", "7",
           "--output", "best_response_profile_tiny.json", *det]
    for name, (_, parallel) in SIMULATE.items():
        yield ["simulate", "--config", f"inputs/{name}.json", "--parallel", str(parallel),
               "--output", f"simulate_{name}", *det]


def versions() -> dict:
    """The versions the bytes depend on: numpy, scipy and numpy's OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": blas.get("version")}


def digests(out_dir) -> dict:
    """SHA-256 of every file under out_dir, by its /-separated relative path."""
    found = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            found[os.path.relpath(path, out_dir).replace(os.sep, "/")] = digest
    return found


def read_record() -> tuple:
    """(versions, digests) as write_record wrote them."""
    recorded, found = {}, {}
    with open(RECORD, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                key, value = line[2:].split(None, 1)
                recorded[key] = value.strip()
            elif line.strip():
                digest, name = line.rstrip("\n").split("  ", 1)
                found[name] = digest
    return recorded, found


def write_record(out_dir) -> None:
    """Versions as '# name version' lines, then sha256sum-style digest lines."""
    with open(RECORD, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {k} {v}\n" for k, v in versions().items())
        fh.writelines(f"{d}  {name}\n" for name, d in sorted(digests(out_dir).items()))


def main(argv):
    record = argv[1:2] == ["--record"]
    if len(argv) != 2 + record:
        sys.exit(__doc__.split("\n\n")[1])
    out_dir = os.path.abspath(argv[-1])
    write_inputs(out_dir)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("MEDIANFORGE_SEED", None)

    def run(cmd):
        return subprocess.run([sys.executable, "-m", "medianforge", *cmd], cwd=out_dir,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)

    cmds = list(commands())
    # the commands, then the failing ones, two at a time (never more than the
    # cores); the results come back in command order
    with ThreadPoolExecutor(min(2, os.cpu_count() or 1)) as pool:
        procs = list(pool.map(run, [*cmds, *ERRORS.values()]))
    failed = 0
    for cmd, proc in zip(cmds, procs):
        if proc.returncode != 0:
            failed += 1
            print(f"exit {proc.returncode}: medianforge {' '.join(cmd)}\n{proc.stderr}",
                  file=sys.stderr)
    os.makedirs(os.path.join(out_dir, "errors"), exist_ok=True)
    for (name, cmd), proc in zip(ERRORS.items(), procs[len(cmds):]):
        with open(os.path.join(out_dir, "errors", f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"exit {proc.returncode}\n{proc.stderr}")
        if proc.returncode == 0 or "Traceback" in proc.stderr or \
                "--output" in cmd and os.path.exists(os.path.join(out_dir, cmd[-1])):
            failed += 1
            print(f"expected a clean failure that writes nothing, got exit {proc.returncode}: "
                  f"medianforge {' '.join(cmd)}\n{proc.stderr}", file=sys.stderr)
    if failed:
        return 1
    if record:
        write_record(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
