"""Command-line interface.

Subcommands: aggregate, skewness, best-response, simulate. Reports go to
stdout as JSON unless --output is given; diagnostics go to stderr. Exit
codes: 0 success, 2 input/validation error, 3 solver failure.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .errors import SolverFailure, check_count
from .linalg import as_vector, check_spd, one_blas_thread
from .profiles import WeightedProfile, uniform_profile
from .reportio import (
    ParseError,
    dump_report,
    make_report,
    read_profile_csv,
    read_weights_csv,
    write_rows_csv,
)
from .simulate import (
    ExperimentConfig,
    PreferenceDistribution,
    asymptotic_experiment,
    build_theorem1_instance,
    byzantine_experiment,
    convergence_diagnostics,
    theorem1_experiment,
)
from .solvers import (
    DEFAULT_TOL_GRAD,
    average,
    coordinatewise_median,
    geometric_median,
    loss_eval,
    skewed_geometric_median,
)
from .strategy import _spans_plane, best_response, hull_distance, numeric_skewness, skewness

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _env_seed() -> int:
    env = os.environ.get("MEDIANFORGE_SEED") or "0"
    try:
        seed = int(env)
    except ValueError:
        raise ParseError(f"MEDIANFORGE_SEED must be an integer, got {env!r}") from None
    return check_count(seed, "MEDIANFORGE_SEED", 0)


def _build(source, make, *args):
    """make(*args); a ValueError, say from coordinates too large to square,
    becomes a ParseError naming source: the file, flag or config judged."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def _emit(args, result, certs, **resolved):
    """Write the report. Its inputs echo the parsed arguments, less those that
    say where and how to write, with resolved values (say, a fallback seed) in
    place of their raw ones."""
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "output", "deterministic")}
    inputs.update(resolved)
    dump_report(make_report(inputs, result, certs, args.deterministic), args.output)


# -- aggregate ----------------------------------------------------------------


def _cmd_aggregate(args) -> int:
    if not args.tol > 0.0:
        raise ParseError(f"--tol must be positive, got {args.tol!r}")
    points = read_profile_csv(args.input)
    if args.method == "skewed-gm" and not args.skew_matrix:
        raise ParseError("method skewed-gm requires --skew-matrix")
    profile = _build(args.input, uniform_profile, points)
    if args.weights:  # the points passed above, so what fails here is a weight
        weights = read_weights_csv(args.weights, profile.count)
        profile = _build(args.weights, WeightedProfile, points, weights)

    skew = _build(args.skew_matrix, check_spd, read_profile_csv(args.skew_matrix),
                  "skew matrix", profile.dim) if args.skew_matrix else None

    if args.method in ("avg", "cw"):
        point = average(profile) if args.method == "avg" \
            else coordinatewise_median(profile)
        result, certs = {"loss": loss_eval(profile, point)}, {}
    else:
        if args.method == "gm":
            res = geometric_median(profile, args.tol)
        else:
            res = skewed_geometric_median(profile, skew, args.tol)
        point = res.point
        result = {"loss": res.loss, "iterations": res.iterations}
        certs = {"grad_norm": res.grad_norm, "additive_bound": res.additive_bound}
    result.update(point=point, method=args.method)  # the report sorts its keys
    # rounding alone puts a hull point about 1e-16 of the scale outside
    floor = 1e-9 * profile.scale
    hull_tol = max(certs.get("additive_bound", 0.0), floor)
    if not np.isfinite(hull_tol):
        hull_tol = floor
    result["hull_member"] = bool(hull_distance(profile.voters, point) <= hull_tol)
    result["degenerate_dimension"] = profile.affine_dim <= 1

    _emit(args, result, certs)
    return EXIT_OK


# -- skewness -----------------------------------------------------------------


def _cmd_skewness(args) -> int:
    matrix = read_profile_csv(args.matrix)
    result = dataclasses.asdict(_build(args.matrix, skewness, matrix))
    if args.numeric_check:
        num = numeric_skewness(matrix)
        result["numeric_value"] = num
        result["numeric_gap"] = abs(num - result["value"])
    _emit(args, result, {})
    return EXIT_OK


# -- best response ------------------------------------------------------------


def _parse_theta0(text: str) -> tuple[str, np.ndarray]:
    """(source, theta0): the file that --theta0 names, or the flag itself for inline CSV."""
    if os.path.exists(text):
        arr = read_profile_csv(text)
        if arr.shape[0] != 1:
            raise ParseError(f"{text}:1: theta0 file must contain exactly one row")
        return text, arr[0]
    try:
        return "--theta0", np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ParseError(f"theta0 {text!r} is neither a file nor inline CSV") from None


def _cmd_best_response(args) -> int:
    check_count(args.restarts, "--restarts", 1)
    seed = _env_seed() if args.seed is None else check_count(args.seed, "--seed", 0)
    preset_info = None
    extra_votes = None
    if args.preset == "thm1":
        if args.X is None or args.V is None:
            raise ParseError("--preset thm1 requires --X and --V")
        inst = _build("--preset thm1", build_theorem1_instance, args.X, args.V)
        honest = inst.honest_profile
        theta0 = inst.theta0
        extra_votes = [inst.strategic_vote]
        preset_info = {
            "preset": "thm1",
            "X": args.X,
            "V": args.V,
            "alpha_V": inst.alpha_v,
            "g_V": inst.g_v,
            "closed_form_vote": inst.strategic_vote,
            "analytic_truthful_dist": inst.truthful_dist,
            "paper_gain_bound": inst.paper_gain_bound,
        }
    else:
        if not args.input or not args.theta0:
            raise ParseError("best-response requires --input and --theta0 (or --preset)")
        honest = _build(args.input, uniform_profile, read_profile_csv(args.input))
        _build(args.input, _spans_plane, honest)
        source, theta0 = _parse_theta0(args.theta0)
        theta0 = _build(source, as_vector, theta0, "theta0", honest.dim)
    pref = _build(args.pref_matrix, check_spd, read_profile_csv(args.pref_matrix),
                  "preference matrix", honest.dim) if args.pref_matrix else None

    rep = best_response(theta0, honest, s=pref, restarts=args.restarts, seed=seed,
                        extra_votes=extra_votes)
    result = dataclasses.asdict(rep)
    certs = {k: result.pop(k) for k in ("manipulated_grad_norm", "manipulated_additive_bound")}
    gain = rep.gain_alpha
    if preset_info is not None:
        # Certified analytic truthful distance; the numeric one carries the
        # solver certificate error, which matters at this scale.
        if rep.strategic_dist > 0.0:
            gain = preset_info["analytic_truthful_dist"] / rep.strategic_dist - 1.0
        result["preset"] = preset_info
    result.update(gain_alpha=gain, gain_alpha_numeric_truthful=rep.gain_alpha,
                  gain_is_lower_bound=True)
    _emit(args, result, certs, seed=seed)
    return EXIT_OK


# -- simulate -----------------------------------------------------------------


CONFIG_KEYS = {  # each experiment and the keys it reads besides "experiment"
    "asymptotic": ("distribution", "V_grid", "trials", "seed", "epsilon", "delta",
                   "preference_matrix", "median_skew"),
    "theorem1": ("X", "V_grid"),
    "byzantine": ("distribution", "V_T", "V_S", "trials", "seed"),
    "convergence": ("distribution", "V_grid", "trials", "seed"),
}


def _read(cfg, key, convert):
    """cfg[key] through convert; a malformed value raises ValueError naming key."""
    try:
        return convert(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _only(keys, given: dict, reader: str) -> None:
    """Refuse a key reader does not read, which would leave a default in force."""
    unread = sorted(set(given) - set(keys))
    if unread:
        raise ValueError(f"{reader} reads no key {', '.join(map(repr, unread))}")


def _distribution(d):
    optional = {key: d[key] for key in ("sigmas", "radius") if key in d}
    dist = PreferenceDistribution(d["kind"], d["dim"], **optional)
    _only(("kind", "dim", "sigmas", "radius"), d, dist.kind)
    return dist


def _bind_experiment(kind, cfg, parallel):
    """Bind a simulate config's values to the experiment call, unconverted:
    the library judges each one before any trial runs.

    Returns the experiment call. A missing key raises KeyError; a malformed
    value, ValueError naming it.
    """
    if kind == "theorem1":
        return functools.partial(theorem1_experiment, cfg["X"], cfg["V_grid"],
                                 parallel=parallel)
    seed = check_count(cfg["seed"], "seed", 0) if "seed" in cfg else _env_seed()
    dist = _read(cfg, "distribution", _distribution)
    if kind == "byzantine":
        return functools.partial(byzantine_experiment, dist, cfg["V_T"], cfg["V_S"],
                                 cfg["trials"], seed, parallel=parallel)
    optional = {key: cfg[key] for key in ("epsilon", "delta")
                if key in cfg and kind == "asymptotic"}
    config = ExperimentConfig(dist, cfg["V_grid"], cfg["trials"], seed, **optional)
    if kind == "convergence":
        return functools.partial(convergence_diagnostics, config, parallel=parallel)
    as_matrix = functools.partial(np.asarray, dtype=float)
    matrices = {arg: _read(cfg, key, as_matrix)
                for arg, key in (("s", "preference_matrix"), ("median_skew", "median_skew"))
                if key in cfg}
    return functools.partial(asymptotic_experiment, config, parallel=parallel,
                             **matrices)


def _cmd_simulate(args) -> int:
    check_count(args.parallel, "--parallel", 1)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{args.config}: cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.config}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{args.config}: invalid JSON: nested too deeply") from None
    if not isinstance(cfg, dict):
        raise ParseError(f"{args.config}: config must be a JSON object")

    kind = cfg.get("experiment")
    if kind not in CONFIG_KEYS:
        raise ParseError(f"{args.config}: experiment must be one of "
                         f"{', '.join(CONFIG_KEYS)}; got {kind!r}")
    try:
        experiment = _build(args.config, _bind_experiment, kind, cfg, args.parallel)
    except KeyError as exc:
        raise ParseError(f"{args.config}: {kind} needs {exc}") from None
    # after the values, so a bad value is named before a stray key
    _build(args.config, _only, ("experiment", *CONFIG_KEYS[kind]), cfg, kind)
    report = _build(args.config, experiment)  # so a rejected config writes nothing
    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"{args.output}: cannot create directory: {exc}") from None

    json_path = os.path.join(args.output, f"{kind}_report.json")
    csv_path = os.path.join(args.output, f"{kind}_trials.csv")
    # The worker count is scheduling detail, not an input: reports must be
    # byte-identical across --parallel settings.
    dump_report(make_report({"config": cfg},
                            {"summary": report.summary, "rows": report.rows}, {},
                            args.deterministic), json_path)
    write_rows_csv(csv_path, report.rows)
    print(f"wrote {json_path} and {csv_path}", file=sys.stderr)

    errors = sum(1 for r in report.rows if r.get("error"))
    if report.rows and errors / len(report.rows) > 0.10:
        print(f"{errors}/{len(report.rows)} trials failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medianforge",
        description="Aggregate preference vectors by (skewed) geometric median "
        "and quantify how manipulable the aggregate is.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--deterministic", action="store_true",
                        help="zero the report timestamp for byte-stable output")
    report = argparse.ArgumentParser(add_help=False, parents=[common])
    report.add_argument("--output", help="write the JSON report here instead of stdout")

    agg = sub.add_parser("aggregate", parents=[report], help="aggregate a profile CSV")
    agg.add_argument("--input", required=True, help="profile CSV, one voter per row")
    agg.add_argument("--method", required=True, choices=["gm", "cw", "avg", "skewed-gm"])
    agg.add_argument("--skew-matrix", help="square CSV, required for skewed-gm")
    agg.add_argument("--weights", help="CSV with one positive weight per voter")
    agg.add_argument("--tol", type=float, default=DEFAULT_TOL_GRAD, help="gradient-norm stop")
    agg.set_defaults(func=_cmd_aggregate)

    skw = sub.add_parser("skewness", parents=[report], help="skewness of an SPD matrix")
    skw.add_argument("--matrix", required=True, help="square CSV matrix")
    skw.add_argument("--numeric-check", action="store_true",
                     help="also run the sphere oracle and report the gap")
    skw.set_defaults(func=_cmd_skewness)

    br = sub.add_parser("best-response", parents=[report],
                        help="strategic best response search")
    br.add_argument("--input", help="honest profile CSV")
    br.add_argument("--theta0", help="inline CSV like '0.1,0.2' or a one-row file")
    br.add_argument("--pref-matrix", help="SPD preference norm matrix CSV")
    br.add_argument("--restarts", type=int, default=5)
    br.add_argument("--seed", type=int, default=None,
                    help="RNG seed (falls back to MEDIANFORGE_SEED, then 0)")
    br.add_argument("--preset", choices=["thm1"], help="built-in instance generator")
    br.add_argument("--X", type=float, help="corner abscissa for --preset thm1")
    br.add_argument("--V", type=int, help="copies per corner for --preset thm1")
    br.set_defaults(func=_cmd_best_response)

    simp = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo experiment")
    simp.add_argument("--config", required=True, help="JSON experiment config")
    simp.add_argument("--parallel", type=int, default=1, help="worker processes")
    simp.add_argument("--output", required=True, help="output directory")
    simp.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:  # errors.py: an input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
