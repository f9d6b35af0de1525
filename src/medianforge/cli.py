"""Command-line interface.

Subcommands: aggregate, skewness, best-response, simulate. Reports go to
stdout as JSON unless --output is given; diagnostics go to stderr. Exit
codes: 0 success, 2 input/validation error, 3 solver failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import MedianForgeError, NotSPD, SolverFailure
from .linalg import check_spd, one_blas_thread
from .profiles import VoterProfile, WeightedProfile, uniform_profile
from .reportio import (
    ParseError,
    dump_report,
    make_report,
    read_matrix_csv,
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
    average,
    coordinatewise_median,
    geometric_median,
    loss_eval,
    skewed_geometric_median,
)
from .strategy import best_response, hull_distance, numeric_skewness, skewness

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _fallback_seed(value):
    if value is not None:
        return value
    env = os.environ.get("MEDIANFORGE_SEED")
    return int(env) if env else 0


def _emit(report, output):
    if output:
        dump_report(report, path=output)
    else:
        dump_report(report, stream=sys.stdout)


# -- aggregate ----------------------------------------------------------------


def _cmd_aggregate(args) -> int:
    if not args.tol > 0.0:
        raise ParseError(f"--tol must be positive, got {args.tol!r}")
    points = read_profile_csv(args.input)
    if args.method == "skewed-gm" and not args.skew_matrix:
        raise ParseError("method skewed-gm requires --skew-matrix")
    if args.weights:
        weights = read_weights_csv(args.weights, points.shape[0])
        profile = WeightedProfile.from_raw_weights(points, weights)
    else:
        profile = uniform_profile(points)

    skew = None
    if args.skew_matrix:
        skew = check_spd(read_matrix_csv(args.skew_matrix), "skew matrix")

    if args.method in ("avg", "cw"):
        point = average(profile) if args.method == "avg" \
            else coordinatewise_median(profile)
        result = {
            "point": point,
            "method": args.method,
            "loss": loss_eval(profile, point),
        }
        certs = {}
        degenerate = profile.affine_dim <= 1
    else:
        if args.method == "gm":
            res = geometric_median(profile, args.tol)
        else:
            res = skewed_geometric_median(profile, skew, args.tol)
        point = res.point
        degenerate = res.degenerate
        result = {
            "point": res.point,
            "method": args.method,
            "loss": res.loss,
            "iterations": res.iterations,
        }
        certs = {
            "grad_norm": res.grad_norm,
            "additive_bound": res.additive_bound,
        }
    # rounding alone puts a hull point about 1e-16 of the scale outside
    floor = 1e-9 * profile.scale
    hull_tol = max(certs.get("additive_bound", 0.0), floor)
    if not np.isfinite(hull_tol):
        hull_tol = floor
    result["hull_member"] = bool(hull_distance(points, point) <= hull_tol)
    result["degenerate_dimension"] = bool(degenerate)

    inputs = {
        "input": args.input,
        "method": args.method,
        "skew_matrix": args.skew_matrix,
        "weights": args.weights,
        "tol": args.tol,
    }
    _emit(make_report("aggregate", inputs, result, certs, args.deterministic), args.output)
    return EXIT_OK


# -- skewness -----------------------------------------------------------------


def _cmd_skewness(args) -> int:
    matrix = read_matrix_csv(args.matrix)
    rep = skewness(matrix)
    result = {
        "value": rep.value,
        "lambda_min": rep.lambda_min,
        "lambda_max": rep.lambda_max,
        "lower_bound": rep.lower_bound,
        "upper_bound": rep.upper_bound,
        "certified": rep.certified,
    }
    if args.numeric_check:
        num = numeric_skewness(matrix)
        result["numeric_value"] = num
        result["numeric_gap"] = abs(num - rep.value)
    inputs = {"matrix": args.matrix, "numeric_check": bool(args.numeric_check)}
    _emit(make_report("skewness", inputs, result, {}, args.deterministic), args.output)
    return EXIT_OK


# -- best response ------------------------------------------------------------


def _parse_theta0(text: str) -> np.ndarray:
    if os.path.exists(text):
        arr = read_profile_csv(text)
        if arr.shape[0] != 1:
            raise ParseError(f"{text}:1: theta0 file must contain exactly one row")
        return arr[0]
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ParseError(f"theta0 {text!r} is neither a file nor inline CSV") from None


def _cmd_best_response(args) -> int:
    if args.restarts < 1:
        raise ParseError(f"--restarts must be >= 1, got {args.restarts}")
    seed = _fallback_seed(args.seed)
    pref = None
    if args.pref_matrix:
        pref = check_spd(read_matrix_csv(args.pref_matrix), "preference matrix")

    preset_info = None
    extra_votes = None
    if args.preset == "thm1":
        if args.X is None or args.V is None:
            raise ParseError("--preset thm1 requires --X and --V")
        try:
            inst = build_theorem1_instance(args.X, args.V)
        except ValueError as exc:
            raise ParseError(f"--preset thm1: {exc}") from None
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
            "paper_gain_bound": (args.X**2 - 8 * args.X + 1) / (8 * args.X),
        }
    else:
        if not args.input or not args.theta0:
            raise ParseError("best-response requires --input and --theta0 (or --preset)")
        honest = VoterProfile(read_profile_csv(args.input))
        theta0 = _parse_theta0(args.theta0)
        if theta0.size != honest.dim:
            raise ParseError("theta0 dimension does not match the profile")

    rep = best_response(theta0, honest, s=pref, restarts=args.restarts, seed=seed,
                        extra_votes=extra_votes)
    gain = rep.gain_alpha
    analytic_truthful = None
    if preset_info is not None:
        # Certified analytic truthful distance; the numeric one carries the
        # solver certificate error, which matters at this scale.
        analytic_truthful = preset_info["analytic_truthful_dist"]
        if rep.strategic_dist > 0.0:
            gain = analytic_truthful / rep.strategic_dist - 1.0

    result = {
        "theta0": rep.theta0,
        "truthful_median": rep.truthful_median,
        "strategic_vote": rep.strategic_vote,
        "manipulated_median": rep.manipulated_median,
        "truthful_dist": rep.truthful_dist,
        "strategic_dist": rep.strategic_dist,
        "gain_alpha": gain,
        "gain_alpha_numeric_truthful": rep.gain_alpha,
        "exact_capture": rep.exact_capture,
        "gain_is_lower_bound": True,
        "candidates": rep.candidates,
    }
    if preset_info is not None:
        result["preset"] = preset_info
    certs = {
        "manipulated_grad_norm": rep.manipulated_grad_norm,
        "manipulated_additive_bound": rep.manipulated_additive_bound,
    }
    inputs = {
        "input": args.input,
        "theta0": args.theta0,
        "pref_matrix": args.pref_matrix,
        "restarts": args.restarts,
        "seed": seed,
        "preset": args.preset,
        "X": args.X,
        "V": args.V,
    }
    _emit(make_report("best-response", inputs, result, certs, args.deterministic),
          args.output)
    return EXIT_OK


# -- simulate -----------------------------------------------------------------


def _distribution_from_config(cfg: dict) -> PreferenceDistribution:
    if not isinstance(cfg, dict) or "kind" not in cfg or "dim" not in cfg:
        raise ParseError("config distribution needs 'kind' and 'dim'")
    try:
        return PreferenceDistribution(
            cfg["kind"],
            int(cfg["dim"]),
            sigmas=tuple(cfg["sigmas"]) if "sigmas" in cfg else None,
            corner_x=cfg.get("X", cfg.get("corner_x")),
            radius=cfg.get("radius"),
        )
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad distribution config: {exc}") from None


THEOREM1_FIELDS = ["X", "V", "alpha_V", "truthful_dist", "strategic_dist", "ratio",
                   "gain_alpha", "vote_achievable", "truthful_median_err",
                   "limit_ratio", "paper_gain_bound"]
BYZANTINE_FIELDS = ["V_T", "V_S", "trial", "seed", "attack", "delta", "bound",
                    "displacement", "within_bound"]
ASYMPTOTIC_FIELDS = ["V", "trial", "seed", "skew_closed", "skew_numeric",
                     "gain_gamma_1.5", "gain_gamma_3.0", "gain_gamma_10.0",
                     "max_gain", "error"]
CONVERGENCE_FIELDS = ["V", "trial", "seed", "ref_seed", "median_err", "hessian_err"]


def _flatten_asymptotic(rows):
    flat = []
    for r in rows:
        out = {k: r.get(k) for k in ("V", "trial", "seed", "skew_closed",
                                     "skew_numeric", "max_gain", "error")}
        for g in r.get("gains", []):
            out[f"gain_gamma_{g['gamma']}"] = g["gain_alpha"]
        flat.append(out)
    return flat


def _run_experiment(kind, cfg, seed, args):
    """Run one simulate config; returns (report, CSV fields, CSV rows)."""
    if kind == "theorem1":
        if "X" not in cfg or "V_grid" not in cfg:
            raise ParseError(f"{args.config}: theorem1 needs 'X' and 'V_grid'")
        report = theorem1_experiment(float(cfg["X"]), cfg["V_grid"], parallel=args.parallel)
        return report, THEOREM1_FIELDS, report.rows
    if kind == "byzantine":
        for key in ("V_T", "V_S", "trials", "distribution"):
            if key not in cfg:
                raise ParseError(f"{args.config}: byzantine needs {key!r}")
        dist = _distribution_from_config(cfg["distribution"])
        report = byzantine_experiment(dist, int(cfg["V_T"]), int(cfg["V_S"]),
                                      int(cfg["trials"]), seed, parallel=args.parallel)
        return report, BYZANTINE_FIELDS, report.rows
    for key in ("distribution", "V_grid", "trials"):
        if key not in cfg:
            raise ParseError(f"{args.config}: {kind} needs {key!r}")
    dist = _distribution_from_config(cfg["distribution"])
    config = ExperimentConfig(
        dist,
        tuple(cfg["V_grid"]),
        int(cfg["trials"]),
        seed,
        epsilon=float(cfg.get("epsilon", 0.1)),
        delta=float(cfg.get("delta", 0.05)),
    )
    if kind == "asymptotic":
        pref = np.asarray(cfg["preference_matrix"], dtype=float) \
            if "preference_matrix" in cfg else None
        skew = np.asarray(cfg["median_skew"], dtype=float) \
            if "median_skew" in cfg else None
        report = asymptotic_experiment(config, s=pref, median_skew=skew,
                                       parallel=args.parallel)
        return report, ASYMPTOTIC_FIELDS, _flatten_asymptotic(report.rows)
    report = convergence_diagnostics(config, parallel=args.parallel)
    return report, CONVERGENCE_FIELDS, report.rows


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{args.config}: cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.config}:{exc.lineno}: invalid JSON: {exc.msg}") from None

    kind = cfg.get("experiment")
    if kind not in ("asymptotic", "theorem1", "byzantine", "convergence"):
        raise ParseError(
            f"{args.config}: experiment must be one of asymptotic, theorem1, "
            f"byzantine, convergence; got {kind!r}"
        )
    seed = int(cfg.get("seed", _fallback_seed(None)))
    os.makedirs(args.output, exist_ok=True)

    try:
        report, fields, csv_rows = _run_experiment(kind, cfg, seed, args)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{args.config}: {exc}") from None

    json_path = os.path.join(args.output, f"{kind}_report.json")
    csv_path = os.path.join(args.output, f"{kind}_trials.csv")
    # The worker count is scheduling detail, not an input: reports must be
    # byte-identical across --parallel settings.
    doc = make_report(
        f"simulate:{kind}",
        {"config": cfg},
        {"summary": report.summary, "rows": report.rows},
        {},
        args.deterministic,
    )
    dump_report(doc, path=json_path)
    write_rows_csv(csv_path, fields, csv_rows)
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

    agg = sub.add_parser("aggregate", help="aggregate a profile CSV")
    agg.add_argument("--input", required=True, help="profile CSV, one voter per row")
    agg.add_argument("--method", required=True, choices=["gm", "cw", "avg", "skewed-gm"])
    agg.add_argument("--skew-matrix", help="square CSV, required for skewed-gm")
    agg.add_argument("--weights", help="CSV with one positive weight per voter")
    agg.add_argument("--tol", type=float, default=1e-10, help="gradient-norm stop")
    agg.add_argument("--output", help="write the JSON report here instead of stdout")
    agg.add_argument("--deterministic", action="store_true",
                     help="zero the report timestamp for byte-stable output")
    agg.set_defaults(func=_cmd_aggregate)

    skw = sub.add_parser("skewness", help="skewness of an SPD matrix")
    skw.add_argument("--matrix", required=True, help="square CSV matrix")
    skw.add_argument("--numeric-check", action="store_true",
                     help="also run the sphere oracle and report the gap")
    skw.add_argument("--output")
    skw.add_argument("--deterministic", action="store_true")
    skw.set_defaults(func=_cmd_skewness)

    br = sub.add_parser("best-response", help="strategic best response search")
    br.add_argument("--input", help="honest profile CSV")
    br.add_argument("--theta0", help="inline CSV like '0.1,0.2' or a one-row file")
    br.add_argument("--pref-matrix", help="SPD preference norm matrix CSV")
    br.add_argument("--restarts", type=int, default=5)
    br.add_argument("--seed", type=int, default=None,
                    help="RNG seed (falls back to MEDIANFORGE_SEED, then 0)")
    br.add_argument("--preset", choices=["thm1"], help="built-in instance generator")
    br.add_argument("--X", type=float, help="corner abscissa for --preset thm1")
    br.add_argument("--V", type=int, help="copies per corner for --preset thm1")
    br.add_argument("--output")
    br.add_argument("--deterministic", action="store_true")
    br.set_defaults(func=_cmd_best_response)

    simp = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    simp.add_argument("--config", required=True, help="JSON experiment config")
    simp.add_argument("--parallel", type=int, default=1, help="worker processes")
    simp.add_argument("--output", required=True, help="output directory")
    simp.add_argument("--deterministic", action="store_true")
    simp.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    except (ParseError, NotSPD) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MedianForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
