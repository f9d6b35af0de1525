"""Scenario generators and Monte Carlo experiments.

Experiments are embarrassingly parallel across trials: every trial derives
its own random stream from the experiment seed and its grid indices, so
results are identical regardless of worker count, and any single trial can
be replayed in isolation from the indices recorded in its row.
"""

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (AtVoterPoint, MajorityAttack, MedianForgeError, SolverFailure,
                     check_count, check_each, check_number, check_v_grid)
from .linalg import check_spd, one_blas_thread, spd_inv, spd_sqrt
from .profiles import WeightedProfile, uniform_profile
from .solvers import _solve_gm, loss_gradient, loss_hessian, min_norm_subgradient
from .strategy import (
    _last_inside,
    _median_with_vote,
    _resilience,
    _sphere_objective,
    achievable_contains,
    best_response,
    boundary_point,
    skewness,
)

__all__ = [
    "PreferenceDistribution",
    "ExperimentConfig",
    "Theorem1Instance",
    "ExperimentReport",
    "sample_profile",
    "build_theorem1_instance",
    "theorem1_experiment",
    "asymptotic_experiment",
    "convergence_diagnostics",
    "byzantine_experiment",
    "fit_isotropizing_skew",
]

DIST_KINDS = ("isotropic-gaussian", "diagonal-gaussian", "uniform-ball")

STRESS_GAMMAS = (1.5, 3.0, 10.0)
# an asymptotic row's measured columns, in order; a failed trial's are None
_STRESS_COLUMNS = ("skew_closed", "skew_numeric",
                   *(f"{name}_gamma_{gamma}" for gamma in STRESS_GAMMAS
                     for name in ("gain", "truthful_dist", "strategic_dist")))


@dataclass(frozen=True)
class PreferenceDistribution:
    """I.i.d. sampler for voter preference vectors.

    kinds: isotropic-gaussian, diagonal-gaussian (per-axis sigmas),
    uniform-ball (radius); no other kind takes sigmas or a radius.
    """

    kind: str
    dim: int
    sigmas: tuple = None
    radius: float = None

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        object.__setattr__(self, "dim", check_count(self.dim, "dim", 2))
        if self.sigmas is not None:
            object.__setattr__(self, "sigmas", check_each(self.sigmas, check_number, "sigmas"))
        if self.radius is not None:
            object.__setattr__(self, "radius", check_number(self.radius, "radius"))
        if self.kind == "diagonal-gaussian":
            if self.sigmas is None or len(self.sigmas) != self.dim:
                raise ValueError("diagonal-gaussian needs one sigma per dimension")
            if not all(0 < s < math.inf for s in self.sigmas):
                raise ValueError("sigmas must be finite and positive")
        if self.kind == "uniform-ball" and (self.radius is None
                                            or not 0 < self.radius < math.inf):
            raise ValueError("uniform-ball needs a finite positive radius")
        for name, owner in (("sigmas", "diagonal-gaussian"), ("radius", "uniform-ball")):
            if getattr(self, name) is not None and self.kind != owner:
                raise ValueError(f"{self.kind} takes no {name}; only {owner} does")


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's settings. delta, the claim's failure probability, is checked
    as a number but not yet read by any experiment."""

    distribution: PreferenceDistribution
    V_grid: tuple
    trials: int
    seed: int
    epsilon: float = 0.1
    delta: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "V_grid", check_v_grid(self.V_grid))
        object.__setattr__(self, "trials", check_count(self.trials, "trials", 1))
        object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))
        object.__setattr__(self, "epsilon", check_number(self.epsilon, "epsilon"))
        object.__setattr__(self, "delta", check_number(self.delta, "delta"))
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")


@dataclass(frozen=True)
class ExperimentReport:
    rows: list
    summary: dict


def _derived_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence(base, spawn_key=tuple(key)).generate_state(1)[0])


def _corner_atoms(x: float) -> np.ndarray:
    return np.array([[-x, -1.0], [-x, 1.0], [x, -1.0], [x, 1.0]])


def sample_profile(dist: PreferenceDistribution, v_count: int, seed: int) -> WeightedProfile:
    """Draw v_count i.i.d. voters."""
    v_count = check_count(v_count, "v_count", 1)
    rng = np.random.default_rng(np.random.SeedSequence(check_count(seed, "seed", 0)))
    if dist.kind == "isotropic-gaussian":
        pts = rng.standard_normal((v_count, dist.dim))
    elif dist.kind == "diagonal-gaussian":
        pts = rng.standard_normal((v_count, dist.dim)) * np.asarray(dist.sigmas)
    else:  # uniform-ball
        u = rng.standard_normal((v_count, dist.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = dist.radius * rng.random(v_count) ** (1.0 / dist.dim)
        pts = u * r[:, None]
    return uniform_profile(pts)


# -- adversarial instance ------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Instance:
    """Four-corner adversarial instance with its closed-form strategic vote.

    The honest profile is v_per_corner copies of each (+-X, +-1) atom. g_v is
    the truthful median of theta0 joined with the honest profile; the
    strategic vote mirrors theta0 across the tangent plane at g_v of the
    limiting ellipsoid; the theorem-1 row's vote_achievable reports whether it
    lies inside the achievable set at this V (at X=20, V=200 it does not).
    """

    corner_x: float
    v_per_corner: int
    alpha_v: float
    g_v: np.ndarray
    theta0: np.ndarray
    strategic_vote: np.ndarray

    @property
    def honest_profile(self) -> WeightedProfile:
        return uniform_profile(np.repeat(_corner_atoms(self.corner_x), self.v_per_corner, axis=0))

    @property
    def truthful_dist(self) -> float:
        return float(np.linalg.norm(self.theta0 - self.g_v))

    @property
    def limit_ratio(self) -> float:
        """(1 + X^2) / 4X, the truthful-to-strategic distance ratio as V grows."""
        x = self.corner_x
        return (1.0 + x * x) / (4.0 * x)

    @property
    def paper_gain_bound(self) -> float:
        """(X^2 - 8X + 1) / 8X, the paper's lower bound on the gain."""
        x = self.corner_x
        return (x * x - 8.0 * x + 1.0) / (8.0 * x)


def build_theorem1_instance(x: float, v_per_corner: int) -> Theorem1Instance:
    """Construct the worst-case instance for a finite corner abscissa x >= 8.

    The corner loss here is the plain sum of the four distances; its gradient
    norm along the ray c * (x^3, 1) is driven to 1/V by bisection on (0, 1].
    At c = 1 the four corners lie almost along -x, so the norm is about 4 > 1/V.
    """
    x = check_number(x, "X")
    if not 8.0 <= x < math.inf:
        raise ValueError(f"the construction needs a finite corner abscissa X >= 8, got {x!r}")
    if x > sys.float_info.max ** (1.0 / 6.0):  # beyond, the gradient on the ray reads 0
        raise ValueError(f"corner abscissa {x!r} is too large: (x**3)**2 overflows")
    v = check_count(v_per_corner, "V", 1)
    corners = uniform_profile(_corner_atoms(x))

    def grad_sum(z):  # min-norm: from X ~ 1e15 points of the ray can read as corners
        return 4.0 * min_norm_subgradient(corners, z)

    ray = np.array([x**3, 1.0])
    target = 1.0 / v

    def excess(c):
        return np.linalg.norm(grad_sum(c * ray)) - target

    alpha_v = _last_inside(excess, 200)
    g_v = alpha_v * ray
    grad_at_g = grad_sum(g_v)
    theta0 = g_v + grad_at_g / math.sqrt(v)
    hessian = 4.0 * loss_hessian(corners, np.zeros(2))
    hhg = hessian @ (hessian @ g_v)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        coeff = (g_v @ (hessian @ hhg)) / (hhg @ hhg)
        strategic_vote = theta0 - (2.0 / math.sqrt(v)) * coeff * hhg
    # Far below the overflow bound, float64 loses the instance: the offset of
    # theta0 from g_V rounds away, or the bisection ends at alpha = 0 and
    # coeff is 0/0.
    if not all(np.all(np.isfinite(a)) for a in (g_v, theta0, strategic_vote)):
        raise ValueError(f"corner abscissa X={x!r} is too large: the instance "
                         "has non-finite entries")
    if np.array_equal(theta0, g_v):
        raise ValueError(f"corner abscissa X={x!r} is too large at V={v}: "
                         "theta0 rounds onto g_V")
    if corners.affine_dim < 2:  # the rank test reads (+-X, +-1) as a line from X ~ 1e9
        raise ValueError(f"corner abscissa X={x!r} is too large: the corners read as collinear")
    return Theorem1Instance(
        corner_x=x,
        v_per_corner=v,
        alpha_v=float(alpha_v),
        g_v=g_v,
        theta0=theta0,
        strategic_vote=strategic_vote,
    )


def _theorem1_task(inst):
    honest = inst.honest_profile
    achievable = achievable_contains(honest, inst.strategic_vote)
    manipulated = _median_with_vote(honest.voters, inst.strategic_vote, None)
    strategic_dist = float(np.linalg.norm(manipulated.point - inst.theta0))
    truthful_check = _median_with_vote(honest.voters, inst.theta0, None)
    ratio = inst.truthful_dist / strategic_dist
    return {
        "X": inst.corner_x,
        "V": inst.v_per_corner,
        "alpha_V": inst.alpha_v,
        "truthful_dist": inst.truthful_dist,
        "strategic_dist": strategic_dist,
        "ratio": ratio,
        "gain_alpha": ratio - 1.0,
        "vote_achievable": bool(achievable),
        "truthful_median_err": float(np.linalg.norm(truthful_check.point - inst.g_v)),
        "truthful_median_bound": truthful_check.additive_bound,
        "strategic_median_bound": manipulated.additive_bound,
        "limit_ratio": inst.limit_ratio,
        "paper_gain_bound": inst.paper_gain_bound,
    }


def theorem1_experiment(x: float, v_grid, parallel: int = 1) -> ExperimentReport:
    """Measure gains of the closed-form strategic vote along an ascending V
    grid; every instance, so every X and V, is judged before any task runs."""
    parallel = check_count(parallel, "parallel", 1)
    tasks = [build_theorem1_instance(x, v) for v in check_v_grid(v_grid)]
    rows = _run_tasks(_theorem1_task, tasks, parallel)
    summary = {
        "limit_ratio": rows[-1]["limit_ratio"],
        "final_ratio": rows[-1]["ratio"],
        "min_gain": min(r["gain_alpha"] for r in rows),
    }
    return ExperimentReport(rows, summary)


# -- asymptotic strategyproofness sweep ----------------------------------------


def _stress_gains(profile, pref, seed):
    """Place stress preferences just outside the achievable set and measure
    the strategic gain at each; returns the _STRESS_COLUMNS of a row,
    skew_numeric being the sphere objective at the closed form's maximizer."""
    v_count = profile.count
    final = _solve_gm(profile)[0]
    g, hess = final.z, final.hessian()
    pref_inv = spd_inv(pref)
    bound_matrix = pref_inv @ hess @ pref_inv
    bound_matrix = 0.5 * (bound_matrix + bound_matrix.T)

    # Worst-case direction: the skewness supremum is attained on the mixture
    # of extreme eigenvectors weighted by inverse square-root eigenvalues;
    # steer the boundary point so the outward pull aligns with it.
    w, q = np.linalg.eigh(bound_matrix)
    x_star = q[:, 0] / math.sqrt(w[0]) + q[:, -1] / math.sqrt(w[-1])
    measured = {"skew_closed": skewness(bound_matrix).value,
                "skew_numeric": float(_sphere_objective(bound_matrix, x_star) - 1.0)}
    pull_dir = np.linalg.solve(hess, pref_inv @ x_star)
    z_b = boundary_point(profile, g, pull_dir)
    outward = v_count * loss_gradient(profile, z_b)
    outward /= np.linalg.norm(outward)

    for gamma in STRESS_GAMMAS:
        theta0 = z_b + (gamma / v_count) * outward
        rep = best_response(theta0, profile, s=pref, seed=seed)
        measured.update({f"gain_gamma_{gamma}": rep.gain_alpha,
                         f"truthful_dist_gamma_{gamma}": rep.truthful_dist,
                         f"strategic_dist_gamma_{gamma}": rep.strategic_dist})
    return measured


def _asymptotic_task(args):
    dist, v_count, trial, seed, pref, median_skew = args
    trial_seed = _derived_seed(seed, 1, v_count, trial)
    row = {"V": v_count, "trial": trial, "seed": trial_seed}
    try:
        profile = sample_profile(dist, v_count, trial_seed)
        if median_skew is not None:
            profile = uniform_profile(profile.voters @ median_skew.T)
        measured = _stress_gains(profile, pref, trial_seed)
        row.update(measured, max_gain=max(measured[f"gain_gamma_{g}"]
                                          for g in STRESS_GAMMAS), error=None)
    except (MedianForgeError, RuntimeError) as exc:  # recorded, never aborts the sweep
        row.update(dict.fromkeys((*_STRESS_COLUMNS, "max_gain")),
                   error=f"{type(exc).__name__}: {exc}")
    return row


def asymptotic_experiment(config: ExperimentConfig, s=None, median_skew=None,
                          parallel: int = 1) -> ExperimentReport:
    """Boundary-stress manipulation sweep against the skewness bound.

    With a median_skew matrix the aggregate is the skewed geometric median;
    the sweep then runs on the mapped voters Sk x, where that aggregate is
    the plain median, with the preference norm mapped accordingly (gains are
    unchanged by the mapping, and the bound matrix is orthogonally similar).
    """
    parallel = check_count(parallel, "parallel", 1)
    dist = config.distribution
    if dist.dim < 5:
        raise ValueError("asymptotic sweeps need dim >= 5 under a smooth density")
    s_mat = np.eye(dist.dim) if s is None else check_spd(s, "preference matrix", dist.dim)
    sk = None if median_skew is None else check_spd(median_skew, "median_skew", dist.dim)
    pref = s_mat
    if sk is not None:
        sk_inv = spd_inv(sk)
        pref = spd_sqrt(sk_inv @ s_mat @ s_mat @ sk_inv)

    # One C-ordered matrix for every task: BLAS rounding can depend on layout.
    pref = np.ascontiguousarray(pref)
    tasks = [
        (dist, v_count, trial, config.seed, pref, sk)
        for v_count in config.V_grid
        for trial in range(config.trials)
    ]
    rows = _run_tasks(_asymptotic_task, tasks, parallel)

    summary = {}
    for v_count in config.V_grid:
        sub = [r for r in rows if r["V"] == v_count and r["error"] is None]
        if not sub:
            summary[str(v_count)] = {"completed": 0}
            continue
        gains = np.array([r["max_gain"] for r in sub])
        skews = np.array([r["skew_closed"] for r in sub])
        within = gains <= skews + config.epsilon
        summary[str(v_count)] = {
            "completed": len(sub),
            "max_gain": float(gains.max()),
            "gain_quantiles": {
                "q50": float(np.quantile(gains, 0.5)),
                "q90": float(np.quantile(gains, 0.9)),
                "q100": float(gains.max()),
            },
            "mean_skew_closed": float(skews.mean()),
            "fraction_within_bound": float(within.mean()),
        }
    return ExperimentReport(rows, summary)


# -- finite-voter convergence diagnostics ---------------------------------------


def _convergence_task(args):
    """Rows of one trial, one per V of the grid, against one reference solve."""
    dist, v_grid, v_ref, trial, seed = args
    ref_seed = _derived_seed(seed, 2, 0, trial)
    rows, v_count = [], v_ref  # v_count: the voter count being solved
    try:
        at_ref = _solve_gm(sample_profile(dist, v_ref, ref_seed))[0]
        ref_hessian = at_ref.hessian()
        for v_count in v_grid:
            trial_seed = _derived_seed(seed, 2, v_count, trial)
            at_v = _solve_gm(sample_profile(dist, v_count, trial_seed))[0]
            rows.append({
                "V": v_count,
                "trial": trial,
                "seed": trial_seed,
                "ref_seed": ref_seed,
                "median_err": float(np.linalg.norm(at_v.z - at_ref.z)),
                "hessian_err": float(np.max(np.abs(at_v.hessian() - ref_hessian))),
            })
    except AtVoterPoint:
        raise AtVoterPoint(f"convergence V={v_count} trial {trial}: the median lies on a "
                           "voter's point, where the loss Hessian is undefined") from None
    return rows


def convergence_diagnostics(config: ExperimentConfig, parallel: int = 1) -> ExperimentReport:
    """Decay of median and Hessian estimation error against a 10x reference."""
    parallel = check_count(parallel, "parallel", 1)
    dist = config.distribution
    if dist.dim < 5:
        raise ValueError("convergence diagnostics need dim >= 5 under a smooth density")
    if len(config.V_grid) < 2:
        raise ValueError("convergence diagnostics need at least two V_grid entries")
    v_ref = 10 * max(config.V_grid)
    tasks = [(dist, config.V_grid, v_ref, t, config.seed) for t in range(config.trials)]
    # rows of each V across the trials, in grid order
    by_v = list(zip(*_run_tasks(_convergence_task, tasks, parallel)))
    rows = [r for sub in by_v for r in sub]

    med_errs = [float(np.median([r["median_err"] for r in sub])) for sub in by_v]
    hess_errs = [float(np.median([r["hessian_err"] for r in sub])) for sub in by_v]
    logs_v = np.log(np.asarray(config.V_grid, dtype=float))
    med_slope = float(np.polyfit(logs_v, np.log(med_errs), 1)[0])
    hess_slope = float(np.polyfit(logs_v, np.log(hess_errs), 1)[0])
    summary = {
        "V_ref": v_ref,
        "median_errors": med_errs,
        "hessian_errors": hess_errs,
        "median_error_slope": med_slope,
        "hessian_error_slope": hess_slope,
    }
    return ExperimentReport(rows, summary)


# -- byzantine attack trials -----------------------------------------------------


ATTACK_KINDS = ("radial-escape", "clustered", "mirrored")


def _byzantine_task(args):
    dist, v_t, v_s, trial, seed = args
    dim = dist.dim
    trial_seed = _derived_seed(seed, 3, v_t, v_s, trial)
    rng = np.random.default_rng(np.random.SeedSequence(trial_seed))
    truthful = sample_profile(dist, v_t, _derived_seed(trial_seed, 0))
    g_t, delta, bound = _resilience(truthful, v_s)

    attack = ATTACK_KINDS[trial % len(ATTACK_KINDS)]
    if v_s == 0:
        strategic = np.empty((0, dim))
    elif attack == "radial-escape":
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        strategic = np.tile(g_t + 1e3 * max(delta, 1e-9 * truthful.scale) * u, (v_s, 1))
    elif attack == "clustered":
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        far = g_t + rng.uniform(10.0, 100.0) * max(delta, 1e-9 * truthful.scale) * u
        strategic = far + 0.1 * delta * rng.standard_normal((v_s, dim))
    else:  # mirrored
        picks = rng.integers(0, v_t, size=v_s)
        strategic = 2.0 * g_t - truthful.voters[picks]

    combined = uniform_profile(np.vstack([truthful.voters, strategic]))
    g_all = _solve_gm(combined)[0].z
    displacement = float(np.linalg.norm(g_all - g_t))
    return {
        "V_T": v_t,
        "V_S": v_s,
        "trial": trial,
        "seed": trial_seed,
        "attack": attack if v_s > 0 else "none",
        "delta": delta,
        "bound": bound,
        "displacement": displacement,
        "within_bound": bool(displacement <= bound + 1e-9 * truthful.scale),
    }


def byzantine_experiment(truthful_dist: PreferenceDistribution, v_t: int, v_s: int,
                         trials: int, seed: int, parallel: int = 1) -> ExperimentReport:
    """Adversarial placement trials against the resilience ball."""
    v_t, v_s = check_count(v_t, "V_T", 1), check_count(v_s, "V_S", 0)
    trials, seed = check_count(trials, "trials", 1), check_count(seed, "seed", 0)
    parallel = check_count(parallel, "parallel", 1)
    if v_s >= v_t:
        raise MajorityAttack("strategic voters must be a strict minority")
    tasks = [(truthful_dist, v_t, v_s, t, seed) for t in range(trials)]
    rows = _run_tasks(_byzantine_task, tasks, parallel)
    displacements = np.array([r["displacement"] for r in rows])
    summary = {
        "trials": trials,
        "all_within_bound": bool(all(r["within_bound"] for r in rows)),
        "max_displacement": float(displacements.max()),
        "max_bound": float(max(r["bound"] for r in rows)),
    }
    return ExperimentReport(rows, summary)


# -- isotropizing skew ------------------------------------------------------------


def fit_isotropizing_skew(dist: PreferenceDistribution, samples: int = 2000,
                          seed: int = 0) -> np.ndarray:
    """Diagonal skew D, geometric mean 1, that makes the skewed-loss Hessian
    D H(D) D of a pilot sample isotropic, H(D) being the loss Hessian at the
    median of the mapped voters x D.

    Fixed point from D = I: D <- diag(H(D))^(-1/2), normalized, until no
    entry moves by 1e-9 in log. At the fixed point D H D has a constant
    diagonal; every distribution kind is axis-symmetric, so H is diagonal in
    the limit and that is isotropy up to sampling noise.
    """
    voters = sample_profile(dist, check_count(samples, "samples", 1), seed).voters
    d = np.ones(dist.dim)
    for _ in range(100):
        h = _solve_gm(uniform_profile(voters * d), 1e-8)[0].hessian()
        log_new = -0.5 * np.log(np.diag(h))
        new = np.exp(log_new - log_new.mean())
        if np.max(np.abs(np.log(new / d))) < 1e-9:
            return np.diag(new)
        d = new
    raise SolverFailure("isotropizing skew fit did not settle in 100 steps")


# -- shared task runner -----------------------------------------------------------


def _run_tasks(fn, tasks, parallel):
    workers = min(parallel, len(tasks), os.cpu_count() or 1)
    # workers fork inside the pin and inherit it, so every task runs
    # OpenBLAS on one thread whatever the worker count
    with one_blas_thread():
        if workers <= 1:
            return [fn(t) for t in tasks]
        # 16 chunks a worker: ms tasks share round trips; under 16 a worker go singly
        chunk = max(1, len(tasks) // (16 * workers))
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks, chunksize=chunk))
