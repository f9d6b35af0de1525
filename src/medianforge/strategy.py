"""Manipulability analysis: skewness, achievable set, best responses, bounds.

Reported strategic gains are empirical: the optimizers search over strategic
votes, so every gain is a lower bound on the true worst case over all votes
and preference placements. scipy.optimize is imported by the searches that
call it, so importing this module loads no part of scipy.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtVoterPoint,
    BracketFailure,
    DegenerateDimension,
    MajorityAttack,
    NotSPD,
    SolverFailure,
    ZeroVector,
    check_count,
    check_number,
)
from .linalg import as_vector, check_spd, extreme_eigenvalues
from .profiles import (VoterProfile, WeightedProfile, _profile_scale, _validate_points,
                       uniform_profile)
from .solvers import (
    MedianResult,
    _evaluate,
    _solve_gm,
    _solve_gm_raw,
    geometric_median,
    loss_gradient,
    min_norm_subgradient,
)

__all__ = [
    "SkewnessReport",
    "skewness",
    "numeric_skewness",
    "hessian_at_median",
    "achievable_contains",
    "boundary_point",
    "StrategyReport",
    "best_response",
    "ConditionReport",
    "condition_checker",
    "byzantine_bound",
    "hull_distance",
    "NoShoeReport",
    "no_shoe_check",
]


# -- skewness functional ------------------------------------------------------


@dataclass(frozen=True)
class SkewnessReport:
    """Skewness value with the eigenvalue-ratio bounds that bracket it."""

    value: float
    lambda_min: float
    lambda_max: float
    lower_bound: float
    upper_bound: float
    certified: bool


def skewness(s) -> SkewnessReport:
    """Worst-case angle penalty sup ||x|| ||Sx|| / (x^T S x) - 1 over x != 0.

    Closed form: in eigencoordinates the squared objective is a ratio of the
    second to squared first moment of the eigenvalues under weights x_i^2 on
    the simplex. For a fixed first moment the second moment is maximized by
    a two-point mixture of the extreme eigenvalues, so the supremum is
    (lmin + lmax) / (2 sqrt(lmin lmax)) - 1 in every dimension.
    """
    a = check_spd(s)
    lam_min, lam_max = extreme_eigenvalues(a)
    if lam_min <= 0.0:
        raise NotSPD("matrix is not positive definite")
    ratio = lam_max / lam_min
    # the closed form coincides with the lower bound, which is attained
    value = float((1.0 + ratio) / (2.0 * np.sqrt(ratio)) - 1.0)
    return SkewnessReport(
        value=value,
        lambda_min=lam_min,
        lambda_max=lam_max,
        lower_bound=value,
        upper_bound=float(ratio - 1.0),
        certified=True,
    )


def _sphere_objective(a, x):
    """||x|| ||Ax|| / (x^T A x), the ratio whose supremum less 1 is Skew(A)."""
    ax = a @ x
    return np.linalg.norm(x) * np.linalg.norm(ax) / (x @ ax)


def numeric_skewness(s, seed: int = 0) -> float:
    """Sphere oracle: multi-start projected-gradient ascent of ||Sx||/(x^T S x).

    Independent of the closed form; used to cross-validate it.
    """
    a = check_spd(s)
    d = a.shape[0]
    rng = np.random.default_rng(check_count(seed, "seed", 0))

    def ascend(x):
        x = x / np.linalg.norm(x)
        step = 0.5
        f = _sphere_objective(a, x)
        for _ in range(400):
            sx = a @ x
            nsx = np.linalg.norm(sx)
            quad = x @ sx
            # gradient of log f on the unit sphere
            grad = (a @ sx) / nsx**2 - 2.0 * sx / quad + x
            grad -= (grad @ x) * x
            if np.linalg.norm(grad) < 1e-14:
                break
            cand = x + step * grad
            cand /= np.linalg.norm(cand)
            fc = _sphere_objective(a, cand)
            if fc > f:
                x, f = cand, fc
                step = min(step * 1.3, 4.0)
            else:
                step *= 0.5
                if step < 1e-16:
                    break
        return f

    best = 0.0
    inits = [rng.standard_normal(d) for _ in range(64)]
    inits.extend(np.eye(d))
    for x0 in inits:
        best = max(best, ascend(x0))
    return float(best - 1.0)


# -- achievable set -----------------------------------------------------------


def _unit_forces(profile: WeightedProfile) -> None:
    """Refuse unequal weights: the strategic analysis counts each voter as one unit force."""
    if not np.all(profile.weights == profile.weights[0]):
        raise ValueError("one voter, one unit force: the profile's weights are not all equal")


def _spans_plane(profile: WeightedProfile, needs="best response needs an honest profile"):
    """Refuse a profile whose voters span an affine dimension below 2."""
    if profile.affine_dim < 2:
        raise DegenerateDimension(f"{needs} of dimension >= 2")


def achievable_contains(honest: VoterProfile, z) -> bool:
    """Whether a single strategic voter can turn z into the geometric median:
    the honest-loss gradient (minimum-norm subgradient on voter points) has
    Euclidean norm at most 1/V. An absolute slack of 1e-9 admits medians
    computed to a gradient tolerance, which sit that close to the boundary."""
    _unit_forces(honest)
    return bool(np.linalg.norm(min_norm_subgradient(honest, z)) <= 1.0 / honest.count + 1e-9)


def _excess(profile: WeightedProfile, z) -> float:
    """Loss-gradient norm at z less 1/V: z is in the achievable set iff it is <= 0."""
    return _evaluate(profile, z).gn - 1.0 / profile.count


def _pull_inside(profile: WeightedProfile, g, z) -> np.ndarray:
    """z if it is in the achievable set; else the last point found inside from g to z."""
    if _excess(profile, z) <= 0.0:
        return z
    ray = z - g
    return g + _last_inside(lambda t: _excess(profile, g + t * ray), 100) * ray


def _last_inside(excess, steps):
    """Largest t in [0, 1] that bisection finds with excess(t) <= 0, given
    excess(0) <= 0; stops once lo and hi are adjacent floats, or after steps
    steps."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if excess(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def boundary_point(honest: WeightedProfile, center, direction) -> np.ndarray:
    """Point along center + t * direction where the loss-gradient norm hits 1/V.

    Brent root finding on the ray parameter, from a center inside the
    achievable set. The bracket starts at t = twice the farthest voter's
    distance (1 when every voter sits at the center), so it and Brent's
    tolerance follow the profile's scale, and doubles; BracketFailure after
    60 doublings, or when the center and the first bracket end are outside.
    """
    from scipy import optimize

    center = as_vector(center, "center", honest.dim)
    u = as_vector(direction, "direction", honest.dim)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(u)
    if not 0.0 < norm < np.inf:  # u is zero, or u . u left the floats
        top = np.max(np.abs(u))
        if top == 0.0:
            raise ZeroVector(f"direction {u.tolist()} is zero")
        u = u / top
        norm = np.linalg.norm(u)
    u = u / norm

    def excess(t):
        return _excess(honest, center + t * u)

    spread = float(np.max(np.linalg.norm(honest.voters - center, axis=1)))
    lo, hi = 0.0, 2.0 * spread or 1.0
    f_hi = excess(hi)
    grow = 0
    while f_hi <= 0.0 and grow < 60:
        lo, hi = hi, hi * 2.0
        f_hi = excess(hi)
        grow += 1
    if f_hi <= 0.0:
        raise BracketFailure("could not bracket the achievable-set boundary")
    try:
        root = optimize.brentq(excess, lo, hi, xtol=1e-15 * hi, rtol=8.9e-16)
    except ValueError:  # the same sign at both ends: lo is 0, as any lo > 0 reads <= 0
        raise BracketFailure(f"center {center.tolist()} is outside the achievable set") from None
    # land on the inside of the set
    t = root
    for _ in range(60):
        if excess(t) <= 0.0:
            break
        t = lo + (t - lo) * (1.0 - 1e-12)
    return center + t * u


# -- best response ------------------------------------------------------------


@dataclass(frozen=True)
class StrategyReport:
    """Outcome of a strategic-vote search under a chosen preference norm.

    gain_alpha is empirical (a lower bound on the worst case): it compares
    the truthful result against the best strategic vote found. The
    manipulated_* certificates are those of the solve that gave
    manipulated_median.
    """

    theta0: np.ndarray
    truthful_median: np.ndarray
    strategic_vote: np.ndarray
    manipulated_median: np.ndarray
    manipulated_grad_norm: float
    manipulated_additive_bound: float
    truthful_dist: float
    strategic_dist: float
    gain_alpha: float
    exact_capture: bool = False
    candidates: dict = field(default_factory=dict)


def _pref_dist(x, y, s):
    return float(np.linalg.norm(s @ (np.asarray(x) - np.asarray(y))))


def _median_with_vote(honest_voters: np.ndarray, vote: np.ndarray, init) -> MedianResult:
    return geometric_median(uniform_profile(np.vstack([honest_voters, vote[None, :]])), init=init)


def _projection_response(theta0, honest, s, g_honest, rng):
    """Minimize ||z - theta0||_S subject to ||grad L_honest(z)||_2 <= 1/V.

    Exterior penalty with continuation in mu, multi-started from the honest
    median and from boundary crossings of rays toward (and around) theta0.
    At finite voter counts the constraint set can be nonconvex, so each
    candidate is pulled back onto the boundary and polished by sliding along
    it in the direction that shrinks the skewed distance.
    """
    from scipy import optimize

    d = theta0.size
    ss = s @ s
    radius = 1.0 / honest.count

    def penalized(z, mu):
        p = _evaluate(honest, z)
        try:
            grad_l, h = p.gradient(), p.hessian()
        except AtVoterPoint:
            return np.inf, np.zeros(d)
        n = np.linalg.norm(grad_l)
        diff = z - theta0
        dist = np.linalg.norm(s @ diff)
        val = dist + mu * max(0.0, n - radius) ** 2
        grad = ss @ diff / dist if dist > 1e-300 else np.zeros(d)
        if n > radius:
            grad = grad + mu * 2.0 * (n - radius) * (h @ grad_l) / n
        return val, grad

    def slide(z):
        # descend the skewed distance along the constraint boundary
        dist = _pref_dist(z, theta0, s)
        step = 0.5
        for _ in range(25):
            p = _evaluate(honest, z)
            try:
                grad_l = p.gradient()
                normal = p.hessian() @ grad_l
            except AtVoterPoint:
                break
            nn = np.linalg.norm(normal)
            if nn == 0.0 or dist == 0.0:
                break
            normal /= nn
            dgrad = ss @ (z - theta0) / dist
            tangent = dgrad - (dgrad @ normal) * normal
            tn = np.linalg.norm(tangent)
            if tn <= 1e-14:
                break
            improved = False
            while step > 1e-12:
                cand = z - step * dist * tangent / tn
                try:
                    cand = boundary_point(honest, g_honest, cand - g_honest)
                except BracketFailure:
                    break
                cand_dist = _pref_dist(cand, theta0, s)
                if cand_dist < dist:
                    z, dist = cand, cand_dist
                    step = min(step * 1.5, 1.0)
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        return z

    if _excess(honest, theta0) <= 0.0:
        return theta0.copy()

    starts = [g_honest]
    base_dir = theta0 - g_honest
    base_norm = np.linalg.norm(base_dir)
    directions = []
    if base_norm > 1e-300:
        directions.append(base_dir / base_norm)
        for _ in range(3):
            bump = directions[0] + 0.6 * rng.standard_normal(d)
            directions.append(bump / np.linalg.norm(bump))
    for u in directions:
        try:
            starts.append(boundary_point(honest, g_honest, u))
        except BracketFailure:
            continue

    best = None
    for x0 in starts:
        z = x0.copy()
        for mu in (1e2, 1e5, 1e8):
            res = optimize.minimize(
                lambda v: penalized(v, mu),
                z,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": 150, "ftol": 1e-16, "gtol": 1e-12},
            )
            z = res.x
        z = slide(_pull_inside(honest, g_honest, z))
        z = _pull_inside(honest, g_honest, z)
        d_here = _pref_dist(z, theta0, s)
        if best is None or d_here < best[1]:
            best = (z, d_here)
    return best[0]


def _blackbox_response(theta0, honest, s, seeds, restarts, rng, g_honest):
    """Nelder-Mead simplex search over the strategic vote itself.

    Median solves are warm-started from the previous evaluation; the median
    moves only within a small neighborhood as the vote varies, so each
    evaluation takes a handful of Newton steps. A vote whose median cannot
    be solved to 1e-8 scores +inf, so one such vote does not end the search.
    """
    from scipy import optimize

    d = theta0.size
    v1 = honest.count + 1
    stacked = np.vstack([honest.voters, np.zeros((1, d))])
    weights = np.full(v1, 1.0 / v1)
    warm = {"z": g_honest.copy()}

    def objective(vote):
        stacked[-1] = vote
        # the winning vote is re-solved at full precision by the caller
        try:
            z = _solve_gm_raw(stacked, weights, 1e-8, warm["z"])[0].z
        except SolverFailure:
            return np.inf
        warm["z"] = z
        return _pref_dist(z, theta0, s)

    starts = list(seeds)
    while len(starts) < restarts:
        base = seeds[len(starts) % len(seeds)]
        starts.append(base + 0.05 * honest.scale * rng.standard_normal(d))
    best_vote, best_val = None, np.inf
    for x0 in starts[:restarts]:
        res = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": 80 * d,
                "xatol": 1e-10 * honest.scale,
                "fatol": 1e-12,
                "adaptive": True,
            },
        )
        if res.fun < best_val:
            best_vote, best_val = res.x, res.fun
    return best_vote


def best_response(theta0, honest: VoterProfile, s=None, restarts: int = 5,
                  seed: int = 0, extra_votes=None) -> StrategyReport:
    """Search for the strategic vote minimizing the skewed distance of the
    manipulated median to theta0, via two cross-checked paths.

    Path (a) projects theta0 onto the achievable set (valid strategic votes
    are fixed points of the median); path (b) runs derivative-free search
    over the vote evaluating the true median. extra_votes are evaluated as
    additional candidates and seed the search. The best candidate wins;
    ties break lexicographically on the vote.
    """
    restarts, seed = check_count(restarts, "restarts", 1), check_count(seed, "seed", 0)
    _unit_forces(honest)
    theta0 = as_vector(theta0, "theta0", honest.dim)
    extra_seeds = [as_vector(v, f"extra vote {i}", honest.dim)
                   for i, v in enumerate(extra_votes or [])]
    _spans_plane(honest)
    s_mat = np.eye(honest.dim) if s is None else check_spd(s, "preference matrix", honest.dim)
    rng = np.random.default_rng(seed)

    g_honest = _solve_gm(honest)[0].z
    with np.errstate(over="ignore"):
        far = not np.isfinite(_pref_dist(g_honest, theta0, s_mat))
    if far:
        raise ValueError(f"theta0 {theta0.tolist()} is too far from the honest median: "
                         "its preference distance overflows")
    candidates: dict[str, tuple[np.ndarray, MedianResult, float]] = {}

    def add(name, vote):
        med = _median_with_vote(honest.voters, vote, g_honest)
        candidates[name] = (vote, med, _pref_dist(med.point, theta0, s_mat))

    add("truthful", theta0)
    _, truthful, truthful_dist = candidates["truthful"]

    exact_capture = achievable_contains(honest, theta0)

    for i, vote in enumerate(extra_seeds):
        add(f"extra_{i}", vote)

    rng_proj = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    proj_vote = _projection_response(theta0, honest, s_mat, g_honest, rng_proj)
    add("projection", proj_vote)

    nm_seeds = extra_seeds + [theta0, proj_vote, g_honest]
    nm_vote = _blackbox_response(theta0, honest, s_mat, nm_seeds, restarts, rng, g_honest)
    add("blackbox", nm_vote)

    def rank(item):
        vote, _, dist = item[1]
        return (dist, tuple(vote))

    _, (vote, median, dist) = min(candidates.items(), key=rank)
    if dist == 0.0:
        gain = np.inf if truthful_dist > 0.0 else 0.0
    else:
        gain = truthful_dist / dist - 1.0
    return StrategyReport(
        theta0=theta0,
        truthful_median=truthful.point,
        strategic_vote=vote,
        manipulated_median=median.point,
        manipulated_grad_norm=median.grad_norm,
        manipulated_additive_bound=median.additive_bound,
        truthful_dist=truthful_dist,
        strategic_dist=dist,
        gain_alpha=float(gain),
        exact_capture=exact_capture,
        candidates={k: {"vote": v[0], "median": v[1].point, "dist": v[2]}
                    for k, v in candidates.items()},
    )


# -- curvature condition checker ----------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Sampled evaluation of the four sufficient conditions for bounded gain.

    Conditions: (1) smoothness, no voter within 2*beta of the median;
    (2) the achievable set fits in the beta ball, checked on a direction
    shell; (3) convexity of the squared gradient norm on the ball; (4) the
    sampled-Hessian skewness bound alpha.
    """

    beta: float
    smooth_ok: bool
    min_voter_distance: float
    containment_ok: bool
    min_shell_slope: float
    convexity_ok: bool
    min_curvature_eig: float
    skew_ok: bool
    alpha: float
    worst_points: dict

    @property
    def all_ok(self) -> bool:
        return self.smooth_ok and self.containment_ok and self.convexity_ok and self.skew_ok


def condition_checker(honest: VoterProfile, beta: float, seed: int = 0) -> ConditionReport:
    beta, seed = check_number(beta, "beta"), check_count(seed, "seed", 0)
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    _unit_forces(honest)
    d = honest.dim
    rng = np.random.default_rng(seed)
    g = _solve_gm(honest)[0].z

    min_dist = float(np.linalg.norm(honest.voters - g, axis=1).min())
    smooth_ok = min_dist > 2.0 * beta
    skew_ok = True  # cleared by a sampled Hessian that is not SPD
    worst: dict[str, np.ndarray] = {}

    def sphere(n):
        x = rng.standard_normal((n, d))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    min_slope, min_curv, max_skew = np.nan, np.inf, 0.0
    if smooth_ok:
        min_slope = np.inf
        for u in sphere(64 * d):
            slope = float(u @ loss_gradient(honest, g + beta * u))
            if slope < min_slope:
                min_slope = slope
                worst["containment"] = g + beta * u
        try:
            for u, r in zip(sphere(256), beta * rng.random(256) ** (1.0 / d)):
                z = g + r * u
                p = _evaluate(honest, z)
                grad, hess, third = p.gradient(), p.hessian(), p.third_deriv()
                m = hess @ hess + third @ grad
                eig = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
                if eig < min_curv:
                    min_curv = eig
                    worst["curvature"] = z
                try:
                    sk = skewness(hess).value
                except NotSPD:
                    skew_ok = False
                    worst["skew"] = z
                    continue
                if sk > max_skew:
                    max_skew = sk
                    worst["skew"] = z
        except AtVoterPoint:
            # a voter inside the sampling ball contradicts condition 1
            smooth_ok = False

    return ConditionReport(
        beta=beta,
        smooth_ok=smooth_ok,
        min_voter_distance=min_dist,
        containment_ok=min_slope > 1.0 / honest.count,
        min_shell_slope=float(min_slope),
        convexity_ok=smooth_ok and min_curv > 0.0,
        min_curvature_eig=float(min_curv) if np.isfinite(min_curv) else np.nan,
        skew_ok=smooth_ok and skew_ok,
        alpha=float(max_skew),
        worst_points=worst,
    )


# -- resilience and impossibility ----------------------------------------------


def hessian_at_median(profile: VoterProfile) -> np.ndarray:
    """Loss Hessian at the computed geometric median (finite-voter estimate
    of the limiting Hessian)."""
    _spans_plane(profile, "Hessian estimate needs a profile")
    return check_spd(_solve_gm(profile)[0].hessian(), "Hessian at the median")


def _resilience(truthful: VoterProfile, num_strategic: int):
    """(g, delta, radius): truthful median, max_t ||theta_t - g||, delta / sqrt(1 - (S/T)^2)."""
    g = _solve_gm(truthful)[0].z
    delta = float(np.max(np.linalg.norm(truthful.voters - g, axis=1)))
    rho = num_strategic / truthful.count
    return g, delta, delta / float(np.sqrt(1.0 - rho * rho))


def byzantine_bound(truthful: VoterProfile, num_strategic: int) -> float:
    """Radius of the ball around the truthful median that no coalition of
    num_strategic extra voters can push the geometric median out of:
    (1 - (S/T)^2)^(-1/2) * max_t ||theta_t - Gm(truthful)||.
    """
    num_strategic = check_count(num_strategic, "num_strategic", 0)
    if num_strategic >= truthful.count:
        raise MajorityAttack(f"{num_strategic} strategic vs {truthful.count} truthful voters: "
                             "bound is vacuous")
    _unit_forces(truthful)
    return _resilience(truthful, num_strategic)[2]


def hull_distance(points, z) -> float:
    """Euclidean distance from z to the convex hull of the points, by one
    nonnegative least-squares solve (Lawson and Hanson, Solving Least Squares
    Problems, ch. 23).

    With q_i = (x_i - z) / s and s = max |x_i - z| (1 if all are 0), the
    solve finds lam >= 0 minimizing ||Q^T lam||^2 + (sum(lam) - 1)^2. Write
    lam = t w with w on the simplex: the residual is t^2 r^2 + (t - 1)^2
    with r = ||Q^T w||, and its minimum over t, r^2 / (1 + r^2), grows with
    r. So w = lam / sum(lam) weights the hull point nearest z, at distance
    s ||Q^T lam|| / sum(lam). sum(lam) > 0, because a small t > 0 leaves a
    residual below 1, the residual of lam = 0.
    """
    from scipy import optimize

    points = _validate_points(points)
    diff = points - as_vector(z, "point", points.shape[1])
    s = _profile_scale(diff)
    a = np.ones((diff.shape[1] + 1, diff.shape[0]))
    np.divide(diff.T, s, out=a[:-1])
    e_last = np.zeros(a.shape[0])
    e_last[-1] = 1.0
    try:
        lam, _ = optimize.nnls(a, e_last)
    except RuntimeError as exc:
        raise SolverFailure(f"hull distance NNLS failed: {exc}") from None
    return float(s * np.linalg.norm(a[:-1] @ lam) / lam.sum())


@dataclass(frozen=True)
class NoShoeReport:
    """Residual skewness when the aggregate is tuned for one voter's norm."""

    incompatible: bool
    skew_value: float
    report: SkewnessReport


def no_shoe_check(s_v, s_w) -> NoShoeReport:
    """Tune the limiting Hessian to voter v (H proportional to Sv^2 is the
    unique choice zeroing their skewness) and report voter w's leftover
    skewness Skew(Sw^-1 Sv^2 Sw^-1); positive iff Sv, Sw are not proportional.
    """
    a = check_spd(s_v, "first preference matrix")
    b = check_spd(s_w, "second preference matrix", a.shape[0])
    b_inv = np.linalg.inv(b)
    m = b_inv @ a @ a @ b_inv
    rep = skewness(0.5 * (m + m.T))
    return NoShoeReport(incompatible=rep.value > 1e-9, skew_value=rep.value, report=rep)
