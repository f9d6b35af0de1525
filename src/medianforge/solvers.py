"""Aggregation operators: average, coordinate-wise median, geometric median.

The geometric-median solver makes one distance pass per iterate: z - voters
and its row norms give the pull of the voters, and from that one pull it
reads the minimum-norm subgradient (the stop test), the nearest voter (the
snap test), the loss and, on demand, the Hessian. The Vardi-Zhang-corrected
Weiszfeld step (safe at voter-point collisions) reuses the same z - voters.
Damped Newton takes over once the subgradient is small, so the terminal
gradient norm can be driven to ~1e-10; the Hessian of the final pass turns
it into an additive distance certificate.

An iterate crawls when its gn is over half the previous iterate's, as
Weiszfeld does toward a minimizer on or near a voter point. A crawl runs the
snap test at the nearest voter however far it is, and two crawls in a row
try Newton at any gn. A snap test reads the same from every iterate, so each
voter is tested at most once per solve and a refusal leaves the path as it
was. The loop is a function of (z, crawl count, refused voters): a state met
twice would repeat forever, so the solve fails then, not at MAX_ITERATIONS.

Newton halves a rejected step until the trial's gn falls below the current
one. Near a voter v the full step tends to cross v's kink; then each halving
z_k is first bounded without a pass: v's pull at z_k exactly, minus how far
the others' pull can move, 2 ||z_k - z|| sum_{i != v} w_i / r_i (a unit
vector moves by at most 2 delta / r), minus 64 (V + d) eps for the rounding
of two passes whose weights sum to one. A halving whose bound is >= the
current gn is skipped unevaluated, so the accepted trial keeps its bits.

A solve counts its work in its stats, each count on the line that does it:
iterations, passes, snap tests, Newton calls, and the Newton halvings evaluated
and proved rejected. The medians read iterations; tools/solve_counts.py sums all.

Consumers that need the median and the curvature there, but no certificate,
read both from the final pass of `_solve_gm`: its z, hessian() and
third_deriv(). The loss_* functions build one pass at a given point, so
loss_hessian(profile, geometric_median(profile).point) has the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtVoterPoint, SolverFailure
from .linalg import as_matrix, as_vector, check_spd, extreme_eigenvalues
from .profiles import WeightedProfile, _profile_scale

__all__ = [
    "MedianResult",
    "average",
    "coordinatewise_median",
    "loss_eval",
    "loss_gradient",
    "loss_hessian",
    "loss_third_deriv",
    "min_norm_subgradient",
    "geometric_median",
    "skewed_geometric_median",
    "skewed_loss_eval",
    "skewed_loss_gradient",
    "skewed_loss_hessian",
]

VOTER_POINT_RTOL = 1e-14
_SNAP_RTOL = 1e-5
_NEWTON_FROM = 1e-3  # subgradient norm below which damped Newton is tried
DEFAULT_TOL_GRAD = 1e-10
MAX_ITERATIONS = 20000


@dataclass(frozen=True)
class MedianResult:
    """Aggregate point plus its optimality certificate.

    additive_bound certifies ||point - exact minimizer||_2 <= bound whenever
    the local Hessian is computable and positive definite; +inf otherwise.
    For skewed solves, grad_norm is the norm of the skewed-loss (sub)gradient
    and additive_bound bounds the Euclidean distance, both in the original
    coordinates.
    """

    point: np.ndarray
    loss: float
    grad_norm: float
    additive_bound: float
    iterations: int


def average(profile: WeightedProfile) -> np.ndarray:
    """Weighted arithmetic mean."""
    return profile.weights @ profile.voters


def coordinatewise_median(profile: WeightedProfile) -> np.ndarray:
    """Per-coordinate weighted lower median.

    The lower median is the smallest value whose cumulative weight reaches
    1/2; for an even number of equal weights this picks the lower of the two
    middle values rather than their midpoint. The profile computes it once;
    each call returns a fresh copy.
    """
    return profile._cw_median.copy()


class _Pass:
    """One distance pass at z: diffs = z - voters, their row norms, and what
    the solver and its consumers read from them.

    g is the minimum-norm element of the loss subdifferential: the gradient
    away from voter points, and on one the pull of the other voters shrunk
    by the coincident weight w0 (zero once w0 outweighs it); gn is its norm
    and nearest the index of the closest voter. Away from voter points c
    holds weight / distance of every voter, which the pull, the Hessian, the
    near-voter bound and the certificate all read. On a voter point, rest
    selects the other voters, rest_c holds their weight / distance and pn is
    the norm of their pull.
    """

    def __init__(self, voters, weights, scale, z):
        self.z = z
        self.scale = scale
        self.voters = voters
        self.weights = weights
        self.diffs = z - voters
        self.dists = np.sqrt(np.einsum("ij,ij->i", self.diffs, self.diffs))
        self.nearest = self.dists.argmin()
        self.at_voter = self.dists[self.nearest] <= VOTER_POINT_RTOL * scale
        self.rest = None
        if not self.at_voter:
            self.c = weights / self.dists
            self.g = self.c @ self.diffs
        else:
            self.rest = self.dists > VOTER_POINT_RTOL * scale
            self.w0 = float(weights[~self.rest].sum())
            self.rest_c = weights[self.rest] / self.dists[self.rest]
            pull = self.rest_c @ self.diffs[self.rest]
            self.pn = math.sqrt(pull.dot(pull))
            self.g = (np.zeros(z.size) if self.pn <= self.w0
                      else pull * ((self.pn - self.w0) / self.pn))
        self.gn = math.sqrt(self.g.dot(self.g))

    @property
    def loss(self) -> float:
        return float(self.weights @ self.dists)

    def step(self) -> np.ndarray:
        """Weiszfeld point; on a voter point, its Vardi-Zhang blend with z by
        w0 / pn < 1: the solve steps only while gn > 0, so pn > w0 (else g = 0)."""
        if self.rest is None:
            # np.linalg.norm's row norms spelled out: some round one ulp off the
            # einsum norms, and the recorded stress-sweep floors depend on that.
            c = self.weights / np.sqrt(np.add.reduce(self.diffs * self.diffs, axis=1))
            return (c @ self.voters) / c.sum()
        t = (self.rest_c @ self.voters[self.rest]) / self.rest_c.sum()
        gamma = self.w0 / self.pn
        return (1.0 - gamma) * t + gamma * self.z

    def require_smooth(self):
        if self.at_voter:
            raise AtVoterPoint("evaluation point coincides with a voter's point")

    def gradient(self) -> np.ndarray:
        self.require_smooth()
        return self.g

    def hessian(self) -> np.ndarray:
        self.require_smooth()
        h = np.eye(self.z.size) * self.c.sum()
        h -= self.diffs.T @ (self.diffs * (self.c / self.dists**2)[:, None])
        return h

    def third_deriv(self) -> np.ndarray:
        self.require_smooth()
        u = self.diffs / self.dists[:, None]
        c = self.weights / self.dists**2
        t = 3.0 * np.einsum("v,vi,vj,vk->ijk", c, u, u, u)
        cu = (c[:, None] * u).sum(axis=0)
        eye = np.eye(self.z.size)
        t -= np.einsum("ij,k->ijk", eye, cu)
        t -= np.einsum("ik,j->ijk", eye, cu)
        t -= np.einsum("jk,i->ijk", eye, cu)
        return t

    def proved_worse(self, zs) -> np.ndarray:
        """Marks the rows of zs whose pass must compute gn >= self.gn (see the
        module docstring); only rows over 4e-14 * scale from every voter,
        whose pass cannot take the voter-point branch."""
        v = self.nearest
        e = zs - self.voters[v]
        rho = np.sqrt(np.einsum("ij,ij->i", e, e))
        rest_d = np.delete(self.dists, v)
        rest_sum = np.delete(self.c, v).sum()
        rest_pull = self.g - self.c[v] * self.diffs[v]
        pull = (self.weights[v] / rho)[:, None] * e + rest_pull
        step = zs - self.z
        delta = np.sqrt(np.einsum("ij,ij->i", step, step))
        slack = 64.0 * (self.weights.size + self.z.size) * np.finfo(float).eps
        lower = np.sqrt(np.einsum("ij,ij->i", pull, pull)) - 2.0 * delta * rest_sum - slack
        far = np.minimum(rho, rest_d.min() - delta) > 4.0 * VOTER_POINT_RTOL * self.scale
        return far & (lower >= self.gn)

    def additive_bound(self, tol_grad) -> float:
        """tol_grad / a lower bound on lambda_min of the loss Hessian at z;
        +inf where that fails.

        A coefficient w_i / r_i**3 of hessian() below the smallest normal
        float has lost its precision. That voter's term c_i (I - u_i u_i^T)
        has norm c_i, so subtracting c_i from lambda_min covers whatever was
        computed for it.
        """
        try:
            lam_min = float(np.linalg.eigvalsh(self.hessian())[0])
        except (AtVoterPoint, np.linalg.LinAlgError):
            return np.inf
        lam_min -= float(self.c[self.c / self.dists**2 < np.finfo(float).tiny].sum())
        return tol_grad / lam_min if lam_min > 0.0 else np.inf


def _evaluate(profile: WeightedProfile, z) -> _Pass:
    return _Pass(profile.voters, profile.weights, profile.scale, np.asarray(z, dtype=float))


def loss_eval(profile: WeightedProfile, z) -> float:
    """Weighted average of Euclidean distances to the voters."""
    return _evaluate(profile, as_vector(z, "point", profile.dim)).loss


def loss_gradient(profile: WeightedProfile, z) -> np.ndarray:
    return _evaluate(profile, as_vector(z, "point", profile.dim)).gradient()


def loss_hessian(profile: WeightedProfile, z) -> np.ndarray:
    return _evaluate(profile, as_vector(z, "point", profile.dim)).hessian()


def loss_third_deriv(profile: WeightedProfile, z) -> np.ndarray:
    return _evaluate(profile, as_vector(z, "point", profile.dim)).third_deriv()


def min_norm_subgradient(profile: WeightedProfile, z) -> np.ndarray:
    """Minimum-norm element of the loss subdifferential.

    Away from voter points this is the gradient. On a voter point, the
    coincident voters contribute a ball of radius equal to their weight, and
    the minimum-norm selection shrinks the remaining pull accordingly.
    """
    return _evaluate(profile, as_vector(z, "point", profile.dim)).g


def _newton(p: _Pass, at, stats):
    """First damped-Newton point from p whose subgradient is smaller, or None."""
    try:
        direction = np.linalg.solve(p.hessian(), p.g)
    except (AtVoterPoint, np.linalg.LinAlgError):
        return None
    # Backtrack on the gradient norm; quadratic tail convergence. Near a voter,
    # skip the halvings that proved_worse rejects without a pass.
    skip = np.zeros(40, dtype=bool)
    for k in range(40):
        if skip[k]:
            stats["newton_trials_proved"] += 1
            continue
        z = p.z - 0.5**k * direction
        if z.tobytes() == p.z.tobytes():
            # a pass at p.z reads p.gn, and rounding is monotone: every
            # shorter step lands on p.z too
            return None
        trial = at(z)
        stats["newton_trials_evaluated"] += 1
        if trial.gn < p.gn:
            return trial
        del trial  # keeps one trial's V x d diffs alive, not two
        if k == 0 and p.dists[p.nearest] <= _SNAP_RTOL * p.scale:
            skip = p.proved_worse(p.z - np.ldexp(1.0, -np.arange(40))[:, None] * direction)
    return None


def _solve_gm_raw(voters, weights, tol_grad, init):
    """Core solve on raw arrays; returns (final pass, stats), the solve's counts.

    Vardi-Zhang-corrected Weiszfeld steps, then damped Newton once the
    minimum-norm subgradient is small or two iterates in a row crawl, until
    its norm is <= tol_grad. Each accepted iterate costs one pass; only a
    rejected Newton point or a voter's failed snap test, run once per solve,
    costs another. Every median solve runs this loop, so it is where
    tol_grad is checked: inside it gn > tol_grad > 0.
    """
    if not tol_grad > 0.0:
        raise ValueError("tol_grad must be positive")
    scale = _profile_scale(voters)
    stats = dict.fromkeys(("iterations", "passes", "snap_tests", "newton_calls",
                           "newton_trials_evaluated", "newton_trials_proved"), 0)

    def at(z):
        stats["passes"] += 1
        return _Pass(voters, weights, scale, z)

    p = at(np.array(init, dtype=float))
    refused = set()  # voters whose snap test failed; a retest reads the same
    last_gn, crawls = np.inf, 0  # crawls in a row, capped at the 2 that try Newton
    seen = set()  # loop states met so far; refused only grows, so its size names it
    while p.gn > tol_grad and stats["iterations"] < MAX_ITERATIONS:
        stats["iterations"] += 1
        crawls = min(crawls + 1, 2) if p.gn > 0.5 * last_gn else 0
        last_gn = p.gn
        state = (p.z.tobytes(), crawls, len(refused))
        if state in seen:
            break  # a cycle: gn stays above tol_grad
        seen.add(state)
        if (crawls or p.dists[p.nearest] <= _SNAP_RTOL * scale) and p.nearest not in refused:
            # The minimizer may sit exactly on a voter point, which smooth
            # iterations only approach asymptotically; test the nearest one.
            snap = at(voters[p.nearest].copy())
            stats["snap_tests"] += 1
            if snap.gn <= tol_grad:
                p = snap
                break
            refused.add(p.nearest)
            del snap  # keeps its V x d diffs from living next to p's and a trial's
        if p.gn <= _NEWTON_FROM or crawls >= 2:
            stats["newton_calls"] += 1
            trial = _newton(p, at, stats)
            if trial is not None:
                p = trial
                continue
        p = at(p.step())
    if p.gn > tol_grad:
        raise SolverFailure(
            f"geometric-median solve stalled at gradient norm {p.gn:.3e} (tol {tol_grad:.1e})"
        )
    if not math.isfinite(p.loss):
        # An infinite distance reads as a zero pull, so gn certifies nothing.
        raise SolverFailure("geometric-median solve ended on a pass with a non-finite distance")
    return p, stats


def _solve_gm(profile: WeightedProfile, tol_grad=DEFAULT_TOL_GRAD, init=None):
    """Core solve from `init`, else the coordinate-wise median: (final pass, stats)."""
    if init is None:
        init = coordinatewise_median(profile)
    return _solve_gm_raw(profile.voters, profile.weights, tol_grad, init)


def geometric_median(profile: WeightedProfile, tol_grad: float = DEFAULT_TOL_GRAD,
                     init=None) -> MedianResult:
    """Geometric median with an additive-error certificate.

    Starts from the coordinate-wise median (or `init` when given) and stops
    once the minimum-norm subgradient has Euclidean norm <= tol_grad. The
    minimizer may be non-unique when profile.affine_dim <= 1; a valid one is
    still returned. The solve never reads that rank: the profile computes it
    when first read, by the CLI's degenerate_dimension or the dimension check
    of best_response.
    """
    init = None if init is None else as_vector(init, "init", profile.dim)
    final, stats = _solve_gm(profile, tol_grad, init)
    return MedianResult(
        point=final.z,
        loss=final.loss,
        grad_norm=float(final.gn),
        additive_bound=final.additive_bound(tol_grad),
        iterations=stats["iterations"],
    )


# -- skewed geometry ---------------------------------------------------------


def skewed_loss_eval(profile: WeightedProfile, sigma: np.ndarray, z) -> float:
    z = as_vector(z, "point", profile.dim)
    sigma = as_matrix(sigma, "skew matrix", profile.dim)
    diffs = (z - profile.voters) @ sigma.T
    return float(profile.weights @ np.linalg.norm(diffs, axis=1))


def skewed_loss_gradient(profile: WeightedProfile, sigma: np.ndarray, z) -> np.ndarray:
    z = as_vector(z, "point", profile.dim)
    sigma = as_matrix(sigma, "skew matrix", profile.dim)
    sdiffs = (z - profile.voters) @ sigma.T
    dists = np.linalg.norm(sdiffs, axis=1)
    if np.any(dists <= VOTER_POINT_RTOL * profile.scale):
        raise AtVoterPoint("evaluation point coincides with a voter's point")
    return sigma.T @ ((profile.weights / dists) @ sdiffs)


def skewed_loss_hessian(profile: WeightedProfile, sigma: np.ndarray, z) -> np.ndarray:
    z = as_vector(z, "point", profile.dim)
    sigma = as_matrix(sigma, "skew matrix", profile.dim)
    sdiffs = (z - profile.voters) @ sigma.T
    dists = np.linalg.norm(sdiffs, axis=1)
    if np.any(dists <= VOTER_POINT_RTOL * profile.scale):
        raise AtVoterPoint("evaluation point coincides with a voter's point")
    c = profile.weights / dists
    inner = np.eye(profile.dim) * c.sum()
    inner -= sdiffs.T @ (sdiffs * (c / dists**2)[:, None])
    return sigma.T @ inner @ sigma


def skewed_geometric_median(
    profile: WeightedProfile, sigma, tol_grad: float = DEFAULT_TOL_GRAD
) -> MedianResult:
    """Minimizer of the weighted average of skewed distances ||z - voter||_S.

    Computed as S^-1 GM(S x): the plain core solves the skewed profile
    y = S x, starting from S times the coordinate-wise median, and the
    result maps back through S^-1. The skewed-loss gradient at z is S g_y,
    so the core stops at ||g_y|| <= tol_grad / lambda_max(S), and its
    certificate on ||S z - S z*|| divided by lambda_min(S) bounds ||z - z*||.
    """
    s = check_spd(sigma, "skew matrix", profile.dim)
    voters, weights = profile.voters, profile.weights
    lam_min, lam_max = extreme_eigenvalues(s)
    tol_y = tol_grad / lam_max
    # The rows keep the profile's canonical order, so the solve stays
    # exactly invariant under permutation of the input.
    y = voters @ s.T
    init = s @ coordinatewise_median(profile)
    final, stats = _solve_gm_raw(y, weights, tol_y, init)
    return MedianResult(
        point=np.linalg.solve(s, final.z),
        loss=final.loss,
        grad_norm=float(np.linalg.norm(s @ final.g)),
        additive_bound=final.additive_bound(tol_y) / lam_min,
        iterations=stats["iterations"],
    )
