"""Aggregation operators: average, coordinate-wise median, geometric median.

The geometric-median solver runs a Vardi-Zhang-corrected Weiszfeld iteration
(safe at voter-point collisions) and hands over to damped Newton once the
gradient is small, so the terminal gradient norm can be driven to ~1e-10 and
converted into an additive distance certificate via the local Hessian.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AtVoterPoint, DimensionMismatch, SolverFailure
from .linalg import check_spd, extreme_eigenvalues
from .profiles import WeightedProfile, affine_dimension

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
    degenerate: bool = False


def _profile_scale(voters: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(voters))))


def _scale_of(profile: WeightedProfile) -> float:
    s = getattr(profile, "scale", None)
    return s if s is not None else _profile_scale(profile.voters)


def average(profile: WeightedProfile) -> np.ndarray:
    """Weighted arithmetic mean."""
    return profile.weights @ profile.voters


def coordinatewise_median(profile: WeightedProfile) -> np.ndarray:
    """Per-coordinate weighted lower median.

    The lower median is the smallest value whose cumulative weight reaches
    1/2; for an even number of equal weights this picks the lower of the two
    middle values rather than their midpoint.
    """
    voters, weights = profile.voters, profile.weights
    out = np.empty(profile.dim)
    for j in range(profile.dim):
        order = np.argsort(voters[:, j], kind="stable")
        cum = np.cumsum(weights[order])
        idx = int(np.searchsorted(cum, 0.5 - 1e-12))
        out[j] = voters[order[idx], j]
    return out


def _coincident_mask(dists: np.ndarray, scale: float) -> np.ndarray:
    return dists <= VOTER_POINT_RTOL * scale


def _row_dists(voters, z):
    diffs = z - voters
    return diffs, np.sqrt(np.einsum("ij,ij->i", diffs, diffs))


def _grad_raw(voters, weights, scale, z):
    diffs, dists = _row_dists(voters, z)
    if dists.min() <= VOTER_POINT_RTOL * scale:
        raise AtVoterPoint("evaluation point coincides with a voter's point")
    return (weights / dists) @ diffs


def _hessian_raw(voters, weights, scale, z):
    diffs, dists = _row_dists(voters, z)
    if dists.min() <= VOTER_POINT_RTOL * scale:
        raise AtVoterPoint("evaluation point coincides with a voter's point")
    c = weights / dists
    h = np.eye(voters.shape[1]) * c.sum()
    h -= diffs.T @ (diffs * (c / dists**2)[:, None])
    return h


def _min_norm_subgradient_raw(voters, weights, scale, z):
    diffs, dists = _row_dists(voters, z)
    if dists.min() > VOTER_POINT_RTOL * scale:
        return (weights / dists) @ diffs
    mask = _coincident_mask(dists, scale)
    w0 = float(weights[mask].sum())
    rest = ~mask
    if not np.any(rest):
        return np.zeros(voters.shape[1])
    g = (weights[rest] / dists[rest]) @ diffs[rest]
    gn = np.linalg.norm(g)
    if gn <= w0:
        return np.zeros(voters.shape[1])
    return g * ((gn - w0) / gn)


def loss_eval(profile: WeightedProfile, z) -> float:
    """Weighted average of Euclidean distances to the voters."""
    z = np.asarray(z, dtype=float)
    return float(profile.weights @ np.linalg.norm(z - profile.voters, axis=1))


def loss_gradient(profile: WeightedProfile, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return _grad_raw(profile.voters, profile.weights, _scale_of(profile), z)


def loss_hessian(profile: WeightedProfile, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return _hessian_raw(profile.voters, profile.weights, _scale_of(profile), z)


def loss_third_deriv(profile: WeightedProfile, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    diffs = z - profile.voters
    dists = np.linalg.norm(diffs, axis=1)
    if np.any(_coincident_mask(dists, _scale_of(profile))):
        raise AtVoterPoint("evaluation point coincides with a voter's point")
    u = diffs / dists[:, None]
    c = profile.weights / dists**2
    t = 3.0 * np.einsum("v,vi,vj,vk->ijk", c, u, u, u)
    cu = (c[:, None] * u).sum(axis=0)
    eye = np.eye(profile.dim)
    t -= np.einsum("ij,k->ijk", eye, cu)
    t -= np.einsum("ik,j->ijk", eye, cu)
    t -= np.einsum("jk,i->ijk", eye, cu)
    return t


def min_norm_subgradient(profile: WeightedProfile, z) -> np.ndarray:
    """Minimum-norm element of the loss subdifferential.

    Away from voter points this is the gradient. On a voter point, the
    coincident voters contribute a ball of radius equal to their weight, and
    the minimum-norm selection shrinks the remaining pull accordingly.
    """
    z = np.asarray(z, dtype=float)
    return _min_norm_subgradient_raw(
        profile.voters, profile.weights, _scale_of(profile), z
    )


def _weiszfeld_step(voters, weights, y, scale):
    diffs = voters - y
    dists = np.linalg.norm(diffs, axis=1)
    mask = dists <= VOTER_POINT_RTOL * scale
    if not np.any(mask):
        c = weights / dists
        return (c @ voters) / c.sum()
    # Vardi-Zhang correction: treat the collided point as an anchor and move
    # only if the residual pull of the other voters exceeds its weight.
    w0 = float(weights[mask].sum())
    rest = ~mask
    if not np.any(rest):
        return y
    c = weights[rest] / dists[rest]
    pull = c @ diffs[rest]
    pull_norm = np.linalg.norm(pull)
    if pull_norm <= w0:
        return y
    t = (c @ voters[rest]) / c.sum()
    gamma = min(1.0, w0 / pull_norm)
    return (1.0 - gamma) * t + gamma * y


def _additive_bound(voters, weights, scale, z, tol_grad) -> float:
    """tol_grad / lambda_min of the loss Hessian at z; +inf where that fails."""
    try:
        lam_min = float(np.linalg.eigvalsh(_hessian_raw(voters, weights, scale, z))[0])
    except (AtVoterPoint, np.linalg.LinAlgError):
        return np.inf
    return tol_grad / lam_min if lam_min > 0.0 else np.inf


def _solve_gm_raw(voters, weights, tol_grad, init=None):
    """Core solve on raw arrays; returns (point, grad_norm, iterations).

    Vardi-Zhang-corrected Weiszfeld steps, then damped Newton once the
    minimum-norm subgradient is small, until its norm is <= tol_grad.
    """
    scale = _profile_scale(voters)
    if init is None:
        init = weights @ voters
    z = np.array(init, dtype=float)
    newton_from = max(tol_grad, 1e-3)
    iterations = 0
    g = _min_norm_subgradient_raw(voters, weights, scale, z)
    gn = np.linalg.norm(g)

    while gn > tol_grad and iterations < MAX_ITERATIONS:
        if np.min(np.linalg.norm(voters - z, axis=1)) <= 1e-5 * scale:
            # The minimizer may sit exactly on a voter point, which smooth
            # iterations only approach asymptotically; test the nearest one.
            candidate = voters[int(np.argmin(np.linalg.norm(voters - z, axis=1)))]
            g_c = _min_norm_subgradient_raw(voters, weights, scale, candidate)
            gn_c = np.linalg.norm(g_c)
            if gn_c <= tol_grad:
                z, gn = candidate.copy(), gn_c
                iterations += 1
                break
        if gn <= newton_from:
            z_new = None
            try:
                h = _hessian_raw(voters, weights, scale, z)
                direction = np.linalg.solve(h, g)
                # Backtrack on the gradient norm; quadratic tail convergence.
                t = 1.0
                for _ in range(40):
                    cand = z - t * direction
                    gc = _min_norm_subgradient_raw(voters, weights, scale, cand)
                    if np.linalg.norm(gc) < gn:
                        z_new, g, gn = cand, gc, np.linalg.norm(gc)
                        break
                    t *= 0.5
            except (AtVoterPoint, np.linalg.LinAlgError):
                z_new = None
            if z_new is not None:
                z = z_new
                iterations += 1
                continue
        z = _weiszfeld_step(voters, weights, z, scale)
        g = _min_norm_subgradient_raw(voters, weights, scale, z)
        gn = np.linalg.norm(g)
        iterations += 1
    if gn > tol_grad:
        raise SolverFailure(
            f"geometric-median solve stalled at gradient norm {gn:.3e} (tol {tol_grad:.1e})"
        )
    return z, gn, iterations


def geometric_median(profile: WeightedProfile, tol_grad: float = DEFAULT_TOL_GRAD,
                     init=None) -> MedianResult:
    """Geometric median with an additive-error certificate.

    Starts from the coordinate-wise median (or `init` when given) and stops
    once the minimum-norm subgradient has Euclidean norm <= tol_grad. If the
    profile spans an affine space of dimension <= 1 the minimizer may be
    non-unique; a valid minimizer is still returned, flagged degenerate.
    """
    if not tol_grad > 0.0:
        raise ValueError("tol_grad must be positive")
    voters, weights = profile.voters, profile.weights
    degenerate = affine_dimension(voters) <= 1
    if init is None:
        init = coordinatewise_median(profile)
    z, gn, iterations = _solve_gm_raw(voters, weights, tol_grad, init)
    return MedianResult(
        point=z,
        loss=loss_eval(profile, z),
        grad_norm=float(gn),
        additive_bound=_additive_bound(voters, weights, _scale_of(profile), z, tol_grad),
        iterations=iterations,
        degenerate=degenerate,
    )


# -- skewed geometry ---------------------------------------------------------


def skewed_loss_eval(profile: WeightedProfile, sigma: np.ndarray, z) -> float:
    z = np.asarray(z, dtype=float)
    diffs = (z - profile.voters) @ sigma.T
    return float(profile.weights @ np.linalg.norm(diffs, axis=1))


def skewed_loss_gradient(profile: WeightedProfile, sigma: np.ndarray, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    sdiffs = (z - profile.voters) @ sigma.T
    dists = np.linalg.norm(sdiffs, axis=1)
    if np.any(dists <= VOTER_POINT_RTOL * _scale_of(profile)):
        raise AtVoterPoint("evaluation point coincides with a voter's point")
    return sigma.T @ ((profile.weights / dists) @ sdiffs)


def skewed_loss_hessian(profile: WeightedProfile, sigma: np.ndarray, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    sdiffs = (z - profile.voters) @ sigma.T
    dists = np.linalg.norm(sdiffs, axis=1)
    if np.any(dists <= VOTER_POINT_RTOL * _scale_of(profile)):
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
    if not tol_grad > 0.0:
        raise ValueError("tol_grad must be positive")
    s = check_spd(sigma, "skew matrix")
    if s.shape[0] != profile.dim:
        raise DimensionMismatch("skew matrix dimension does not match the profile")
    voters, weights = profile.voters, profile.weights
    degenerate = affine_dimension(voters) <= 1
    lam_min, lam_max = extreme_eigenvalues(s)
    tol_y = tol_grad / lam_max
    # The rows keep the profile's canonical order, so the solve stays
    # exactly invariant under permutation of the input.
    y = voters @ s.T
    init = s @ coordinatewise_median(profile)
    z_y, _, iterations = _solve_gm_raw(y, weights, tol_y, init=init)
    scale = _profile_scale(y)
    g_y = _min_norm_subgradient_raw(y, weights, scale, z_y)
    return MedianResult(
        point=np.linalg.solve(s, z_y),
        loss=float(weights @ np.linalg.norm(y - z_y, axis=1)),
        grad_norm=float(np.linalg.norm(s @ g_y)),
        additive_bound=_additive_bound(y, weights, scale, z_y, tol_y) / lam_min,
        iterations=iterations,
        degenerate=degenerate,
    )
