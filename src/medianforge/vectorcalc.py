"""Exact calculus of the Euclidean and skewed norms.

Every function here is a pure formula: it either returns the stated
derivative or raises ZeroVector at the singularity. Subgradient selection
at singular points is owned by the solvers, not by this layer.
"""

import numpy as np

from .errors import ZeroVector
from .linalg import as_matrix, as_vector

__all__ = [
    "unit_vector",
    "euclid_hessian",
    "euclid_third_derivative",
    "lp_gradient",
    "lp_norm",
    "skewed_norm",
    "skewed_gradient",
    "skewed_hessian_of_norm",
]


def _norm(a: np.ndarray, what: str) -> float:
    """||a||, where the derivative `what` of a norm at a is defined."""
    r = np.linalg.norm(a)
    if r == 0.0:
        raise ZeroVector(f"{what} is undefined at the origin")
    return r


def unit_vector(z) -> np.ndarray:
    """Gradient of the Euclidean norm: z / ||z||, a unit vector."""
    a = as_vector(z)
    return a / _norm(a, "gradient of the Euclidean norm")


def euclid_hessian(z) -> np.ndarray:
    """Hessian of the Euclidean norm: (I - u u^T) / ||z|| with u = z/||z||.

    Eigenvalue 0 along z, eigenvalue 1/||z|| on the orthogonal complement.
    """
    a = as_vector(z)
    r = _norm(a, "Hessian of the Euclidean norm")
    u = a / r
    return (np.eye(a.size) - np.outer(u, u)) / r


def euclid_third_derivative(z) -> np.ndarray:
    """Third derivative tensor of the Euclidean norm, shape (d, d, d).

    T[i, j, k] = (3 u_i u_j u_k - d_ij u_k - d_ik u_j - d_jk u_i) / ||z||^2,
    which reduces to (3u_i^3 - 3u_i)/||z||^2 on the diagonal. Fully symmetric
    by construction; every entry is bounded by 6/||z||^2.
    """
    a = as_vector(z)
    r = _norm(a, "third derivative of the Euclidean norm")
    u = a / r
    d = a.size
    t = 3.0 * np.einsum("i,j,k->ijk", u, u, u)
    eye = np.eye(d)
    t -= np.einsum("ij,k->ijk", eye, u)
    t -= np.einsum("ik,j->ijk", eye, u)
    t -= np.einsum("jk,i->ijk", eye, u)
    t /= r * r
    # Gather through sorted index triples: permuted entries are equal values
    # but float rounding differs by contraction order; make symmetry exact.
    idx = np.sort(np.stack(np.indices((d, d, d))), axis=0)
    return t[idx[0], idx[1], idx[2]]


def lp_norm(z, p: float) -> float:
    a = as_vector(z)
    if p == np.inf:
        return float(np.max(np.abs(a)))
    return float(np.sum(np.abs(a) ** p) ** (1.0 / p))


def lp_gradient(z, p: float) -> np.ndarray:
    """A chosen subgradient of the lp norm; its lq norm is 1 when z != 0.

    Tie policy: for p = 1 a zero coordinate contributes 0; for p = inf the
    full unit mass goes on the lowest-index coordinate of maximal modulus.
    """
    a = as_vector(z)
    if not (p >= 1.0):
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if p == 1.0:
        return np.sign(a)
    if p == np.inf:
        j = int(np.argmax(np.abs(a)))
        g = np.zeros_like(a)
        s = np.sign(a[j])
        g[j] = s if s != 0.0 else 1.0
        return g
    if p == 2.0:
        return unit_vector(a)
    if np.all(a == 0.0):
        raise ZeroVector(f"gradient of the l{p} norm is undefined at the origin")
    # 0-homogeneous: rescale by max|z| before exponentiating for stability.
    w = np.abs(a) / np.max(np.abs(a))
    num = np.sign(a) * w ** (p - 1.0)
    den = np.sum(w**p) ** ((p - 1.0) / p)
    return num / den


def skewed_norm(z, sigma) -> float:
    """||z||_S = ||S z||_2."""
    a = as_vector(z)
    s = as_matrix(sigma, "skew matrix", a.size)
    return float(np.linalg.norm(s @ a))


def skewed_gradient(z, sigma) -> np.ndarray:
    """Gradient of the skewed norm: S S z / ||z||_S.

    Applying S^{-1} to the result always yields a Euclidean unit vector.
    """
    a = as_vector(z)
    s = as_matrix(sigma, "skew matrix", a.size)
    sz = s @ a
    return s @ sz / _norm(sz, "gradient of the skewed norm")


def skewed_hessian_of_norm(z, sigma) -> np.ndarray:
    """Hessian of the skewed norm: S H(S z) S with H the Euclidean-norm Hessian."""
    a = as_vector(z)
    s = as_matrix(sigma, "skew matrix", a.size)
    sz = s @ a
    _norm(sz, "Hessian of the skewed norm")
    return s @ euclid_hessian(sz) @ s
