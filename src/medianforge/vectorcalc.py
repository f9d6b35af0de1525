"""The lp norms and their subgradients.

The derivatives of the Euclidean norm ||z|| and of the skewed norm ||S z||
are the loss derivatives in `solvers` of the one-voter profile at the
origin, o = uniform_profile(np.zeros((1, d))): loss_gradient(o, z),
loss_hessian(o, z) and loss_third_deriv(o, z); skewed_loss_eval(o, S, z),
skewed_loss_gradient(o, S, z) and skewed_loss_hessian(o, S, z).
"""

import numpy as np

from .errors import ZeroVector
from .linalg import as_vector

__all__ = ["lp_gradient", "lp_norm"]


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
        r = np.linalg.norm(a)
        if r == 0.0:
            raise ZeroVector("gradient of the Euclidean norm is undefined at the origin")
        return a / r
    if np.all(a == 0.0):
        raise ZeroVector(f"gradient of the l{p} norm is undefined at the origin")
    # 0-homogeneous: rescale by max|z| before exponentiating for stability.
    w = np.abs(a) / np.max(np.abs(a))
    num = np.sign(a) * w ** (p - 1.0)
    den = np.sum(w**p) ** ((p - 1.0) / p)
    return num / den
