"""Voter profiles: multisets of preference vectors, optionally weighted.

Profiles are canonicalized on construction (voters sorted lexicographically,
weights carried along). Every downstream reduction then visits voters in the
same order regardless of input ordering, which makes all aggregates exactly
invariant under permutation of the input, not just up to rounding.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch

__all__ = ["WeightedProfile", "uniform_profile", "affine_dimension"]


def _canonical_order(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Lexicographic order on (column 0, ..., column d-1, weight): the argsort
    of column 0, unique when it has no tie (-0.0 == 0.0 is one), else lexsort."""
    order = np.argsort(points[:, 0])
    first = points[:, 0].take(order)
    if not np.any(first[1:] == first[:-1]):
        return order
    keys = [points[:, j] for j in range(points.shape[1] - 1, -1, -1)]
    return np.lexsort([weights] + keys)


def _scale(hi: float, lo: float) -> float:
    """max |coordinate| of coordinates in [lo, hi], 1.0 if all are zero."""
    return max(hi, -lo) or 1.0


def _profile_scale(points: np.ndarray) -> float:  # no abs(points) temporary
    return _scale(float(points.max()), float(points.min()))


def _lower_median(voters: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per column, the smallest value whose cumulative weight reaches 1/2."""
    out = np.empty(voters.shape[1])
    # Equal weights sum alike in any order: one index, one selection per column.
    # Unequal weights, and zeros (only the stable sort fixes their sign), sort.
    equal = bool(np.all(weights == weights[0]))
    idx = int(np.searchsorted(np.cumsum(weights), 0.5 - 1e-12))
    for j in range(voters.shape[1]):
        out[j] = np.partition(voters[:, j], idx)[idx] if equal else 0.0
        if out[j] == 0.0:
            order = np.argsort(voters[:, j], kind="stable")
            cum = np.cumsum(weights[order])
            out[j] = voters[order[int(np.searchsorted(cum, 0.5 - 1e-12))], j]
    out.setflags(write=False)
    return out


def _validate_points(points) -> np.ndarray:
    a = np.asarray(points, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a (V, d) array of voters, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError("profile needs at least one voter and one dimension")
    if not np.all(np.isfinite(a)):
        raise ValueError("profile has non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class WeightedProfile:
    """Voters plus per-voter weights: strictly positive and finite, of any
    scale, and normalized here to sum to one.
    Profiles compare by identity; scale is max |coordinate| (1.0 if all are
    zero), and the solver's thresholds are relative to it. Voters whose
    squared distance from the middle of the cube [lo, hi]^d of their
    coordinates could overflow, d * ((hi - lo) / 2)**2, are rejected: the
    solver would read infinite distances as a zero gradient. So are distinct
    voters for which that square falls below the smallest normal float: their
    squared distances lose precision, or read as 0 and the voters as one."""

    voters: np.ndarray
    weights: np.ndarray = field(default=None)
    scale: float = field(init=False)

    def __post_init__(self):
        a = _validate_points(self.voters)
        hi, lo = float(a.max()), float(a.min())
        half = 0.5 * (hi - lo)
        if not math.isfinite(a.shape[1] * half * half):
            raise ValueError(f"coordinate {hi if hi >= -lo else lo!r} is too large: "
                             "squared distances overflow")
        if hi > lo and a.shape[1] * half * half < np.finfo(float).tiny:
            raise ValueError(f"coordinates span only {hi - lo!r}: squared distances underflow")
        if self.weights is None:
            w = np.full(a.shape[0], 1.0 / a.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
        if w.shape != (a.shape[0],):
            raise DimensionMismatch("weights must be one positive real per voter")
        if not np.all(w > 0.0) or not np.all(np.isfinite(w)):
            i = int(np.argmin((w > 0.0) & np.isfinite(w)))
            raise ValueError(f"weight {float(w[i])!r} of voter {i} "
                             "is not strictly positive and finite")
        if self.weights is not None:  # exact 2^k rescale, then over the exactly rounded sum
            raw, w = w, np.ldexp(w, -math.frexp(w.max())[1])
            w = w / math.fsum(w)
            if not w.min() > 0.0:
                i = int(w.argmin())
                raise ValueError(f"weight {float(raw[i])!r} of voter {i} normalizes to 0: "
                                 "its share of the weights' sum underflows")
        total = np.sort(w).sum()  # summed in sorted order, which no input order changes
        w = w / total
        order = _canonical_order(a, w)
        a = a.take(order, axis=0)
        w = w.take(order)
        a.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "voters", a)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "scale", _scale(hi, lo))

    @property
    def count(self) -> int:
        return self.voters.shape[0]

    @property
    def dim(self) -> int:
        return self.voters.shape[1]

    @cached_property
    def affine_dim(self) -> int:
        """affine_dimension of the voters, computed once per profile."""
        return affine_dimension(self.voters)

    @cached_property
    def _cw_median(self) -> np.ndarray:
        """Read-only coordinate-wise lower median, computed once per profile."""
        return _lower_median(self.voters, self.weights)


def uniform_profile(points) -> WeightedProfile:
    """A finite multiset of d-dimensional preference vectors, one voter one
    unit force: the WeightedProfile whose weights are all 1/V."""
    return WeightedProfile(points)


def affine_dimension(points) -> int:
    """Dimension of the affine span: the count of singular values s of the
    centred points above 1e-9 * s[0]."""
    a = _validate_points(points)
    if a.shape[0] == 1:
        return 0
    s = np.linalg.svd(a - a.mean(axis=0), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-9 * s[0]))
