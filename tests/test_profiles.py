import tracemalloc

import numpy as np
import pytest

from medianforge import profiles
from medianforge import solvers as sv
from medianforge.errors import DimensionMismatch
from medianforge.profiles import (
    VoterProfile,
    WeightedProfile,
    _canonical_order,
    affine_dimension,
    uniform_profile,
)


def test_canonical_order_is_permutation_invariant(rng):
    pts = rng.standard_normal((12, 3))
    a = VoterProfile(pts)
    b = VoterProfile(pts[rng.permutation(12)])
    np.testing.assert_array_equal(a.voters, b.voters)


def _lexsort_order(points, weights):
    """The definition: lexicographic on column 0, ..., column d-1, weight."""
    keys = [points[:, j] for j in range(points.shape[1] - 1, -1, -1)]
    return np.lexsort([weights] + keys)


@pytest.mark.parametrize("case", ["distinct", "ties_with_signed_zeros", "duplicate_rows"])
def test_canonical_order_equals_lexsort(rng, case):
    if case == "distinct":
        pts = rng.standard_normal((50, 3))
    elif case == "ties_with_signed_zeros":
        pts = np.column_stack([rng.choice([-1.0, -0.0, 0.0, 2.0], 60),
                               rng.integers(-1, 2, 60).astype(float),
                               rng.standard_normal(60)])
    else:
        pts = np.repeat(rng.standard_normal((5, 2)), 4, axis=0)
    w = rng.uniform(0.5, 2.0, size=len(pts))
    np.testing.assert_array_equal(_canonical_order(pts, w), _lexsort_order(pts, w))


def test_canonical_order_breaks_a_signed_zero_tie_on_later_columns():
    pts = np.array([[0.0, 1.0], [-0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(_canonical_order(pts, np.ones(3)), [1, 0, 2])


def test_weighted_permutation_keeps_pairs(rng):
    pts = rng.standard_normal((6, 2))
    w = rng.uniform(0.5, 2.0, size=6)
    w /= w.sum()
    perm = rng.permutation(6)
    a = WeightedProfile(pts, w)
    b = WeightedProfile(pts[perm], w[perm])
    np.testing.assert_array_equal(a.voters, b.voters)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_duplicates_allowed():
    p = VoterProfile([[1.0, 2.0], [1.0, 2.0]])
    assert p.count == 2


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightedProfile([[0.0, 0.0], [1.0, 1.0]], [0.5, -0.5])
    with pytest.raises(ValueError):
        WeightedProfile([[0.0, 0.0], [1.0, 1.0]], [0.9, 0.9])
    with pytest.raises(DimensionMismatch):
        WeightedProfile([[0.0, 0.0], [1.0, 1.0]], [1.0])


def test_from_raw_weights_normalizes():
    wp = WeightedProfile.from_raw_weights([[0.0], [1.0]], [2.0, 6.0])
    assert wp.weights.sum() == pytest.approx(1.0)
    assert sorted(wp.weights) == pytest.approx([0.25, 0.75])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        VoterProfile([[np.nan, 0.0]])


def test_voter_profile_is_the_uniform_weighted_profile(rng):
    x = rng.standard_normal((9, 3))
    p = uniform_profile(x)
    assert isinstance(VoterProfile(x), WeightedProfile)
    assert type(p) is VoterProfile
    w = WeightedProfile(x)
    assert p.voters.tobytes() == w.voters.tobytes()
    assert p.weights.tobytes() == w.weights.tobytes()
    assert p.scale == w.scale


def test_profiles_compare_by_identity_and_derive_their_scale(rng):
    x = rng.standard_normal((9, 3)) * 4.0
    p = uniform_profile(x)
    assert (p == uniform_profile(x)) is False
    assert (p == p) is True
    assert p.scale == max(1.0, float(np.max(np.abs(x))))
    with pytest.raises(TypeError):
        WeightedProfile(x, scale=5.0)


def test_uniform_profile_weights():
    wp = uniform_profile([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    np.testing.assert_allclose(wp.weights, 1.0 / 3.0)


def test_affine_dimension_runs_once_per_profile(monkeypatch, rng):
    calls = []
    real = profiles.affine_dimension
    monkeypatch.setattr(profiles, "affine_dimension",
                        lambda points: calls.append(1) or real(points))
    p = uniform_profile(rng.standard_normal((20, 3)))
    sv.geometric_median(p)
    sv.skewed_geometric_median(p, np.diag([1.0, 2.0, 3.0]))
    assert len(calls) == 1
    assert p.affine_dim == 3


def test_affine_dimension():
    assert affine_dimension([[1.0, 1.0]]) == 0
    assert affine_dimension([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]) == 1
    assert affine_dimension([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) == 2
    line = np.outer(np.arange(5.0), [1.0, 2.0, 3.0]) + 7.0
    assert affine_dimension(line) == 1


@pytest.mark.parametrize("build", [uniform_profile, VoterProfile],
                         ids=["uniform_profile", "VoterProfile"])
def test_construction_copies_the_voters_once(build):
    x = np.random.default_rng(0).standard_normal((200_000, 10))
    tracemalloc.start()
    try:
        p = build(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the sorted, read-only copy plus per-voter weights and sort keys
    assert peak < 1.6 * x.nbytes
    assert not np.shares_memory(p.voters, x)
    assert not p.voters.flags.writeable
