import tracemalloc

import numpy as np
import pytest

from medianforge.errors import DimensionMismatch
from medianforge.profiles import (
    VoterProfile,
    WeightedProfile,
    affine_dimension,
    uniform_profile,
)


def test_canonical_order_is_permutation_invariant(rng):
    pts = rng.standard_normal((12, 3))
    a = VoterProfile(pts)
    b = VoterProfile(pts[rng.permutation(12)])
    np.testing.assert_array_equal(a.voters, b.voters)


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


def test_uniform_profile_weights():
    wp = uniform_profile([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    np.testing.assert_allclose(wp.weights, 1.0 / 3.0)


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
