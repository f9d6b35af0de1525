import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from medianforge import profiles
from medianforge import solvers as sv
from medianforge.errors import DimensionMismatch
from medianforge.profiles import (
    WeightedProfile,
    _canonical_order,
    affine_dimension,
    uniform_profile,
)


def test_canonical_order_is_permutation_invariant(rng):
    pts = rng.standard_normal((12, 3))
    a = uniform_profile(pts)
    b = uniform_profile(pts[rng.permutation(12)])
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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), count=hs.integers(1, 300), dim=hs.integers(1, 6),
       ties=hs.booleans(), signed_zeros=hs.booleans())
def test_canonical_order_is_the_stable_lexsort(seed, count, dim, ties, signed_zeros):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    if ties:
        pts[:, : min(dim, 2)] = rng.integers(-3, 4, (count, min(dim, 2)))
    if signed_zeros and count >= 2:
        pts[rng.choice(count, 2, replace=False), 0] = [-0.0, 0.0]
    w = rng.uniform(0.5, 2.0, size=count)
    np.testing.assert_array_equal(_canonical_order(pts, w), _lexsort_order(pts, w))


def test_canonical_order_breaks_a_signed_zero_tie_on_later_columns():
    pts = np.array([[0.0, 1.0], [-0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(_canonical_order(pts, np.ones(3)), [1, 0, 2])


def test_weighted_permutation_keeps_pairs(rng):
    for _ in range(100):
        v, d = int(rng.integers(3, 41)), int(rng.integers(2, 6))
        pts, raw = rng.standard_normal((v, d)), rng.uniform(0.2, 1.0, v)
        w, perm = raw / raw.sum(), rng.permutation(v)
        for ws in (w, raw):
            a, b = WeightedProfile(pts, ws), WeightedProfile(pts[perm], ws[perm])
            np.testing.assert_array_equal(a.voters, b.voters)
            np.testing.assert_array_equal(a.weights, b.weights)


def test_raw_weights_of_any_scale():
    wp = WeightedProfile([[0.0], [1.0], [2.0]], [1e308] * 3)
    assert np.all(wp.weights == wp.weights[0])
    assert wp.weights[0] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_weight_whose_share_underflows_rejected():
    with pytest.raises(ValueError, match=r"weight 5e-324 of voter 1 normalizes to 0"):
        WeightedProfile([[0.0], [1.0], [2.0]], [1.0, 5e-324, 1.0])


@pytest.mark.parametrize("weights,named", [
    ([1.0, -1.0, 1.0], "weight -1.0 of voter 1"),
    ([0.0, 1.0, 1.0], "weight 0.0 of voter 0"),
    ([1.0, np.nan, -1.0], "weight nan of voter 1"),
    ([1.0, 1.0, np.inf], "weight inf of voter 2"),
])
def test_nonpositive_or_nonfinite_weight_named(weights, named):
    with pytest.raises(ValueError, match=f"^{named} is not strictly positive and finite$"):
        WeightedProfile([[0.0], [1.0], [2.0]], weights)


def test_duplicates_allowed():
    p = uniform_profile([[1.0, 2.0], [1.0, 2.0]])
    assert p.count == 2


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightedProfile([[0.0, 0.0], [1.0, 1.0]], [0.5, -0.5])
    np.testing.assert_array_equal(
        WeightedProfile([[0.0, 0.0], [1.0, 1.0]], [0.9, 0.9]).weights, [0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        WeightedProfile([[0.0, 0.0], [1.0, 1.0]], [1.0])


def test_raw_weights_normalized():
    wp = WeightedProfile([[0.0], [1.0]], [2.0, 6.0])
    assert wp.weights.sum() == pytest.approx(1.0)
    assert sorted(wp.weights) == pytest.approx([0.25, 0.75])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        uniform_profile([[np.nan, 0.0]])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_empty_profile_rejected(shape):
    with pytest.raises(ValueError,
                       match="^profile needs at least one voter and one dimension$"):
        uniform_profile(np.empty(shape))


def test_coordinates_whose_squares_overflow_rejected():
    for e in (155, 200):
        with pytest.raises(ValueError, match=rf"^coordinate 1e\+{e} is too large"):
            uniform_profile([[0.0, 0.0], [10.0**e, 0.0], [0.0, 10.0**e]])
    with pytest.raises(ValueError, match=r"^coordinate -1.4e\+154 is too large"):
        uniform_profile([[-1.4e154, 0.0], [1.3e154, 1.0], [0.0, 1.3e154]])
    # at 1e154 the solve still finds the Fermat point
    res = sv.geometric_median(uniform_profile([[0.0, 0.0], [1e154, 0.0], [0.0, 1e154]]))
    np.testing.assert_allclose(res.point, [(3 - np.sqrt(3)) / 6 * 1e154] * 2, rtol=1e-9)
    assert res.grad_norm <= 1e-10 and np.isfinite(res.loss)


@pytest.mark.parametrize("e", [-154, -158, -162])
def test_coordinates_whose_squares_underflow_rejected(e):
    # At 1e-162 every squared distance reads 0: a solve would return the
    # voter (0, 0) with grad_norm 0.0, 0.30 s from the Fermat point.
    s = 10.0**e
    with pytest.raises(ValueError, match=rf"^coordinates span only 1e-{-e}: .* underflow"):
        uniform_profile([[0.0, 0.0], [s, 0.0], [0.0, s]])
    uniform_profile([[s, s]] * 3)  # one point repeated has no distances to lose


def test_voter_profile_is_the_uniform_weighted_profile(rng):
    x = rng.standard_normal((9, 3))
    p = uniform_profile(x)
    assert type(p) is WeightedProfile
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
    assert len(calls) == 0  # the certified solves never read the rank
    assert (p.affine_dim, p.affine_dim) == (3, 3)
    assert len(calls) == 1


def test_coordinatewise_median_runs_once_per_profile(monkeypatch, rng):
    x = rng.standard_normal((40, 3))
    skew = np.diag([1.0, 2.0, 3.0])
    want = [_bits(sv.geometric_median(uniform_profile(x))),
            _bits(sv.skewed_geometric_median(uniform_profile(x), skew))]
    calls = []
    real = profiles._lower_median
    monkeypatch.setattr(profiles, "_lower_median",
                        lambda voters, weights: calls.append(1) or real(voters, weights))
    p = uniform_profile(x)
    got = [_bits(sv.geometric_median(p)), _bits(sv.skewed_geometric_median(p, skew))]
    assert len(calls) == 1
    assert got == want


def test_coordinatewise_median_returns_a_fresh_copy(rng):
    x = rng.standard_normal((41, 3))
    p = uniform_profile(x)
    first = sv.coordinatewise_median(p)
    want = first.copy()
    first[:] = 1e6
    assert sv.coordinatewise_median(p).tobytes() == want.tobytes()
    assert _bits(sv.geometric_median(p)) == _bits(sv.geometric_median(uniform_profile(x)))


def _bits(result):
    return (result.point.tobytes(), result.loss, result.grad_norm, result.additive_bound,
            result.iterations)


def _svd_rank(points):
    """The definition: singular values of the centred points above 1e-9 * s[0]."""
    if len(points) == 1:
        return 0
    s = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return 0 if s[0] == 0.0 else int(np.sum(s > 1e-9 * s[0]))


def _with_singular_values(rng, count, dim, sing):
    """count points in dim whose centred matrix has the singular values sing
    (at most min(count - 1, dim) of them), offset from the origin."""
    k = len(sing)
    a = rng.standard_normal((count, k))
    q, _ = np.linalg.qr(a - a.mean(axis=0))  # columns orthogonal to the ones vector
    r, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (q * sing) @ r[:k] + rng.standard_normal(dim)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), dim=hs.integers(2, 12), count=hs.integers(1, 300))
def test_affine_dimension_is_the_svd_count(seed, dim, count):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim)) * rng.uniform(0.1, 10.0, dim)
    assert affine_dimension(pts) == _svd_rank(pts)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), dim=hs.integers(2, 12), count=hs.integers(2, 300),
       log_ratio=hs.floats(-12.0, -2.0))
def test_nearly_flat_sets_fall_back_to_the_svd(seed, dim, count, log_ratio):
    # the second singular value is 1e-12 to 1e-2 of the first, the rest below it
    rng = np.random.default_rng(seed)
    k = min(count - 1, dim)
    sing = np.concatenate([[1.0, 10.0**log_ratio],
                           10.0**log_ratio * rng.uniform(1e-3, 1.0, max(k - 2, 0))])[:k]
    pts = _with_singular_values(rng, count, dim, sing)
    assert affine_dimension(pts) == _svd_rank(pts)


def test_affine_dimension_at_extreme_scales(rng):
    # squared, these coordinates overflow or fall into the subnormals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in [-300.0, *np.arange(-170.0, -150.0, 0.25), 155.0, 200.0, 300.0]:
            for d in (2, 3, 4):
                line = np.outer(rng.standard_normal(40), rng.standard_normal(d)) * 10.0**e
                assert affine_dimension(line) == 1 == _svd_rank(line)
                full = rng.standard_normal((40, d)) * 10.0**e
                assert affine_dimension(full) == d == _svd_rank(full)


def test_affine_dimension():
    assert affine_dimension([[1.0, 1.0]]) == 0
    assert affine_dimension([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]) == 1
    assert affine_dimension([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) == 2
    line = np.outer(np.arange(5.0), [1.0, 2.0, 3.0]) + 7.0
    assert affine_dimension(line) == 1


@pytest.mark.parametrize("build", [uniform_profile], ids=["uniform_profile"])
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
