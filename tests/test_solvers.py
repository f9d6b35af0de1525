import functools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from medianforge import solvers as sv
from medianforge.errors import AtVoterPoint, DimensionMismatch, NotSPD, SolverFailure
from medianforge.profiles import WeightedProfile, uniform_profile
from medianforge.strategy import boundary_point

from conftest import fd_gradient, fd_jacobian, grid_refine_median, random_spd

UNIT_TRIANGLE = np.array(
    [[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0], [-0.5, -math.sqrt(3.0) / 2.0]]
)
SIMPLEX3 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

# geometric median of {(0,0),(1,0),(0,1)}: all pairwise pulls at 120 degrees,
# computed by the grid-refinement oracle and equal to (3 - sqrt(3))/6 per axis
FERMAT_RIGHT_TRIANGLE = (3.0 - math.sqrt(3.0)) / 6.0


def four_corner_profile(x, copies=1):
    corners = np.array([[-x, -1.0], [-x, 1.0], [x, -1.0], [x, 1.0]])
    return uniform_profile(np.repeat(corners, copies, axis=0))


class TestAverage:
    def test_midpoint(self):
        wp = uniform_profile([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_allclose(sv.average(wp), [1.0, 1.0])

    def test_simplex(self):
        np.testing.assert_allclose(sv.average(uniform_profile(SIMPLEX3)), [1 / 3] * 3)

    def test_single_voter_manipulation_identity(self, rng):
        pts = rng.standard_normal((7, 3))
        mean = pts.mean(axis=0)
        target = np.array([5.0, -2.0, 0.5])
        vote = 8.0 * target - 7.0 * mean
        wp = uniform_profile(np.vstack([pts, vote]))
        np.testing.assert_allclose(sv.average(wp), target, atol=1e-12)

    def test_weighted(self):
        wp = WeightedProfile([[0.0], [1.0]], [0.25, 0.75])
        np.testing.assert_allclose(sv.average(wp), [0.75])


class TestCoordinatewiseMedian:
    def test_paper_triangle(self):
        wp = uniform_profile([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_array_equal(sv.coordinatewise_median(wp), [1.0, 1.0])

    def test_simplex_escapes_hull(self):
        np.testing.assert_array_equal(
            sv.coordinatewise_median(uniform_profile(SIMPLEX3)), [0.0, 0.0, 0.0]
        )

    def test_single_voter(self):
        wp = uniform_profile([[3.5, -1.0]])
        np.testing.assert_array_equal(sv.coordinatewise_median(wp), [3.5, -1.0])

    def test_even_count_lower_median(self):
        wp = uniform_profile([[1.0], [2.0], [3.0], [4.0]])
        assert sv.coordinatewise_median(wp)[0] == 2.0

    def test_weighted_median(self):
        wp = WeightedProfile([[1.0], [2.0], [3.0]], [0.6, 0.2, 0.2])
        assert sv.coordinatewise_median(wp)[0] == 1.0

    @staticmethod
    def stable_sort_median(profile):
        """The definition: per column, the stable-sorted value whose
        cumulative weight first reaches 1/2."""
        out = np.empty(profile.dim)
        for j in range(profile.dim):
            order = np.argsort(profile.voters[:, j], kind="stable")
            cum = np.cumsum(profile.weights[order])
            out[j] = profile.voters[order[int(np.searchsorted(cum, 0.5 - 1e-12))], j]
        return out

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 101, 200])
    def test_equal_weights_match_stable_sort(self, rng, count):
        for _ in range(20):
            pts = np.column_stack([rng.standard_normal(count),
                                   rng.integers(-2, 3, count).astype(float),
                                   rng.choice([-0.0, 0.0], count),
                                   rng.choice([-1.0, -0.0, 0.0, 1.0], count)])
            wp = uniform_profile(pts)
            got, want = sv.coordinatewise_median(wp), self.stable_sort_median(wp)
            assert got.tobytes() == want.tobytes()
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestLossStack:
    def test_four_corner_hessian_formula(self):
        for x in (8.0, 20.0):
            h = sv.loss_hessian(four_corner_profile(x), np.zeros(2))
            expected = (1.0 + x * x) ** -1.5 * np.diag([1.0, x * x])
            np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_gradient_zero_at_center_of_symmetry(self, rng):
        pts = rng.standard_normal((9, 3))
        wp = uniform_profile(np.vstack([pts, -pts]))
        np.testing.assert_allclose(sv.loss_gradient(wp, np.zeros(3)), 0.0, atol=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        pts = rng.standard_normal((8, 3))
        wp = uniform_profile(pts)
        for _ in range(10):
            z = rng.standard_normal(3) * 2.0
            fd = fd_gradient(lambda y: sv.loss_eval(wp, y), z)
            np.testing.assert_allclose(sv.loss_gradient(wp, z), fd, rtol=1e-5, atol=1e-8)

    def test_hessian_and_third_match_finite_differences(self, rng):
        pts = rng.standard_normal((6, 3))
        wp = uniform_profile(pts)
        for _ in range(5):
            z = rng.standard_normal(3) * 2.0
            np.testing.assert_allclose(
                sv.loss_hessian(wp, z),
                fd_jacobian(lambda y: sv.loss_gradient(wp, y), z),
                rtol=1e-5, atol=1e-7,
            )
            np.testing.assert_allclose(
                sv.loss_third_deriv(wp, z),
                fd_jacobian(lambda y: sv.loss_hessian(wp, y), z, h=1e-5),
                rtol=1e-4, atol=1e-6,
            )

    def test_at_voter_point_raises(self):
        wp = uniform_profile([[0.0, 0.0], [1.0, 1.0]])
        for fn in (sv.loss_gradient, sv.loss_hessian, sv.loss_third_deriv):
            with pytest.raises(AtVoterPoint):
                fn(wp, [1.0, 1.0])

    def test_skewed_derivatives_at_voter_point_raise(self):
        wp = uniform_profile([[0.0, 0.0], [1.0, 1.0]])
        for fn in (sv.skewed_loss_gradient, sv.skewed_loss_hessian):
            with pytest.raises(AtVoterPoint):
                fn(wp, np.diag([2.0, 0.5]), [1.0, 1.0])

    def test_min_norm_subgradient_on_voter(self):
        wp = uniform_profile([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        g = sv.min_norm_subgradient(wp, [0.0, 0.0])
        pull = (np.array([-1.0, 0.0]) + np.array([0.0, -1.0])) / 3.0
        expected = pull * (1.0 - (1.0 / 3.0) / np.linalg.norm(pull))
        np.testing.assert_allclose(g, expected, atol=1e-12)


class TestGeometricMedian:
    def test_unit_triangle(self):
        p = uniform_profile(UNIT_TRIANGLE)
        res = sv.geometric_median(p)
        np.testing.assert_allclose(res.point, [0.0, 0.0], atol=1e-8)
        assert res.grad_norm <= 1e-10
        assert p.affine_dim == 2

    def test_simplex(self):
        res = sv.geometric_median(uniform_profile(SIMPLEX3))
        np.testing.assert_allclose(res.point, [1 / 3] * 3, atol=1e-9)

    def test_fermat_point_and_pull_angles(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = sv.geometric_median(uniform_profile(pts))
        np.testing.assert_allclose(res.point, [FERMAT_RIGHT_TRIANGLE] * 2, atol=1e-9)
        oracle = grid_refine_median(pts, resolution=1e-7)
        assert np.linalg.norm(res.point - oracle) <= res.additive_bound + 1e-7
        pulls = [(res.point - p) / np.linalg.norm(res.point - p) for p in pts]
        for i in range(3):
            for j in range(i + 1, 3):
                angle = math.degrees(math.acos(np.clip(pulls[i] @ pulls[j], -1, 1)))
                assert angle == pytest.approx(120.0, abs=1e-4)

    def test_loss_field_consistency(self, rng):
        wp = uniform_profile(rng.standard_normal((9, 3)))
        res = sv.geometric_median(wp)
        assert res.loss == pytest.approx(sv.loss_eval(wp, res.point), abs=1e-12)

    def test_certificate_against_grid_oracle(self, rng):
        for _ in range(10):
            v = int(rng.integers(3, 8))
            pts = rng.standard_normal((v, 2)) * rng.uniform(0.5, 3.0)
            res = sv.geometric_median(uniform_profile(pts))
            oracle = grid_refine_median(pts, resolution=1e-7)
            assert np.linalg.norm(res.point - oracle) <= res.additive_bound + 1e-7
            # the solver is never worse than the oracle point
            assert res.loss <= sv.loss_eval(uniform_profile(pts), oracle) + 1e-12

    def test_optimum_on_voter_point(self):
        # one voter outweighs the rest: the median is its point, and the
        # certificate degrades to +inf because the Hessian blows up there
        wp = WeightedProfile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.8, 0.1, 0.1])
        res = sv.geometric_median(wp)
        np.testing.assert_array_equal(res.point, [0.0, 0.0])
        assert res.grad_norm <= 1e-10
        assert res.additive_bound == np.inf

    def test_degenerate_collinear_flagged(self):
        p = uniform_profile(np.outer(np.arange(5.0), [1.0, 1.0]))
        res = sv.geometric_median(p)
        assert res.grad_norm <= 1e-10
        assert p.affine_dim == 1

    def test_one_distance_pass_per_iterate(self, rng, monkeypatch):
        # Far from every voter the Newton steps are accepted first time, so
        # each iterate costs one pass and the certificate reads the last one.
        passes = []

        class Counted(sv._Pass):
            def __init__(self, *args):
                passes.append(1)
                super().__init__(*args)

        monkeypatch.setattr(sv, "_Pass", Counted)
        wp = uniform_profile(rng.standard_normal((2000, 4)))
        res = sv.geometric_median(wp)
        assert res.grad_norm <= 1e-10 and np.isfinite(res.additive_bound)
        assert len(passes) <= res.iterations + 2

    def test_pass_norms_are_linalg_norm_bitwise(self, rng):
        # The pass skips np.linalg.norm's wrapper but must keep its rounding:
        # the recorded stress-sweep floors depend on the step's row norms.
        for _ in range(40):
            v, d = int(rng.integers(3, 300)), int(rng.integers(2, 12))
            voters = rng.standard_normal((v, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
            wp = WeightedProfile(voters, rng.dirichlet(np.ones(v)))
            p = sv._evaluate(wp, voters.mean(axis=0) + rng.standard_normal(d))
            assert not p.at_voter and p.gn == np.linalg.norm(p.g)
            c = wp.weights / np.linalg.norm(p.diffs, axis=1)
            np.testing.assert_array_equal(p.step(), (c @ wp.voters) / c.sum())
            on = sv._evaluate(wp, wp.voters[int(rng.integers(v))])
            assert on.at_voter
            assert on.pn == np.linalg.norm(on.rest_c @ on.diffs[on.rest])
            assert on.gn == np.linalg.norm(on.g)

    def test_weighted_pull(self):
        wp = WeightedProfile([[0.0, 0.0], [10.0, 0.0]], [0.75, 0.25])
        res = sv.geometric_median(wp)
        np.testing.assert_array_equal(res.point, [0.0, 0.0])


class TestFarScales:
    @pytest.mark.parametrize("c", [5e153, 9e153])
    def test_pass_at_infinite_distance_fails(self, c):
        # From the start (-c,-c) the far voters read as infinitely distant,
        # so their pull reads as zero.
        pts = [[-c, -c]] * 2 + [[-c, c], [c, -c]] + [[c, c]] * 2
        with pytest.raises(SolverFailure, match="non-finite distance"):
            sv.geometric_median(uniform_profile(pts))

    @pytest.mark.parametrize("e", [100, 103, 108, 109, 110, 154])
    def test_certificate_holds_at_large_coordinates(self, e):
        # From about 1e103 on, some w / r**3 of the Hessian are subnormal.
        s = 10.0**e
        res = sv.geometric_median(uniform_profile([[0.0, 0.0], [s, 0.0], [0.0, s]]))
        assert np.linalg.norm(res.point - FERMAT_RIGHT_TRIANGLE * s) <= res.additive_bound

    @pytest.mark.parametrize("e", [-14, -20, -60, -100])
    def test_tiny_coordinates_solve_at_their_own_scale(self, e):
        # The voter-point and snap tests are relative to max |coordinate|, so
        # the three voters do not read as one point.
        s = 10.0**e
        res = sv.geometric_median(uniform_profile([[0.0, 0.0], [s, 0.0], [0.0, s]]))
        assert res.iterations > 0 and res.grad_norm > 0.0
        assert np.linalg.norm(res.point - FERMAT_RIGHT_TRIANGLE * s) <= res.additive_bound
        assert res.additive_bound <= 1e-9 * s

    @pytest.mark.parametrize("e", [0, 50, 100, 102])
    def test_certificate_bits_while_hessian_terms_are_normal(self, e):
        s = 10.0**e
        wp = uniform_profile([[0.0, 0.0], [s, 0.0], [0.0, s]])
        res = sv.geometric_median(wp)
        lam_min = float(np.linalg.eigvalsh(sv.loss_hessian(wp, res.point))[0])
        assert res.additive_bound == sv.DEFAULT_TOL_GRAD / lam_min


def _reference_newton(p, at, stats):
    """_newton as a loop that evaluates every halving."""
    try:
        direction = np.linalg.solve(p.hessian(), p.g)
    except (AtVoterPoint, np.linalg.LinAlgError):
        return None
    for k in range(40):
        trial = at(p.z - 0.5**k * direction)
        if trial.gn < p.gn:
            return trial
    return None


def _sound_marks(p):
    """Evaluates every halving from p that proved_worse marks; returns their count."""
    direction = np.linalg.solve(p.hessian(), p.g)
    zs = p.z - np.ldexp(1.0, -np.arange(40))[:, None] * direction
    marks = p.proved_worse(zs)
    for k in np.flatnonzero(marks):
        np.testing.assert_array_equal(zs[k], p.z - 0.5**k * direction)
        assert sv._Pass(p.voters, p.weights, p.scale, zs[k]).gn >= p.gn
    return int(marks.sum())


def _vote_just_outside(seed):
    """200 honest voters plus a vote 1e-6 of its distance from the honest
    median outside the achievable set: the median lies near the vote."""
    rng = np.random.default_rng(seed)
    honest = uniform_profile(rng.standard_normal((200, 3)) * [1.0, 1.0, 3.0])
    g = sv.geometric_median(honest).point
    zb = boundary_point(honest, g, rng.standard_normal(3))
    return uniform_profile(np.vstack([honest.voters, zb + 1e-6 * (zb - g)]))


def _solve_counted(monkeypatch, wp, newton):
    """(final pass, stats, points of the passes built) of a solve with this
    Newton step."""
    passes = []

    class Counted(sv._Pass):
        def __init__(self, *args):
            passes.append(args[3])
            super().__init__(*args)

    with monkeypatch.context() as m:
        m.setattr(sv, "_Pass", Counted)
        m.setattr(sv, "_newton", newton)
        p, stats = sv._solve_gm_raw(wp.voters, wp.weights, sv.DEFAULT_TOL_GRAD,
                                    sv.coordinatewise_median(wp))
    return p, stats, passes


@functools.cache
def _backtracking_seeds():
    """The first six seeds whose _vote_just_outside solve backtracks 10
    halvings or more in a Newton step from within _SNAP_RTOL of a voter: the
    halvings that proved_worse is for."""
    seeds = []
    for seed in range(64):
        depths = []

        def newton(p, at, stats):
            trials = []
            trial = _reference_newton(p, lambda z: trials.append(z) or at(z), stats)
            if p.dists[p.nearest] <= sv._SNAP_RTOL * p.scale:
                depths.append(len(trials))
            return trial

        _solve_counted(pytest.MonkeyPatch(), _vote_just_outside(seed), newton)
        if max(depths, default=0) >= 10:
            seeds.append(seed)
        if len(seeds) == 6:
            return seeds
    raise AssertionError(f"{len(seeds)} backtracking seeds below 64, 6 wanted")


class TestNearVoterNewton:
    def test_marked_halvings_are_rejected_near_random_voters(self, rng):
        marked = 0
        for _ in range(300):
            v, d = int(rng.integers(3, 300)), int(rng.integers(2, 8))
            voters = rng.standard_normal((v, d)) * 10.0 ** rng.uniform(0.0, 3.0)
            wp = WeightedProfile(voters, rng.dirichlet(np.ones(v)))
            u = rng.standard_normal(d)
            offset = 10.0 ** rng.uniform(-13.0, -5.0) * wp.scale / np.linalg.norm(u)
            p = sv._evaluate(wp, wp.voters[int(rng.integers(v))] + offset * u)
            if not p.at_voter:
                marked += _sound_marks(p)
        assert marked > 300

    @pytest.mark.parametrize("k", range(6))
    def test_marked_halvings_are_rejected_near_the_vote(self, monkeypatch, k):
        seen = []
        newton = sv._newton
        _solve_counted(monkeypatch, _vote_just_outside(_backtracking_seeds()[k]),
                       lambda p, at, stats: seen.append(p) or newton(p, at, stats))
        near = [p for p in seen
                if not p.at_voter and p.dists[p.nearest] <= sv._SNAP_RTOL * p.scale]
        assert sum(_sound_marks(p) for p in near) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_solve_bits_match_the_every_halving_loop(self, monkeypatch, seed):
        wp = _vote_just_outside(seed)
        p, stats, _ = _solve_counted(monkeypatch, wp, sv._newton)
        ref, ref_stats, _ = _solve_counted(monkeypatch, wp, _reference_newton)
        assert stats["iterations"] == ref_stats["iterations"]
        for name in ("z", "g", "dists"):
            np.testing.assert_array_equal(getattr(p, name), getattr(ref, name))
        assert (p.gn, p.additive_bound(sv.DEFAULT_TOL_GRAD)) \
            == (ref.gn, ref.additive_bound(sv.DEFAULT_TOL_GRAD))

    @pytest.mark.parametrize("k", range(6))
    def test_near_vote_solve_skips_passes(self, monkeypatch, k):
        wp = _vote_just_outside(_backtracking_seeds()[k])
        passes = len(_solve_counted(monkeypatch, wp, sv._newton)[2])
        assert 2 * passes < len(_solve_counted(monkeypatch, wp, _reference_newton)[2])

    @pytest.mark.parametrize("seed", range(6))
    def test_snap_test_runs_once_per_voter(self, monkeypatch, seed):
        # A voter's snap pass reads the same from every iterate near it, so a
        # voter refused once is not tested again in the solve.
        wp = _vote_just_outside(seed)
        zs = _solve_counted(monkeypatch, wp, sv._newton)[2]
        snaps = Counter(z.tobytes() for z in zs if (wp.voters == z).all(axis=1).any())
        assert snaps and max(snaps.values()) == 1


def _outlier_profile(seed):
    """Three voters and one vote 1e3 away, shaped like a (V_T, V_S) = (3, 1)
    byzantine trial: Weiszfeld crawls, and the solve snap-tests voters."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(3)
    return uniform_profile(np.vstack([rng.standard_normal((3, 3)), 1e3 * u / np.linalg.norm(u)]))


def _solve_with_counts(monkeypatch, wp, newton, init=None):
    """(MedianResult, its solve's stats, the counts taken around that solve):
    the passes built, those built inside a Newton step, the later ones on a
    voter's point (snap tests), and the calls of the Newton step."""
    counts, stats, in_newton = Counter(), [], []

    class Counted(sv._Pass):
        def __init__(self, *args):
            super().__init__(*args)
            counts["passes"] += 1
            if in_newton:
                counts["newton_trials_evaluated"] += 1
            elif counts["passes"] > 1 and self.at_voter:
                counts["snap_tests"] += 1

    def counted_newton(*args):
        counts["newton_calls"] += 1
        in_newton.append(1)
        try:
            return newton(*args)
        finally:
            in_newton.pop()

    solve = sv._solve_gm_raw

    def recorded(*args):
        p, solve_stats = solve(*args)
        stats.append(solve_stats)
        return p, solve_stats

    with monkeypatch.context() as m:
        m.setattr(sv, "_Pass", Counted)
        m.setattr(sv, "_newton", counted_newton)
        m.setattr(sv, "_solve_gm_raw", recorded)
        res = sv.geometric_median(wp, init=init)
    assert len(stats) == 1
    return res, stats[0], counts


@pytest.mark.parametrize("case", ["smooth", "voter end", "near vote", "outlier"])
def test_solve_stats_match_counts_taken_around_the_solve(monkeypatch, case):
    wp, init = {
        "smooth": lambda: (uniform_profile(np.random.default_rng(5).standard_normal((50, 3))),
                           None),
        "voter end": lambda: (WeightedProfile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                              [0.8, 0.1, 0.1]), [0.3, 0.3]),
        "near vote": lambda: (_vote_just_outside(0), None),
        "outlier": lambda: (_outlier_profile(4), None),
    }[case]()
    res, stats, counts = _solve_with_counts(monkeypatch, wp, sv._newton, init)
    assert stats["iterations"] == res.iterations > 0
    for key in ("passes", "snap_tests", "newton_calls", "newton_trials_evaluated"):
        assert stats[key] == counts[key], key
    # The every-halving loop takes the same path and evaluates each halving
    # the step proved rejected.
    ref, _, ref_counts = _solve_with_counts(monkeypatch, wp, _reference_newton, init)
    assert ref.point.tobytes() == res.point.tobytes()
    assert ref_counts["newton_trials_evaluated"] \
        == stats["newton_trials_evaluated"] + stats["newton_trials_proved"]
    assert {
        "smooth": counts["snap_tests"] == 0 and counts["newton_calls"] > 0,
        "voter end": res.point.tobytes() == wp.voters[0].tobytes(),
        "near vote": stats["newton_trials_proved"] > 0,
        "outlier": counts["snap_tests"] > 0 and counts["newton_calls"] > 0,
    }[case]


@pytest.mark.parametrize("degrees", [22.5, 37.5])
def test_solve_that_rounding_stalls_fails_fast(rng, degrees):
    # test_blackbox_matches_vote_grid_oracle's 8 voters, plus a 9th 4.3e-10
    # from the one at (0.1727, -0.8656): rounding holds gn above 1.2e-8, so
    # tol 1e-8 is out of reach. At 22.5 degrees a Weiszfeld step returns its
    # iterate bit for bit; at 37.5 it steps out and Newton steps back. Either
    # way the loop state repeats, and the solve fails at once instead of
    # after MAX_ITERATIONS iterations and hundreds of thousands of passes.
    voters = rng.standard_normal((8, 2))
    near = voters[np.argmin(np.linalg.norm(voters - [0.1727, -0.8656], axis=1))]
    angle = math.radians(degrees)
    voters = np.vstack([voters, near + 4.3e-10 * np.array([math.cos(angle), math.sin(angle)])])
    passes = []

    class Counted(sv._Pass):
        def __init__(self, *args):
            passes.append(args[3])
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sv, "_Pass", Counted)
        with pytest.raises(SolverFailure, match="stalled"):
            sv._solve_gm_raw(voters, np.full(9, 1.0 / 9), 1e-8, near)
    assert len(passes) <= 100


class TestInvariances:
    def test_anonymity_bitwise(self, rng):
        pts = rng.standard_normal((10, 3))
        perm = rng.permutation(10)
        a, b = uniform_profile(pts), uniform_profile(pts[perm])
        np.testing.assert_array_equal(sv.average(a), sv.average(b))
        np.testing.assert_array_equal(
            sv.coordinatewise_median(a), sv.coordinatewise_median(b)
        )
        np.testing.assert_array_equal(
            sv.geometric_median(a).point, sv.geometric_median(b).point
        )
        sigma = np.diag([1.0, 2.0, 0.5])
        np.testing.assert_array_equal(
            sv.skewed_geometric_median(a, sigma).point,
            sv.skewed_geometric_median(b, sigma).point,
        )

    def test_translation_homothety_equivariance(self, rng):
        pts = rng.standard_normal((8, 2))
        tau = np.array([3.0, -1.0])
        lam = 2.5
        moved = uniform_profile(lam * pts + tau)
        base = uniform_profile(pts)
        np.testing.assert_allclose(
            sv.average(moved), lam * sv.average(base) + tau, atol=1e-9
        )
        np.testing.assert_allclose(
            sv.coordinatewise_median(moved),
            lam * sv.coordinatewise_median(base) + tau,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            sv.geometric_median(moved).point,
            lam * sv.geometric_median(base).point + tau,
            atol=1e-9,
        )

    def test_orthogonal_equivariance_avg_gm(self, rng):
        pts = rng.standard_normal((7, 2))
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        rotated = uniform_profile(pts @ rot.T)
        base = uniform_profile(pts)
        np.testing.assert_allclose(sv.average(rotated), rot @ sv.average(base), atol=1e-9)
        np.testing.assert_allclose(
            sv.geometric_median(rotated).point,
            rot @ sv.geometric_median(base).point,
            atol=1e-8,
        )

    def test_cw_rotation_counterexample(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
        rot = (math.sqrt(2.0) / 2.0) * np.array([[1.0, -1.0], [1.0, 1.0]])
        cw_rotated = sv.coordinatewise_median(uniform_profile(pts @ rot.T))
        rotated_cw = rot @ sv.coordinatewise_median(uniform_profile(pts))
        np.testing.assert_allclose(
            cw_rotated, (math.sqrt(2.0) / 2.0) * np.array([0.0, 3.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            rotated_cw, (math.sqrt(2.0) / 2.0) * np.array([0.0, 2.0]), atol=1e-12
        )
        assert np.linalg.norm(cw_rotated - rotated_cw) > 0.7

    def test_center_of_symmetry(self, rng):
        # the center itself votes too: with an even count the lower-median
        # tie-break would legitimately sit below the midpoint
        pts = rng.standard_normal((6, 3))
        center = np.array([1.0, -2.0, 0.5])
        wp = uniform_profile(np.vstack([center + pts, center - pts, center[None, :]]))
        np.testing.assert_allclose(sv.average(wp), center, atol=1e-12)
        np.testing.assert_allclose(sv.coordinatewise_median(wp), center, atol=1e-12)
        np.testing.assert_allclose(sv.geometric_median(wp).point, center, atol=1e-8)

    def test_continuity_under_single_voter_perturbation(self, rng):
        pts = rng.standard_normal((9, 2))
        base = sv.geometric_median(uniform_profile(pts)).point
        for delta in (1e-2, 1e-4, 1e-6):
            bumped = pts.copy()
            bumped[0] += delta * np.array([1.0, 1.0]) / math.sqrt(2.0)
            moved = sv.geometric_median(uniform_profile(bumped)).point
            assert np.linalg.norm(moved - base) <= 10.0 * math.sqrt(delta)


class TestSkewedGeometricMedian:
    def test_identity_skew_matches_plain(self, rng):
        pts = rng.standard_normal((7, 3))
        wp = uniform_profile(pts)
        plain = sv.geometric_median(wp)
        skewed = sv.skewed_geometric_median(wp, np.eye(3))
        np.testing.assert_allclose(skewed.point, plain.point, atol=1e-9)

    def test_stretched_triangle_moves_median(self):
        # stretching the vertical axis leaves a rightward residual pull at
        # the old median, so the skewed median moves off the origin
        sigma = np.diag([1.0, 2.0 / math.sqrt(3.0)])
        res = sv.skewed_geometric_median(uniform_profile(UNIT_TRIANGLE), sigma)
        assert np.linalg.norm(res.point) > 1e-3
        assert res.point[0] > 0.0
        residual = 1.0 - 2.0 / math.sqrt(5.0)
        pulls = sum(
            (sigma @ sigma @ (np.zeros(2) - v)) / np.linalg.norm(sigma @ v)
            for v in UNIT_TRIANGLE
        )
        assert -pulls[0] == pytest.approx(residual, abs=1e-12)

    def test_transform_identity(self, rng):
        for _ in range(10):
            pts = rng.standard_normal((8, 3))
            sigma = random_spd(rng, 3)
            wp = uniform_profile(pts)
            direct = sv.skewed_geometric_median(wp, sigma)
            mapped = sv.geometric_median(uniform_profile(pts @ sigma.T))
            back = np.linalg.solve(sigma, mapped.point)
            tol = direct.additive_bound + np.linalg.norm(
                np.linalg.inv(sigma), 2
            ) * mapped.additive_bound
            assert np.linalg.norm(direct.point - back) <= max(tol, 1e-9)

    def test_grad_norm_in_skewed_geometry(self, rng):
        pts = rng.standard_normal((6, 2))
        sigma = np.diag([2.0, 0.5])
        res = sv.skewed_geometric_median(uniform_profile(pts), sigma, tol_grad=1e-10)
        g = sv.skewed_loss_gradient(uniform_profile(pts), sigma, res.point)
        assert np.linalg.norm(g) <= 1e-10

    def test_start_on_voter_does_not_stall(self):
        # The coordinate-wise median, where the solve starts, is the first
        # voter. S and 2S define the same skewed median.
        pts = np.array([
            [-1.123026717269326, -1.0182589777413658],
            [-1.2572391168522856, -0.34497139826697054],
            [1.361196247658805, -1.8179132247570622],
            [-1.0413232879022336, -1.6915465572157609],
            [-1.2047301466364182, -0.14856091003083488],
        ])
        wp = uniform_profile(pts)
        np.testing.assert_array_equal(sv.coordinatewise_median(wp), pts[0])
        half = sv.skewed_geometric_median(wp, np.diag([1.0, 0.5]))
        double = sv.skewed_geometric_median(wp, np.diag([2.0, 1.0]))
        assert half.grad_norm <= 1e-10
        gap = np.linalg.norm(half.point - double.point)
        assert gap <= half.additive_bound + double.additive_bound
        np.testing.assert_allclose(double.point, [-1.119887701386242, -1.0106679445574303],
                                   atol=1e-9)


@hs.composite
def voter_start_cases(draw):
    """A planar profile with duplicated voters whose coordinate-wise median is
    a voter, a random SPD skew S, and a positive factor c."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    base = rng.standard_normal((draw(hs.integers(3, 6)), 2)) * rng.uniform(0.5, 3.0, 2)
    copies = draw(hs.lists(hs.integers(1, 3), min_size=len(base), max_size=len(base)))
    rest = np.repeat(base, copies, axis=0)
    # Adding the lower coordinate-wise median of `rest` as a voter keeps it
    # the coordinate-wise median of the whole profile.
    center = sv.coordinatewise_median(uniform_profile(rest))
    pts = np.vstack([rest, np.repeat(center[None, :], draw(hs.integers(1, 2)), axis=0)])
    theta = draw(hs.floats(0.0, math.pi))
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    eigs = np.exp([draw(hs.floats(-1.5, 1.5)) for _ in range(2)])
    sigma = (rot * eigs) @ rot.T
    return pts, 0.5 * (sigma + sigma.T), draw(hs.floats(0.1, 10.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(voter_start_cases())
def test_skewed_median_from_voter_start(case):
    pts, sigma, c = case
    wp = uniform_profile(pts)
    res = sv.skewed_geometric_median(wp, sigma)
    scaled = sv.skewed_geometric_median(wp, c * sigma)
    assert res.grad_norm <= 1e-10
    # S and cS define the same median. A solve that ends on a voter has no
    # finite certificate; both solves must then pick the same voter.
    bound = res.additive_bound + scaled.additive_bound
    if not np.isfinite(bound):
        bound = 0.0
    assert np.linalg.norm(res.point - scaled.point) <= bound + 1e-12 * wp.scale
    oracle = np.linalg.solve(sigma, grid_refine_median(pts @ sigma.T))
    assert sv.skewed_loss_eval(wp, sigma, res.point) \
        <= sv.skewed_loss_eval(wp, sigma, oracle) + 1e-9


@hs.composite
def voter_init_cases(draw):
    """A planar profile with duplicated voters and one of them as the start."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    base = rng.standard_normal((draw(hs.integers(2, 6)), 2)) * rng.uniform(0.5, 3.0, 2)
    copies = draw(hs.lists(hs.integers(1, 4), min_size=len(base), max_size=len(base)))
    pts = np.repeat(base, copies, axis=0)
    return pts, pts[draw(hs.integers(0, len(pts) - 1))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(voter_init_cases())
def test_median_from_voter_init(case):
    pts, init = case
    wp = uniform_profile(pts)
    res = sv.geometric_median(wp, init=init)
    assert np.linalg.norm(sv.min_norm_subgradient(wp, res.point)) <= 1e-10
    assert res.loss <= sv.loss_eval(wp, grid_refine_median(pts)) + 1e-9


@hs.composite
def homothety_cases(draw):
    """A profile of V 3-60 voters in d 2-6 whose first point has 1 to V
    copies, a majority from V // 2 + 1, and an exponent k."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    v, d = draw(hs.integers(3, 60)), draw(hs.integers(2, 6))
    heavy = draw(hs.integers(1, v))
    base = rng.standard_normal((v - heavy + 1, d)) * rng.uniform(0.1, 3.0, d)
    return np.repeat(base, [heavy] + [1] * (v - heavy), axis=0), draw(hs.integers(-200, 200))


# Scaling by 2^k is exact, so the solve keeps every bit while each pass term
# stays a normal float. With M = max |x|, the solver reads a distance r only
# above 1e-14 M (closer is a voter point) and below 2 sqrt(d) M <= 5 M, so
# r**2 lies in [1e-28 M**2, 25 M**2] and the Hessian coefficient w / r**3,
# w in [1/60, 1], in [1e-4 M**-3, 1e42 M**-3]: normal for M in about
# [1e-88, 1e100]. The Hessian's entries, below 1e14 / M and above about
# 1 / (10 M), stay where LAPACK's eigensolver does not rescale its input
# (1.5e-146 to 6.7e145) for M in about [1e-132, 1e144]. The drawn profiles
# have M in about [1e-2, 1e2], and 2^+-200 is about 1e+-60.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(homothety_cases())
def test_power_of_two_homothety_keeps_every_bit(case):
    pts, k = case
    base = sv.geometric_median(uniform_profile(pts))
    scaled = sv.geometric_median(uniform_profile(np.ldexp(pts, k)))
    np.testing.assert_array_equal(scaled.point, np.ldexp(base.point, k))
    assert scaled.additive_bound == math.ldexp(base.additive_bound, k)
    assert scaled.loss == math.ldexp(base.loss, k)
    assert (scaled.iterations, scaled.grad_norm) == (base.iterations, base.grad_norm)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_nonpositive_tolerance_rejected_by_every_solve(tol):
    wp = uniform_profile(UNIT_TRIANGLE)
    for solve in (lambda: sv.geometric_median(wp, tol),
                  lambda: sv.skewed_geometric_median(wp, np.eye(2), tol),
                  lambda: sv._solve_gm_raw(wp.voters, wp.weights, tol, np.zeros(2))):
        with pytest.raises(ValueError, match="tol_grad must be positive"):
            solve()


def test_skewed_tolerance_that_underflows_rejected():
    # 1e-320 / 2e4 rounds to 0.0: the core tolerance is no longer positive
    with pytest.raises(ValueError, match="tol_grad must be positive"):
        sv.skewed_geometric_median(uniform_profile(UNIT_TRIANGLE), np.diag([2e4, 1.0]), 1e-320)


@pytest.mark.parametrize("entry,name", [
    (sv.loss_eval, "point"),
    (sv.loss_gradient, "point"),
    (sv.loss_hessian, "point"),
    (sv.loss_third_deriv, "point"),
    (sv.min_norm_subgradient, "point"),
    (lambda wp, z: sv.geometric_median(wp, init=z), "init"),
    (lambda wp, z: sv.skewed_loss_eval(wp, np.eye(2), z), "point"),
    (lambda wp, z: sv.skewed_loss_gradient(wp, np.eye(2), z), "point"),
    (lambda wp, z: sv.skewed_loss_hessian(wp, np.eye(2), z), "point"),
], ids=["loss_eval", "loss_gradient", "loss_hessian", "loss_third_deriv",
        "min_norm_subgradient", "geometric_median_init", "skewed_loss_eval",
        "skewed_loss_gradient", "skewed_loss_hessian"])
@pytest.mark.parametrize("z,error,message", [
    ([0.5, 0.5, 0.5], DimensionMismatch, "{} has shape (3,), dim is 2"),
    ([[0.5, 0.5]], DimensionMismatch, "expected a 1-d {}, got shape (1, 2)"),
    ([math.nan, 0.5], ValueError, "{} [nan, 0.5] has non-finite entries"),
], ids=["too-long", "2-d", "nan"])
def test_point_arguments_judged_where_they_enter(entry, name, z, error, message):
    # numpy broadcast a wrong length or a 1 x d point, a NaN point read as
    # NaN and a NaN start failed the solve as if it were the solver's fault
    with pytest.raises(error, match="^" + re.escape(message.format(name)) + "$"):
        entry(uniform_profile(UNIT_TRIANGLE), z)


@pytest.mark.parametrize("entry", [sv.skewed_loss_eval, sv.skewed_loss_gradient,
                                   sv.skewed_loss_hessian])
@pytest.mark.parametrize("sigma,error,message", [
    (np.eye(3), DimensionMismatch, "skew matrix has shape (3, 3), dim is 2"),
    (np.ones(2), DimensionMismatch, "expected a square skew matrix, got shape (2,)"),
    ([[1.0, 0.0], [0.0, math.nan]], NotSPD, "skew matrix has non-finite entries"),
], ids=["3x3", "1-d", "nan"])
def test_skew_matrix_judged_where_it_enters(entry, sigma, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        entry(uniform_profile(UNIT_TRIANGLE), sigma, [0.3, 0.3])


@hs.composite
def rigid_motion_cases(draw):
    """A profile of V 3-60 voters in d 2-6, uniform or weighted, whose first
    point has 1 to 4 copies, plus a translation, a rotation, a scale factor
    with log10 in [-3, 3] and a permutation of the voters."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    v, d = draw(hs.integers(3, 60)), draw(hs.integers(2, 6))
    heavy = min(draw(hs.integers(1, 4)), v - 2)
    base = rng.standard_normal((v - heavy + 1, d)) * rng.uniform(0.1, 3.0, d)
    pts = np.repeat(base, [heavy] + [1] * (v - heavy), axis=0)
    weights = rng.uniform(0.2, 1.0, v) if draw(hs.booleans()) else np.ones(v)
    shift = rng.standard_normal(d) * 10.0 ** rng.uniform(-1.0, 2.0)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return (pts, weights, shift, q * np.sign(np.diag(r)), 10.0 ** rng.uniform(-3.0, 3.0),
            rng.permutation(v))


def test_certificates_cover_translation_and_rotation():
    """Translated, rotated and scaled medians lie within both certificates of
    the moved base median; a permuted profile's median keeps every bit."""
    finite = []

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(rigid_motion_cases())
    def check(case):
        pts, weights, shift, q, lam, perm = case

        def solve(x, w=weights):
            return sv.geometric_median(WeightedProfile(x, w))

        base = solve(pts)
        reach = 1e-12 * np.abs(pts).max()
        rigid = reach + 1e-12 * np.linalg.norm(shift)
        for res, image, factor, slack in (
                (solve(pts + shift), base.point + shift, 1.0, rigid),
                (solve(pts @ q.T), q @ base.point, 1.0, rigid),
                (solve(lam * pts), lam * base.point, lam, lam * reach)):
            bound = factor * base.additive_bound + res.additive_bound
            assert np.linalg.norm(res.point - image) <= bound + slack
            finite.append(math.isfinite(bound))
        permuted = solve(pts[perm], weights[perm])
        np.testing.assert_array_equal(permuted.point, base.point)
        assert (permuted.additive_bound, permuted.loss, permuted.iterations) == \
            (base.additive_bound, base.loss, base.iterations)

    check()
    # A solve that ends on a voter has no finite certificate and checks nothing.
    assert 2 * sum(finite) >= len(finite)
