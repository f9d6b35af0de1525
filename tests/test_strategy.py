import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from medianforge import strategy as st
from medianforge.errors import (
    AtVoterPoint,
    BracketFailure,
    DegenerateDimension,
    DimensionMismatch,
    MajorityAttack,
    NotSPD,
    SolverFailure,
    ZeroVector,
)
from medianforge.linalg import check_spd
from medianforge.profiles import WeightedProfile, uniform_profile
from medianforge.solvers import (
    coordinatewise_median,
    geometric_median,
    loss_gradient,
    loss_hessian,
    loss_third_deriv,
)

from conftest import random_spd


def sphere_grid_skewness(s, resolution=1e-3):
    """Grid the unit sphere in 3-d at the given angular resolution, then
    polish the best cell by ascent; independent of the closed form."""
    s = np.asarray(s, dtype=float)
    assert s.shape == (3, 3)
    n_theta = int(np.pi / resolution) // 40 + 64
    n_phi = 2 * n_theta
    best_val, best_x = -np.inf, None
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    for theta in thetas:
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        xs = np.stack(
            [sin_t * np.cos(phis), sin_t * np.sin(phis), np.full_like(phis, cos_t)],
            axis=1,
        )
        sx = xs @ s.T
        vals = np.linalg.norm(sx, axis=1) / np.einsum("ij,ij->i", xs, sx)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_x = vals[k], xs[k]
    # local polish
    x = best_x.copy()
    step = resolution
    for _ in range(4000):
        sx = s @ x
        val = np.linalg.norm(sx) / (x @ sx)
        grad = (s @ sx) / np.linalg.norm(sx) ** 2 - 2.0 * sx / (x @ sx) + x
        grad -= (grad @ x) * x
        cand = x + step * grad
        cand /= np.linalg.norm(cand)
        scx = s @ cand
        cval = np.linalg.norm(scx) / (cand @ scx)
        if cval > val:
            x = cand
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-14:
                break
    sx = s @ x
    return float(np.linalg.norm(sx) / (x @ sx) - 1.0)


class TestSkewness:
    def test_identity_is_zero(self):
        assert st.skewness(np.eye(3)).value == 0.0

    def test_two_dim_equality(self):
        rep = st.skewness(np.diag([1.0, 4.0]))
        assert rep.value == pytest.approx(0.25, abs=1e-12)
        assert rep.lower_bound <= rep.value + 1e-9
        assert rep.value <= rep.upper_bound + 1e-9

    def test_three_dim_against_sphere_grid(self):
        s = np.diag([1.0, 2.0, 4.0])
        assert st.skewness(s).value == pytest.approx(0.25, abs=1e-9)
        assert sphere_grid_skewness(s) == pytest.approx(0.25, abs=1e-7)

    def test_scale_invariance(self, rng):
        for _ in range(20):
            s = random_spd(rng, 4)
            beta = rng.uniform(0.1, 10.0)
            assert st.skewness(beta * s).value == pytest.approx(
                st.skewness(s).value, abs=1e-9
            )

    def test_closed_form_matches_numeric_oracle(self, rng):
        for d in (2, 3, 5):
            for _ in range(5):
                s = random_spd(rng, d, spread=5.0)
                closed = st.skewness(s).value
                numeric = st.numeric_skewness(s, seed=1)
                assert numeric == pytest.approx(closed, abs=1e-7)

    def test_continuity_under_perturbation(self, rng):
        s = random_spd(rng, 3, spread=3.0)
        base = st.skewness(s).value
        prev_gap = None
        for eps in (1e-2, 1e-4, 1e-6):
            bump = rng.standard_normal((3, 3))
            bump = (bump + bump.T) / 2.0
            bump *= eps / np.max(np.abs(bump))
            gap = abs(st.skewness(s + bump).value - base)
            if prev_gap is not None:
                assert gap <= prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap <= 1e-5

    def test_not_spd_rejected(self):
        with pytest.raises(NotSPD):
            st.skewness(np.diag([1.0, -1.0]))
        with pytest.raises(NotSPD):
            st.skewness(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_iff_ratio_one(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        s = (q * 3.7) @ q.T
        assert st.skewness(s).value <= 1e-9


class TestHessianAtMedian:
    def test_four_corner_formula(self):
        for x in (8.0, 20.0):
            corners = np.repeat(
                np.array([[-x, -1.0], [-x, 1.0], [x, -1.0], [x, 1.0]]), 3, axis=0
            )
            p = uniform_profile(corners)
            h = check_spd(loss_hessian(p, geometric_median(p).point))
            expected = (1.0 + x * x) ** -1.5 * np.diag([1.0, x * x])
            np.testing.assert_allclose(h, expected, atol=1e-9)

    def test_sign_flip_symmetric_profile_is_isotropic(self):
        # all signed unit vectors: symmetric under coordinate permutations
        # and sign flips, so the Hessian estimate is a multiple of I
        pts = np.vstack([np.eye(3), -np.eye(3)])
        p = uniform_profile(pts)
        h = check_spd(loss_hessian(p, geometric_median(p).point))
        off = h - np.eye(3) * h[0, 0]
        assert np.max(np.abs(off)) <= 1e-9


class TestAchievableSet:
    def test_contains_honest_median(self, rng):
        prof = uniform_profile(rng.standard_normal((15, 3)))
        g = geometric_median(prof).point
        assert st.achievable_contains(prof, g)

    @pytest.mark.parametrize("z,error,message", [
        ([0.5, 0.5, 0.5], DimensionMismatch, "point has shape (3,), dim is 2"),
        ([math.nan, 0.5], ValueError, "point [nan, 0.5] has non-finite entries"),
    ])
    def test_bad_point_refused(self, z, error, message):
        prof = uniform_profile(np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]))
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            st.achievable_contains(prof, z)

    def test_far_point_excluded(self, rng):
        prof = uniform_profile(rng.standard_normal((15, 3)))
        assert not st.achievable_contains(prof, np.array([100.0, 100.0, 100.0]))

    def test_membership_fixed_point(self, rng):
        for _ in range(5):
            prof = uniform_profile(rng.standard_normal((12, 3)))
            g = geometric_median(prof).point
            direction = rng.standard_normal(3)
            z = st.boundary_point(prof, g, direction)
            assert st.achievable_contains(prof, z)
            res = geometric_median(uniform_profile(np.vstack([prof.voters, z])))
            assert np.linalg.norm(res.point - z) <= max(res.additive_bound, 1e-9)

    @pytest.mark.parametrize("s", [1e-8, 1e-20])
    def test_boundary_point_follows_the_profile_scale(self, s):
        # The bracket and Brent's tolerance are relative to the voters' spread:
        # an absolute bracket of 1 loses the root as the profile shrinks.
        rng = np.random.default_rng(0)
        pts, u = rng.standard_normal((200, 3)), rng.standard_normal(3)
        unit, tiny = uniform_profile(pts), uniform_profile(pts * s)
        z_unit = st.boundary_point(unit, geometric_median(unit).point, u)
        z = st.boundary_point(tiny, geometric_median(tiny).point, u)
        assert 0.0 <= 1.0 - 200 * np.linalg.norm(loss_gradient(tiny, z)) <= 1e-13
        assert np.linalg.norm(z / s - z_unit) <= 1e-13 * np.linalg.norm(z_unit)

    def test_pull_inside_lands_on_the_inside_of_the_boundary(self, rng):
        prof = uniform_profile(rng.standard_normal((15, 3)))
        g = geometric_median(prof).point
        for u in rng.standard_normal((5, 3)):
            z = g + 3.0 * u / np.linalg.norm(u)
            assert st._excess(prof, z) > 0.0
            pulled = st._pull_inside(prof, g, z)
            assert st._excess(prof, pulled) <= 0.0
            # on the segment from g to z, and the last point inside along it
            t = (pulled - g) @ (z - g) / ((z - g) @ (z - g))
            assert 0.0 < t < 1.0 and np.allclose(pulled, g + t * (z - g), rtol=0, atol=1e-15)
            assert st._excess(prof, g + (t + 1e-9) * (z - g)) > 0.0
        for z in (g, g + 1e-3 * rng.standard_normal(3)):
            assert st._excess(prof, z) <= 0.0
            assert st._pull_inside(prof, g, z) is z

    def test_excess_is_measured_against_one_over_v(self, rng):
        prof = uniform_profile(rng.standard_normal((15, 3)))
        z = rng.standard_normal(3)
        assert st._excess(prof, z) == np.linalg.norm(loss_gradient(prof, z)) - 1.0 / 15

    def test_unreachable_level_is_a_bracket_failure(self):
        # off its voter, one voter's loss gradient is a unit vector: its norm
        # is 1 = 1/V everywhere, so the ray never leaves the set
        prof = uniform_profile(np.array([[0.5, -1.0, 2.0]]))
        with pytest.raises(BracketFailure, match="could not bracket"):
            st.boundary_point(prof, prof.voters[0], np.eye(3)[0])

    def test_center_outside_the_set_is_a_bracket_failure(self, rng):
        prof = uniform_profile(rng.standard_normal((12, 3)))
        center = np.array([5.0, 0.0, 0.0])
        assert not st.achievable_contains(prof, center)
        with pytest.raises(BracketFailure, match=re.escape(
                "center [5.0, 0.0, 0.0] is outside the achievable set")):
            st.boundary_point(prof, center, np.ones(3))

    def test_zero_direction_refused(self, rng):
        prof = uniform_profile(rng.standard_normal((12, 3)))
        g = geometric_median(prof).point
        with pytest.raises(ZeroVector, match=re.escape("direction [0.0, -0.0, 0.0] is zero")):
            st.boundary_point(prof, g, np.array([0.0, -0.0, 0.0]))

    @pytest.mark.parametrize("scale", [1e200, 1e-170], ids=["overflows", "underflows"])
    def test_direction_whose_square_leaves_the_floats(self, rng, scale):
        # u . u is inf or 0 here; the ray is the same as along (1, 1, 1)
        prof = uniform_profile(rng.standard_normal((12, 3)))
        g = geometric_median(prof).point
        expected = st.boundary_point(prof, g, np.ones(3))
        np.testing.assert_array_equal(st.boundary_point(prof, g, np.full(3, scale)), expected)

    @pytest.mark.parametrize("direction", [np.ones(2), np.ones(4), np.ones((1, 3))])
    def test_direction_of_wrong_shape_refused(self, rng, direction):
        prof = uniform_profile(rng.standard_normal((12, 3)))
        g = geometric_median(prof).point
        with pytest.raises(DimensionMismatch, match="direction"):
            st.boundary_point(prof, g, direction)


class TestBestResponse:
    def test_center_of_symmetry_gains_nothing(self):
        pts = np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0], [3.0, 1.0], [-3.0, -1.0]]
        )
        rep = st.best_response(np.zeros(2), uniform_profile(pts), seed=0)
        assert rep.gain_alpha == pytest.approx(0.0, abs=1e-9)
        assert rep.exact_capture

    def test_achievable_preference_captured_exactly(self, rng):
        prof = uniform_profile(rng.standard_normal((10, 2)))
        g = geometric_median(prof).point
        rep = st.best_response(g, prof, seed=0)
        assert rep.exact_capture
        assert rep.strategic_dist <= 1e-8
        assert rep.truthful_dist <= 1e-8

    def test_gain_nonnegative_and_median_achievable(self, rng):
        for trial in range(4):
            prof = uniform_profile(rng.standard_normal((12, 2)))
            theta0 = rng.standard_normal(2) * 0.3
            rep = st.best_response(theta0, prof, seed=trial)
            assert rep.gain_alpha >= -1e-9
            assert st.achievable_contains(prof, rep.manipulated_median)

    @pytest.mark.parametrize("far", [1e154, 1e155])
    def test_theta0_whose_distance_overflows_rejected(self, far):
        prof = uniform_profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=re.escape(f"theta0 [{far!r}, {far!r}] is too far")):
            st.best_response(np.full(2, far), prof, restarts=1)

    @pytest.mark.parametrize("restarts", [0, -1, 2.5, True])
    def test_restarts_below_one_rejected_before_any_solve(self, restarts, monkeypatch):
        monkeypatch.setattr(st, "_solve_gm", None)
        prof = uniform_profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        message = (f"restarts must be >= 1, got {restarts}" if type(restarts) is int
                   else f"restarts: expected an integer, got {restarts!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            st.best_response(np.full(2, 2.0), prof, restarts=restarts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_theta0_rejected_before_any_solve(self, bad, monkeypatch):
        monkeypatch.setattr(st, "_solve_gm", None)
        prof = uniform_profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"theta0 \[.*\] has non-finite entries"):
            st.best_response(np.array([bad, 0.0]), prof, restarts=1)

    @pytest.mark.parametrize("vote,error", [([1.0, 2.0, 3.0], DimensionMismatch),
                                            ([math.nan, 0.0], ValueError)])
    def test_bad_extra_vote_rejected_before_any_solve(self, vote, error, monkeypatch):
        monkeypatch.setattr(st, "_solve_gm", None)
        prof = uniform_profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(error, match=r"^extra vote 1 "):
            st.best_response(np.full(2, 2.0), prof, restarts=1,
                             extra_votes=[[0.5, 0.5], vote])

    def test_far_theta0_still_runs(self):
        prof = uniform_profile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rep = st.best_response(np.full(2, 1e150), prof, restarts=1)
        assert rep.truthful_dist == pytest.approx(math.sqrt(2.0) * 1e150, rel=1e-12)

    def test_paths_agree_on_small_instances(self, rng):
        worst = 0.0
        for trial in range(5):
            v = int(rng.integers(10, 50))
            prof = uniform_profile(rng.standard_normal((v, 2)))
            g = geometric_median(prof).point
            u = rng.standard_normal(2)
            z_b = st.boundary_point(prof, g, u)
            outward = v * loss_gradient(prof, z_b)
            theta0 = z_b + (3.0 / v) * outward / np.linalg.norm(outward)
            rep = st.best_response(theta0, prof, seed=trial)
            proj = rep.candidates["projection"]["dist"]
            black = rep.candidates["blackbox"]["dist"]
            worst = max(worst, abs(proj - black) / max(proj, black))
        assert worst <= 0.02

    def test_blackbox_matches_vote_grid_oracle(self, rng):
        # exhaustive scan over strategic votes on a 2-d instance
        prof = uniform_profile(rng.standard_normal((8, 2)))
        g = geometric_median(prof).point
        theta0 = g + np.array([0.35, -0.2])
        rep = st.best_response(theta0, prof, seed=3)
        span = np.linspace(-0.8, 0.8, 33)
        best_grid = np.inf
        for dx in span:
            for dy in span:
                vote = theta0 + np.array([dx, dy])
                res = geometric_median(
                    uniform_profile(np.vstack([prof.voters, vote])), 1e-9
                )
                best_grid = min(best_grid, np.linalg.norm(res.point - theta0))
        assert rep.strategic_dist <= best_grid + 1e-6

    def test_failed_blackbox_solve_does_not_end_the_search(self, rng, monkeypatch):
        # One Nelder-Mead evaluation's 1e-8 solve fails; the search goes on
        # and the winner is still certified at 1e-10.
        prof = uniform_profile(rng.standard_normal((8, 2)))
        theta0 = geometric_median(prof).point + np.array([0.35, -0.2])
        calls = []
        solve = st._solve_gm_raw

        def fails_once(*args):
            calls.append(1)
            if len(calls) == 5:
                raise SolverFailure("geometric-median solve stalled")
            return solve(*args)

        monkeypatch.setattr(st, "_solve_gm_raw", fails_once)
        rep = st.best_response(theta0, prof, seed=3)
        assert len(calls) > 5
        assert math.isfinite(rep.strategic_dist)
        assert rep.manipulated_grad_norm <= 1e-10

    def test_gain_invariant_under_translation(self, rng):
        pts = rng.standard_normal((14, 2))
        prof = uniform_profile(pts)
        g = geometric_median(prof).point
        theta0 = g + np.array([0.3, 0.1])
        s = np.diag([2.0, 1.0])
        rep0 = st.best_response(theta0, prof, s=s, seed=5)
        tau = np.array([10.0, -4.0])
        rep1 = st.best_response(theta0 + tau, uniform_profile(pts + tau), s=s, seed=5)
        assert rep1.gain_alpha == pytest.approx(rep0.gain_alpha, rel=1e-3, abs=1e-6)

    def test_degenerate_profile_rejected(self):
        line = np.outer(np.arange(5.0), [1.0, 0.0])
        with pytest.raises(DegenerateDimension):
            st.best_response(np.array([0.0, 1.0]), uniform_profile(line))

    def test_gain_is_scale_free(self):
        # theta0 just outside the achievable set of 200 voters in the unit
        # 5-ball; the same case shrunk to 1e-20 keeps the gain.
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((200, 5))
        pts *= rng.uniform(size=(200, 1)) ** 0.2 / np.linalg.norm(pts, axis=1, keepdims=True)
        prof = uniform_profile(pts)
        g = geometric_median(prof).point
        z_b = st.boundary_point(prof, g, rng.standard_normal(5))
        outward = loss_gradient(prof, z_b)
        theta0 = z_b + (1.5 / 200) * outward / np.linalg.norm(outward)
        unit = st.best_response(theta0, prof, seed=0).gain_alpha
        tiny = st.best_response(theta0 * 1e-20, uniform_profile(pts * 1e-20), seed=0).gain_alpha
        assert unit > 1e-5
        assert tiny == pytest.approx(unit, rel=1e-9)

    def test_theta0_of_wrong_length_rejected(self):
        triangle = uniform_profile(np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]))
        for theta0 in (np.zeros(3), np.zeros(1), np.zeros((1, 2))):
            with pytest.raises(DimensionMismatch):
                st.best_response(theta0, triangle)


class TestConditionChecker:
    def test_isotropic_sample_passes(self, rng):
        pts = rng.standard_normal((1000, 5))
        prof = uniform_profile(pts)
        h = check_spd(loss_hessian(prof, geometric_median(prof).point))
        lam_min = float(np.linalg.eigvalsh(h)[0])
        beta = 2.0 / (lam_min * prof.count)
        rep = st.condition_checker(prof, beta, seed=1)
        assert rep.all_ok
        assert rep.alpha == pytest.approx(st.skewness(h).value, abs=0.05)

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_nonpositive_beta_rejected(self, beta):
        prof = uniform_profile(np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]))
        with pytest.raises(ValueError, match="^beta must be positive$"):
            st.condition_checker(prof, beta)

    def test_close_voter_fails_condition_one(self, rng):
        pts = rng.standard_normal((200, 5))
        prof = uniform_profile(pts)
        g = geometric_median(prof).point
        beta = 0.5
        sabotage = np.vstack([pts, g + 0.1 * beta * np.ones(5) / math.sqrt(5.0)])
        rep = st.condition_checker(uniform_profile(sabotage), beta, seed=1)
        assert not rep.smooth_ok
        assert not rep.all_ok

    def test_convexity_condition_implies_segment_inequality(self, rng):
        pts = rng.standard_normal((500, 5))
        prof = uniform_profile(pts)
        h = check_spd(loss_hessian(prof, geometric_median(prof).point))
        beta = 2.0 / (float(np.linalg.eigvalsh(h)[0]) * prof.count)
        rep = st.condition_checker(prof, beta, seed=2)
        assert rep.convexity_ok
        g = geometric_median(prof).point
        sq = lambda z: np.linalg.norm(loss_gradient(prof, z)) ** 2
        for _ in range(20):
            u, v = rng.standard_normal((2, 5))
            a = g + beta * u / np.linalg.norm(u) * rng.random()
            b = g + beta * v / np.linalg.norm(v) * rng.random()
            mid = 0.5 * (a + b)
            assert sq(mid) <= 0.5 * (sq(a) + sq(b)) + 1e-9

    def test_hessian_that_is_not_spd_fails_the_skew_condition(self):
        # Off a line of voters, at r <= beta from the median, the Hessian's
        # across-line eigenvalue is about (r / distance)^2 of its largest,
        # far below rounding: the samples read Hessians that are not SPD.
        line = np.outer([-3.0, -2.0, -1.0, 1.0, 2.5, 4.0], [1.0, -2.0]) + 0.25
        prof = uniform_profile(line)
        rep = st.condition_checker(prof, 1e-9, seed=0)
        assert rep.smooth_ok and not rep.skew_ok and not rep.all_ok
        with pytest.raises(NotSPD):
            check_spd(loss_hessian(prof, rep.worst_points["skew"]))

    def test_negative_curvature_fails_convexity(self):
        # ||grad L||^2 bends down near the triangle's voters
        prof = uniform_profile(np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]))
        rep = st.condition_checker(prof, 0.7, seed=0)
        assert rep.smooth_ok and rep.skew_ok
        assert rep.min_curvature_eig < 0.0 and not rep.convexity_ok and not rep.all_ok
        # a second difference of ||grad L||^2 at the worst point agrees
        z = rep.worst_points["curvature"]
        h, grad = loss_hessian(prof, z), loss_gradient(prof, z)
        m = h @ h + loss_third_deriv(prof, z) @ grad
        lam, vecs = np.linalg.eigh(0.5 * (m + m.T))
        assert lam[0] == pytest.approx(rep.min_curvature_eig, rel=1e-12)
        sq = lambda x: float(np.sum(loss_gradient(prof, x) ** 2))
        step = 1e-4 * vecs[:, 0]
        assert sq(z + step) - 2.0 * sq(z) + sq(z - step) < 0.0

    def test_voter_in_the_ball_fails_smoothness(self, rng, monkeypatch):
        # No profile puts a voter in the sampling ball once the median is
        # 2 beta from every voter, so the 10th sampled pass says it is on one.
        prof = uniform_profile(rng.standard_normal((300, 3)))
        clean = st.condition_checker(prof, 0.01, seed=4)
        evaluate, calls = st._evaluate, []

        class OnVoter:
            def gradient(self):
                raise AtVoterPoint("evaluation point coincides with a voter's point")

        def tenth_on_voter(profile, z):
            calls.append(z)
            return OnVoter() if len(calls) == 10 else evaluate(profile, z)

        monkeypatch.setattr(st, "_evaluate", tenth_on_voter)
        rep = st.condition_checker(prof, 0.01, seed=4)
        assert clean.all_ok and len(calls) == 10
        assert not (rep.smooth_ok or rep.convexity_ok or rep.skew_ok)
        # the shell is sampled first: its slope and verdict stand
        assert (rep.min_shell_slope, rep.containment_ok) == (clean.min_shell_slope, True)
        # the extremes of the 9 samples before the voter
        assert rep.min_curvature_eig >= clean.min_curvature_eig
        assert 0.0 < rep.alpha <= clean.alpha


class TestByzantineBound:
    def test_no_strategic_is_max_distance(self, rng):
        prof = uniform_profile(rng.standard_normal((6, 2)))
        g = geometric_median(prof).point
        delta = np.max(np.linalg.norm(prof.voters - g, axis=1))
        assert st.byzantine_bound(prof, 0) == pytest.approx(float(delta))

    def test_three_one_formula(self, rng):
        prof = uniform_profile(rng.standard_normal((3, 2)))
        ratio = st.byzantine_bound(prof, 1) / st.byzantine_bound(prof, 0)
        assert ratio == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), abs=1e-12)

    def test_majority_rejected(self, rng):
        prof = uniform_profile(rng.standard_normal((3, 2)))
        with pytest.raises(MajorityAttack):
            st.byzantine_bound(prof, 3)

    def test_monte_carlo_never_escapes(self, rng):
        prof = uniform_profile(rng.standard_normal((11, 2)))
        g = geometric_median(prof).point
        radius = st.byzantine_bound(prof, 5)
        for trial in range(50):
            attack = rng.standard_normal((5, 2)) * rng.uniform(1.0, 1e4)
            res = geometric_median(uniform_profile(np.vstack([prof.voters, attack])))
            assert np.linalg.norm(res.point - g) <= radius + 1e-9


@pytest.mark.parametrize("entry", [
    lambda p: st.best_response(np.full(2, 2.0), p, restarts=1),
    lambda p: st.achievable_contains(p, np.zeros(2)),
    lambda p: st.condition_checker(p, 0.1),
    lambda p: st.byzantine_bound(p, 1),
], ids=["best_response", "achievable_contains", "condition_checker", "byzantine_bound"])
def test_unequal_weights_rejected_before_any_solve(entry, monkeypatch):
    # each counts voters as unit forces (radius 1/V, or S/T) and would ignore the weights
    monkeypatch.setattr(st, "_solve_gm", None)
    prof = WeightedProfile([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                           [5.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="^one voter, one unit force: the profile's "
                                         "weights are not all equal$"):
        entry(prof)


class TestNoShoe:
    def test_matrices_of_different_sizes_rejected(self):
        with pytest.raises(DimensionMismatch):
            st.no_shoe_check(np.eye(2), np.eye(3))

    def test_proportional_is_compatible(self):
        s = np.diag([2.0, 1.0])
        rep = st.no_shoe_check(s, 2.0 * s)
        assert not rep.incompatible
        assert rep.skew_value == pytest.approx(0.0, abs=1e-9)

    def test_crossed_diagonals(self):
        rep = st.no_shoe_check(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        assert rep.incompatible
        assert rep.skew_value == pytest.approx(1.125, abs=1e-12)

    def test_random_nonproportional_positive(self, rng):
        for _ in range(20):
            sv_ = random_spd(rng, 3)
            sw = random_spd(rng, 3)
            rep = st.no_shoe_check(sv_, sw)
            assert rep.skew_value > 1e-9
            assert rep.incompatible


class TestHullDistance:
    @pytest.mark.parametrize("z,error,message", [
        ([0.5, 0.5, 0.5], DimensionMismatch, "point has shape (3,), dim is 2"),
        ([math.nan, 0.5], ValueError, "point [nan, 0.5] has non-finite entries"),
    ])
    def test_bad_point_refused(self, z, error, message):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            st.hull_distance(square, z)

    @pytest.mark.parametrize("points", [np.ones(3), np.ones((1, 1, 3))], ids=["1-d", "3-d"])
    def test_points_not_v_by_d_refused(self, points):
        message = f"expected a (V, d) array of voters, got shape {points.shape}"
        with pytest.raises(DimensionMismatch, match="^" + re.escape(message) + "$"):
            st.hull_distance(points, np.ones(3))

    def test_inside_and_outside(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert st.hull_distance(square, [0.5, 0.5]) <= 1e-9
        assert st.hull_distance(square, [2.0, 0.5]) == pytest.approx(1.0, abs=1e-6)

    def test_cw_median_escapes_simplex_hull(self):
        simplex = np.eye(3)
        dist = st.hull_distance(simplex, np.zeros(3))
        assert dist == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)

    def test_nnls_failure_is_a_solver_failure(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr("scipy.optimize.nnls", fail)
        with pytest.raises(SolverFailure):
            st.hull_distance(np.eye(3), np.zeros(3))

    @pytest.mark.parametrize("seed,method", [(6, "cw"), (13, "cw"), (7, "gm"), (15, "gm")])
    def test_medians_of_far_offset_profiles_are_inside(self, seed, method):
        # a linear-program solver reported a solve error on these profiles
        x = np.random.default_rng(seed).standard_normal((40, 3)) * 1e9 + 5e9
        prof = uniform_profile(x)
        z = coordinatewise_median(prof) if method == "cw" else geometric_median(prof).point
        assert st.hull_distance(x, z) <= 1e-12 * prof.scale

    def test_inside_points_at_small_scale(self):
        # an absolute stopping test would leave these up to 4e-9 away
        for seed in range(40):
            rng = np.random.default_rng(seed)
            v_count, d = int(rng.integers(3, 40)), int(rng.integers(2, 8))
            x = rng.standard_normal((v_count, d)) * 1e-6
            z = rng.dirichlet(np.full(v_count, rng.choice([0.1, 1.0]))) @ x
            assert st.hull_distance(x, z) <= 1e-15


@hs.composite
def hull_cases(draw):
    """Points, a convex combination of them, an outside point with the unit
    normal u of a hyperplane separating it from the points, and a factor."""
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    v_count, d = draw(hs.integers(1, 30)), draw(hs.integers(1, 6))
    x = rng.standard_normal((v_count, d)) * rng.uniform(0.2, 5.0, d) + rng.uniform(-3, 3, d)
    inside = rng.dirichlet(np.full(v_count, draw(hs.sampled_from([0.1, 1.0])))) @ x
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    outside = x.mean(axis=0) + u * (np.max((x - x.mean(axis=0)) @ u)
                                    + draw(hs.floats(0.01, 10.0)))
    return x, inside, outside, u, 10.0 ** draw(hs.floats(-3.0, 9.0))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(hull_cases())
def test_hull_distance_bounds_and_scaling(case):
    x, inside, outside, u, factor = case
    scale = max(1.0, float(np.max(np.abs(x))))
    assert st.hull_distance(x, inside) <= 1e-12 * scale
    dist = st.hull_distance(x, outside)
    separation = float(u @ outside - np.max(x @ u))
    nearest_vertex = float(np.min(np.linalg.norm(x - outside, axis=1)))
    assert separation - 1e-12 * scale <= dist <= nearest_vertex + 1e-12 * scale
    scaled = st.hull_distance(factor * x, factor * outside)
    assert scaled == pytest.approx(factor * dist, rel=1e-12)
