"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity next to its threshold.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import os
import time

import numpy as np

from medianforge import simulate as sim
from medianforge import solvers as sv
from medianforge import strategy as st
from medianforge import vectorcalc as vc
from medianforge.profiles import uniform_profile

from conftest import fd_gradient, fd_jacobian, grid_refine_median, random_spd

WORKERS = min(8, os.cpu_count() or 1)


def check(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def four_corner(x, copies=1):
    corners = np.array([[-x, -1.0], [-x, 1.0], [x, -1.0], [x, 1.0]])
    return uniform_profile(np.repeat(corners, copies, axis=0))


def test_criterion_01_adversarial_instance_reproduction():
    x, v = 20.0, 2000
    start = time.time()
    report = sim.theorem1_experiment(x, [v], parallel=1)
    elapsed = time.time() - start
    row = report.rows[0]
    bound = (x * x - 8.0 * x + 1.0) / (8.0 * x)
    rel_err = abs(row["truthful_dist"] - v**-1.5) / v**-1.5
    check(
        "criterion 1a (strategic gain)",
        row["gain_alpha"] >= bound,
        f"gain {row['gain_alpha']:.4f} >= {bound:.5f}",
    )
    check(
        "criterion 1b (truthful distance)",
        rel_err <= 1e-6,
        f"relative error {rel_err:.2e} <= 1e-6 against V^-1.5",
    )
    check(
        "criterion 1c (runtime)",
        elapsed < 60.0,
        f"{elapsed:.1f} s single-threaded < 60 s",
    )


def test_criterion_02_gain_ratio_law():
    x = 20.0
    grid = [500, 1000, 2000, 4000]
    report = sim.theorem1_experiment(x, grid, parallel=WORKERS)
    limit = (1.0 + x * x) / (4.0 * x)
    ratios = [r["ratio"] for r in report.rows]
    gaps = [abs(r - limit) for r in ratios]
    check(
        "criterion 2 (ratio converges)",
        gaps[-1] <= 0.15 and all(b <= a for a, b in zip(gaps, gaps[1:])),
        f"ratios {['%.4f' % r for r in ratios]} -> {limit:.4f}, final gap {gaps[-1]:.4f} <= 0.15",
    )


def test_criterion_03_four_corner_hessian_formula():
    worst = 0.0
    for x in (8.0, 20.0):
        h = sv.loss_hessian(four_corner(x), np.zeros(2))
        expected = (1.0 + x * x) ** -1.5 * np.diag([1.0, x * x])
        worst = max(worst, float(np.max(np.abs(h - expected))))
    check("criterion 3 (Hessian formula)", worst <= 1e-9,
          f"max deviation {worst:.2e} <= 1e-9 for X in {{8, 20}}")


def test_criterion_04_skewness_equality():
    worst_2d = 0.0
    for lam in (1.0, 2.0, 4.0, 64.0, 400.0):
        value = st.skewness(np.diag([1.0, lam])).value
        closed = (1.0 + lam) / (2.0 * math.sqrt(lam)) - 1.0
        worst_2d = max(worst_2d, abs(value - closed))
    check("criterion 4a (2-d equality)", worst_2d <= 1e-9,
          f"max deviation {worst_2d:.2e} <= 1e-9")

    rng = np.random.default_rng(404)
    worst_nd = 0.0
    for d in (3, 5, 8):
        mats = [random_spd(rng, d, spread=6.0) for _ in range(3)]
        mats.append(np.diag(np.linspace(1.0, 5.0, d)))
        for s in mats:
            closed = st.skewness(s).value
            oracle = st.numeric_skewness(s, seed=7)
            worst_nd = max(worst_nd, abs(closed - oracle))
    check("criterion 4b (sphere oracle, d in {3,5,8})", worst_nd <= 1e-7,
          f"max closed-vs-oracle gap {worst_nd:.2e} <= 1e-7")


def test_criterion_05_byzantine_ball():
    dist = sim.PreferenceDistribution("isotropic-gaussian", 3)
    all_ok = True
    details = []
    for v_t, v_s in ((3, 1), (11, 5), (101, 49)):
        rep = sim.byzantine_experiment(dist, v_t, v_s, trials=500, seed=55,
                                       parallel=WORKERS)
        all_ok &= rep.summary["all_within_bound"]
        details.append(
            f"({v_t},{v_s}): max disp {rep.summary['max_displacement']:.3f}"
            f" <= bound {rep.summary['max_bound']:.3f}"
        )
    check("criterion 5a (ball never escaped)", all_ok, "; ".join(details))

    prof = sim.sample_profile(dist, 9, 123)
    g = sv.geometric_median(prof).point
    delta = float(np.max(np.linalg.norm(prof.voters - g, axis=1)))
    radius0 = st.byzantine_bound(prof, 0)
    check("criterion 5b (zero strategic radius)", radius0 == delta,
          f"radius {radius0!r} equals max voter distance exactly")


def test_criterion_06_asymptotic_statistical_bound():
    dist = sim.PreferenceDistribution("diagonal-gaussian", 5, sigmas=(1, 1, 1, 1, 4))
    cfg = sim.ExperimentConfig(dist, V_grid=(1000,), trials=200, seed=2026,
                               epsilon=0.1, delta=0.05)
    start = time.time()
    report = sim.asymptotic_experiment(cfg, parallel=WORKERS)
    elapsed = time.time() - start
    summary = report.summary["1000"]
    check(
        "criterion 6a (bound fraction)",
        summary["completed"] == 200 and summary["fraction_within_bound"] >= 0.95,
        f"{summary['fraction_within_bound']:.3f} of {summary['completed']} trials"
        f" within Skew(H)+0.1 (need >= 0.95); max gain {summary['max_gain']:.4f},"
        f" mean skew {summary['mean_skew_closed']:.4f}",
    )
    budget = 600.0 * 8.0 / WORKERS  # stated target is 10 min at 8-way parallelism
    check("criterion 6b (runtime)", elapsed < budget,
          f"{elapsed:.0f} s with {WORKERS} workers < {budget:.0f} s scaled budget")


def test_criterion_07_grid_oracle_equivalence():
    rng = np.random.default_rng(707)
    worst_excess = -np.inf
    for _ in range(50):
        v = int(rng.integers(3, 8))
        pts = rng.standard_normal((v, 2)) * rng.uniform(0.5, 2.0)
        wp = uniform_profile(pts)
        res = sv.geometric_median(wp)
        oracle = grid_refine_median(pts, resolution=1e-7)
        excess = np.linalg.norm(res.point - oracle) - res.additive_bound
        worst_excess = max(worst_excess, float(excess))
        assert res.loss <= sv.loss_eval(wp, oracle) + 1e-12
    check(
        "criterion 7 (oracle equivalence)",
        worst_excess <= 1e-7,
        f"worst ||gm - oracle|| - additive_bound = {worst_excess:.2e}"
        f" <= 1e-7 oracle resolution; solver loss never above oracle loss",
    )


def test_criterion_08_loss_derivative_stack():
    rng = np.random.default_rng(808)
    worst = 0.0
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 5))
        v = int(rng.integers(4, 10))
        pts = rng.standard_normal((v, d))
        wp = uniform_profile(pts)
        z = rng.standard_normal(d) * 1.5
        if np.min(np.linalg.norm(pts - z, axis=1)) < 0.05:
            continue
        g = sv.loss_gradient(wp, z)
        g_fd = fd_gradient(lambda y: sv.loss_eval(wp, y), z)
        h = sv.loss_hessian(wp, z)
        h_fd = fd_jacobian(lambda y: sv.loss_gradient(wp, y), z)
        t = sv.loss_third_deriv(wp, z)
        t_fd = fd_jacobian(lambda y: sv.loss_hessian(wp, y), z, h=1e-5)
        for exact, fd in ((g, g_fd), (h, h_fd), (t, t_fd)):
            denom = max(np.max(np.abs(exact)), 1e-3)
            worst = max(worst, float(np.max(np.abs(exact - fd)) / denom))
        checked += 1
    check("criterion 8 (derivative stack)", worst <= 1e-5,
          f"worst relative FD deviation {worst:.2e} <= 1e-5 on 100 points")


def test_criterion_09_invariance_suite():
    rng = np.random.default_rng(909)

    pts = rng.standard_normal((12, 3))
    perm = rng.permutation(12)
    a, b = uniform_profile(pts), uniform_profile(pts[perm])
    bitwise = (
        np.array_equal(sv.average(a), sv.average(b))
        and np.array_equal(sv.coordinatewise_median(a), sv.coordinatewise_median(b))
        and np.array_equal(sv.geometric_median(a).point, sv.geometric_median(b).point)
    )
    check("criterion 9a (anonymity)", bitwise, "all aggregates bit-identical under permutation")

    worst = 0.0
    for _ in range(20):
        base_pts = rng.standard_normal((7, 2))
        lam = rng.uniform(0.5, 3.0)
        tau = rng.standard_normal(2)
        base, moved = uniform_profile(base_pts), uniform_profile(lam * base_pts + tau)
        worst = max(
            worst,
            float(np.max(np.abs(sv.average(moved) - (lam * sv.average(base) + tau)))),
            float(np.max(np.abs(
                sv.coordinatewise_median(moved)
                - (lam * sv.coordinatewise_median(base) + tau)))),
            float(np.max(np.abs(
                sv.geometric_median(moved).point
                - (lam * sv.geometric_median(base).point + tau)))),
        )
    check("criterion 9b (translation/homothety)", worst <= 1e-9,
          f"worst equivariance defect {worst:.2e} <= 1e-9")

    tri = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]])
    rot = (math.sqrt(2.0) / 2.0) * np.array([[1.0, -1.0], [1.0, 1.0]])
    cw_rot = sv.coordinatewise_median(uniform_profile(tri @ rot.T))
    rot_cw = rot @ sv.coordinatewise_median(uniform_profile(tri))
    expected_cw_rot = (math.sqrt(2.0) / 2.0) * np.array([0.0, 3.0])
    expected_rot_cw = (math.sqrt(2.0) / 2.0) * np.array([0.0, 2.0])
    ok = (
        np.max(np.abs(cw_rot - expected_cw_rot)) <= 1e-12
        and np.max(np.abs(rot_cw - expected_rot_cw)) <= 1e-12
        and np.linalg.norm(cw_rot - rot_cw) > 0.5
    )
    check("criterion 9c (CW rotation counterexample)", ok,
          f"Cw(R profile) = {cw_rot.tolist()} != R Cw(profile) = {rot_cw.tolist()}")

    worst_hull = 0.0
    for _ in range(200):
        v = int(rng.integers(3, 12))
        d = int(rng.integers(2, 4))
        sample = rng.standard_normal((v, d))
        wp = uniform_profile(sample)
        res = sv.geometric_median(wp)
        tol = max(res.additive_bound, 1e-9) if np.isfinite(res.additive_bound) else 1e-9
        worst_hull = max(worst_hull, st.hull_distance(sample, res.point) - tol)
        worst_hull = max(worst_hull, st.hull_distance(sample, sv.average(wp)) - 1e-9)
    check("criterion 9d (hull membership)", worst_hull <= 0.0,
          f"worst hull-distance excess {worst_hull:.2e} <= 0 on 200 profiles")


def test_criterion_10_average_approximation_bound():
    rng = np.random.default_rng(1010)
    ok = True
    worst_margin = np.inf
    for _ in range(200):
        v = int(rng.integers(3, 25))
        d = int(rng.integers(2, 5))
        pts = rng.standard_normal((v, d)) * rng.uniform(0.2, 5.0)
        wp = uniform_profile(pts)
        avg = sv.average(wp)
        bound = math.sqrt(np.trace(np.cov(pts.T, bias=True))) if v > 1 else 0.0
        gm = sv.geometric_median(wp).point
        cw = sv.coordinatewise_median(wp)
        ok &= np.linalg.norm(avg - gm) <= bound + 1e-9
        ok &= np.linalg.norm(avg - cw) <= bound + 1e-9
        worst_margin = min(
            worst_margin,
            bound - np.linalg.norm(avg - gm),
            bound - np.linalg.norm(avg - cw),
        )
    check("criterion 10 (average approximation)", ok,
          f"both medians within sqrt(tr cov) on 200 profiles; min margin {worst_margin:.3f}")


def test_criterion_11_lp_duality():
    rng = np.random.default_rng(1111)
    p_choices = [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, np.inf]
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        z = rng.standard_normal(d) * rng.uniform(0.01, 100.0)
        p = p_choices[int(rng.integers(0, len(p_choices)))]
        g = vc.lp_gradient(z, p)
        q = np.inf if p == 1.0 else (1.0 if p == np.inf else p / (p - 1.0))
        worst = max(worst, abs(vc.lp_norm(g, q) - 1.0))
    check("criterion 11 (lp/lq duality)", worst <= 1e-10,
          f"worst |dual norm - 1| = {worst:.2e} <= 1e-10 over 1000 pairs")


def test_criterion_12_skewed_median_identity():
    rng = np.random.default_rng(1212)
    ok_median = True
    worst_hessian = 0.0
    for _ in range(100):
        v = int(rng.integers(4, 12))
        d = int(rng.integers(2, 5))
        pts = rng.standard_normal((v, d))
        sigma = random_spd(rng, d, spread=3.0)
        wp = uniform_profile(pts)
        direct = sv.skewed_geometric_median(wp, sigma)
        mapped = sv.geometric_median(uniform_profile(pts @ sigma.T))
        back = np.linalg.solve(sigma, mapped.point)
        tol = direct.additive_bound + np.linalg.norm(np.linalg.inv(sigma), 2) \
            * mapped.additive_bound
        if not np.isfinite(tol):
            tol = 1e-7
        ok_median &= np.linalg.norm(direct.point - back) <= max(tol, 1e-9)

        z = rng.standard_normal(d) * 2.0
        if np.min(np.linalg.norm(pts - z, axis=1)) < 0.05:
            continue
        lhs = sv.skewed_loss_hessian(wp, sigma, z)
        rhs = sigma @ sv.loss_hessian(uniform_profile(pts @ sigma.T), sigma @ z) @ sigma
        worst_hessian = max(worst_hessian, float(np.max(np.abs(lhs - rhs))))
    check("criterion 12a (skewed median identity)", ok_median,
          "direct skewed solve equals inverse-mapped plain solve on 100 pairs")
    check("criterion 12b (skewed Hessian identity)", worst_hessian <= 1e-9,
          f"worst composition deviation {worst_hessian:.2e} <= 1e-9")


def test_criterion_13_no_shoe():
    rng = np.random.default_rng(1313)
    min_posi = np.inf
    for _ in range(100):
        d = int(rng.integers(2, 5))
        s_v = random_spd(rng, d)
        s_w = random_spd(rng, d)
        rep = st.no_shoe_check(s_v, s_w)
        min_posi = min(min_posi, rep.skew_value)
    max_prop = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        s_v = random_spd(rng, d)
        rep = st.no_shoe_check(s_v, rng.uniform(0.1, 10.0) * s_v)
        max_prop = max(max_prop, rep.skew_value)
    check(
        "criterion 13 (no shoe fits all)",
        min_posi > 1e-9 and max_prop <= 1e-9,
        f"min skew over non-proportional pairs {min_posi:.2e} > 1e-9;"
        f" max over proportional {max_prop:.2e} <= 1e-9",
    )
