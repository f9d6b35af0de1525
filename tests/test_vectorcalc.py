"""The norm calculus: the lp norms of `vectorcalc`, and the derivatives of the
Euclidean norm ||z|| and the skewed norm ||S z||, which are the loss
derivatives of the one-voter profile at the origin."""

import numpy as np
import pytest

from medianforge import solvers as sv
from medianforge import vectorcalc as vc
from medianforge.errors import AtVoterPoint, DimensionMismatch, ZeroVector
from medianforge.profiles import uniform_profile

from conftest import fd_gradient, fd_jacobian, random_spd


def at_origin(z):
    """The one-voter profile at the origin, in the dimension of z."""
    return uniform_profile(np.zeros((1, len(z))))


def grad(z):
    return sv.loss_gradient(at_origin(z), z)


def hess(z):
    return sv.loss_hessian(at_origin(z), z)


def third(z):
    return sv.loss_third_deriv(at_origin(z), z)


def skewed_norm(z, sigma):
    return sv.skewed_loss_eval(at_origin(z), sigma, z)


def skewed_grad(z, sigma):
    return sv.skewed_loss_gradient(at_origin(z), sigma, z)


def skewed_hess(z, sigma):
    return sv.skewed_loss_hessian(at_origin(z), sigma, z)


def test_origin_names_the_derivative():
    with pytest.raises(ZeroVector,
                       match="^gradient of the Euclidean norm is undefined at the origin$"):
        vc.lp_gradient(np.zeros(2), 2)


class TestUnitVector:
    def test_3_4_5_triple(self):
        np.testing.assert_allclose(grad([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_already_unit(self):
        np.testing.assert_array_equal(grad([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_origin_raises(self):
        # the voter-point rule: within 1e-14 of the origin, not only at it
        for z in ([0.0, 0.0], [1e-15, 0.0]):
            with pytest.raises(AtVoterPoint):
                grad(z)

    def test_unit_norm_and_scale_invariance(self, rng):
        for _ in range(50):
            z = rng.standard_normal(rng.integers(1, 8))
            if np.linalg.norm(z) < 1e-9:
                continue
            u = grad(z)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            lam = rng.uniform(0.1, 10.0)
            np.testing.assert_allclose(grad(lam * z), u, atol=1e-12)


class TestEuclidHessian:
    def test_two_zero_example(self):
        np.testing.assert_allclose(hess([2.0, 0.0]), [[0.0, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_kernel_direction(self):
        z = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(hess(z) @ z, np.zeros(3), atol=1e-15)

    def test_orthogonal_eigenvalue(self, rng):
        for _ in range(20):
            z = rng.standard_normal(4)
            z *= rng.uniform(0.1, 10.0) / np.linalg.norm(z)
            x = rng.standard_normal(4)
            x -= (x @ z) / (z @ z) * z
            np.testing.assert_allclose(hess(z) @ x, x / np.linalg.norm(z), atol=1e-10)

    def test_origin_raises(self):
        with pytest.raises(AtVoterPoint):
            hess(np.zeros(3))

    def test_matches_finite_differences(self, rng):
        for _ in range(30):
            d = rng.integers(2, 6)
            z = rng.standard_normal(d)
            z *= rng.uniform(0.1, 10.0) / np.linalg.norm(z)
            fd = fd_jacobian(grad, z, h=1e-6)
            np.testing.assert_allclose(hess(z), fd, rtol=1e-5, atol=1e-7)


class TestThirdDerivative:
    def test_stated_entries(self):
        t = third([1.0, 0.0])
        assert t[0, 0, 0] == pytest.approx(0.0, abs=1e-15)
        assert t[0, 1, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_full_symmetry(self, rng):
        # symmetric up to rounding: permuted entries sum in different orders
        # (entries reach 6 / ||z||^2; 2000 random z of norms 1e-6 to 1e6 stayed
        # within 1.8 eps / ||z||^2)
        z = rng.standard_normal(4)
        t = third(z)
        for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            np.testing.assert_allclose(t, np.transpose(t, perm), rtol=0.0,
                                       atol=4.0 * np.finfo(float).eps / (z @ z))

    def test_entry_bound(self, rng):
        for _ in range(25):
            z = rng.standard_normal(5)
            z *= rng.uniform(0.1, 10.0) / np.linalg.norm(z)
            assert np.max(np.abs(third(z))) <= 6.0 / np.linalg.norm(z) ** 2 + 1e-12

    def test_matches_finite_differences_of_hessian(self, rng):
        for _ in range(20):
            d = rng.integers(2, 5)
            z = rng.standard_normal(d)
            z *= rng.uniform(0.5, 5.0) / np.linalg.norm(z)
            fd = fd_jacobian(hess, z, h=1e-5)
            np.testing.assert_allclose(third(z), fd, rtol=1e-4, atol=1e-6)


class TestLpGradient:
    def test_p2_reduces_to_unit_vector(self):
        np.testing.assert_allclose(vc.lp_gradient([3.0, 4.0], 2), [0.6, 0.8], atol=1e-12)

    def test_p1_signs(self):
        g = vc.lp_gradient([2.0, -3.0], 1)
        np.testing.assert_array_equal(g, [1.0, -1.0])
        assert np.max(np.abs(g)) == 1.0

    def test_pinf_lowest_index_max(self):
        g = vc.lp_gradient([5.0, 2.0], np.inf)
        np.testing.assert_array_equal(g, [1.0, 0.0])
        g = vc.lp_gradient([2.0, -5.0, 5.0], np.inf)
        np.testing.assert_array_equal(g, [0.0, -1.0, 0.0])

    def test_origin_raises_interior_p(self):
        for p in (1.5, 2, 3):
            with pytest.raises(ZeroVector):
                vc.lp_gradient(np.zeros(3), p)

    def test_dual_norm_is_one(self, rng):
        for _ in range(200):
            d = rng.integers(2, 8)
            z = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
            for p in (1.0, 1.5, 2.0, 3.0, np.inf):
                g = vc.lp_gradient(z, p)
                q = np.inf if p == 1.0 else (1.0 if p == np.inf else p / (p - 1.0))
                assert abs(vc.lp_norm(g, q) - 1.0) <= 1e-10


class TestSkewedNorm:
    def test_identity(self):
        assert skewed_norm([3.0, 4.0], np.eye(2)) == pytest.approx(5.0)

    def test_diagonal(self):
        assert skewed_norm([1.0, 1.0], np.diag([2.0, 1.0])) == pytest.approx(np.sqrt(5))

    def test_stretched_unit_triangle_vertex(self):
        sigma = np.diag([1.0, 2.0 / np.sqrt(3.0)])
        value = skewed_norm([-0.5, np.sqrt(3.0) / 2.0], sigma)
        assert value == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            skewed_norm([1.0, 2.0, 3.0], np.eye(2))

    def test_zero_iff_origin(self, rng):
        sigma = random_spd(rng, 3)
        assert skewed_norm(np.zeros(3), sigma) == 0.0
        assert skewed_norm(rng.standard_normal(3), sigma) > 0.0


class TestSkewedGradient:
    def test_identity_reduces_to_unit_vector(self, rng):
        z = rng.standard_normal(4)
        np.testing.assert_allclose(skewed_grad(z, np.eye(4)), grad(z), atol=1e-12)

    def test_stretched_triangle_pull(self):
        # pull on the origin from the stretched vertex (-1/2, 1)
        pull = grad(np.array([-0.5, 1.0]))
        np.testing.assert_allclose(pull, 2.0 / np.sqrt(5.0) * np.array([-0.5, 1.0]),
                                   atol=1e-12)

    def test_inverse_skew_unit_force(self, rng):
        for _ in range(50):
            d = rng.integers(2, 6)
            sigma = random_spd(rng, d)
            z = rng.standard_normal(d)
            g = skewed_grad(z, sigma)
            assert abs(np.linalg.norm(np.linalg.solve(sigma, g)) - 1.0) <= 1e-10

    def test_matches_finite_differences(self, rng):
        sigma = random_spd(rng, 3)
        for _ in range(10):
            z = rng.standard_normal(3)
            fd = fd_gradient(lambda y: skewed_norm(y, sigma), z)
            np.testing.assert_allclose(skewed_grad(z, sigma), fd, rtol=1e-5, atol=1e-7)


class TestSkewedHessian:
    def test_identity(self, rng):
        z = rng.standard_normal(3)
        np.testing.assert_allclose(skewed_hess(z, np.eye(3)), hess(z), atol=1e-12)

    def test_composition_example(self):
        h = skewed_hess([1.0, 0.0], np.diag([2.0, 1.0]))
        np.testing.assert_allclose(h, [[0.0, 0.0], [0.0, 0.5]], atol=1e-14)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            sigma = random_spd(rng, 3)
            z = rng.standard_normal(3)
            fd = fd_jacobian(lambda y: skewed_grad(y, sigma), z)
            np.testing.assert_allclose(skewed_hess(z, sigma), fd, rtol=1e-5, atol=1e-6)

    def test_psd_with_kernel_along_z(self, rng):
        for _ in range(20):
            sigma = random_spd(rng, 4)
            z = rng.standard_normal(4)
            h = skewed_hess(z, sigma)
            np.testing.assert_allclose(h, h.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(h)
            assert eigs[0] >= -1e-10
            np.testing.assert_allclose(h @ z, np.zeros(4), atol=1e-10)


def test_three_derivative_levels_match_nested_differences(rng):
    """Gradient, Hessian, and third derivative agree with nested central
    finite differences on random points with norms in [0.1, 10]."""
    norm = lambda z: float(np.linalg.norm(z))
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 6))
        z = rng.standard_normal(d)
        r = rng.uniform(0.1, 10.0)
        z *= r / np.linalg.norm(z)
        h_step = 1e-6 * max(1.0, r)
        g_fd = fd_gradient(norm, z, h=h_step)
        np.testing.assert_allclose(grad(z), g_fd, rtol=1e-5, atol=1e-7)
        h_fd = fd_jacobian(grad, z, h=h_step)
        np.testing.assert_allclose(hess(z), h_fd, rtol=1e-5, atol=1e-7 / r)
        t_fd = fd_jacobian(hess, z, h=h_step)
        np.testing.assert_allclose(third(z), t_fd, rtol=1e-4, atol=1e-5 / r**2)
        checked += 1
