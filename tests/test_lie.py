import numpy as np
import pytest

from se5nav.lie import (
    NEWTON_SCHULZ_TOL,
    SMALL_ANGLE,
    SEn,
    hat,
    is_rotation,
    kron,
    project_rotation,
    psi,
    rotation_angle,
    so3_exp,
    vec,
    vec_inv,
    vex,
)

RNG = np.random.default_rng(1234)


def random_rotation(rng, scale=np.pi):
    return so3_exp(rng.uniform(-scale, scale) * _unit(rng))


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _svd_polar(r):
    """The closest rotation to one matrix as U diag(1, 1, d) V^T."""
    u, _, vt = np.linalg.svd(r)
    return u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt


def _rodrigues(v):
    """Rodrigues formula for one vector, angle from the 1-D norm."""
    theta = float(np.linalg.norm(v))
    k = hat(v)
    if theta < SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * (k @ k)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


class TestHatVexPsi:
    def test_hat_cross_product(self):
        assert np.array_equal(hat([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])
        assert np.array_equal(hat([0, 0, 0]), np.zeros((3, 3)))

    def test_hat_matrix_entries(self):
        expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
        assert np.array_equal(hat([1, 2, 3]), expected)

    def test_hat_antisymmetric_and_acts_as_cross(self):
        for _ in range(50):
            v, w = RNG.standard_normal(3), RNG.standard_normal(3)
            h = hat(v)
            assert np.array_equal(h, -h.T)
            assert np.allclose(h @ w, np.cross(v, w), atol=1e-14)

    def test_vex_round_trip(self):
        assert np.array_equal(vex(hat([1, 2, 3])), [1, 2, 3])
        assert np.array_equal(vex(np.zeros((3, 3))), np.zeros(3))
        worst = max(
            np.max(np.abs(vex(hat(v)) - v))
            for v in RNG.standard_normal((100, 3)) * 10
        )
        assert worst < 1e-14

    def test_vex_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            vex(np.eye(3))
        with pytest.raises(ValueError):
            vex(np.zeros((2, 2)))

    def test_psi_symmetric_input_is_zero(self):
        assert np.array_equal(psi(np.eye(3)), np.zeros(3))

    def test_psi_fixes_antisymmetric(self):
        assert np.array_equal(psi(hat([1, 2, 3])), [1, 2, 3])

    def test_psi_matches_antisymmetric_projection(self):
        for _ in range(100):
            a = RNG.standard_normal((3, 3)) * 5
            assert np.max(np.abs(psi(a) - vex((a - a.T) / 2))) < 1e-15


class TestSO3Exp:
    def test_zero(self):
        assert np.array_equal(so3_exp([0, 0, 0]), np.eye(3))

    def test_quarter_turn_about_y(self):
        expected = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        assert np.allclose(so3_exp([0, np.pi / 2, 0]), expected, atol=1e-15)

    def test_inverse_is_negative_exponent(self):
        for _ in range(50):
            v = RNG.standard_normal(3) * 3
            assert np.allclose(so3_exp(v) @ so3_exp(-v), np.eye(3), atol=1e-12)

    def test_rotation_invariants_up_to_10pi(self):
        for scale in (1e-10, 1e-6, 0.1, 1.0, np.pi, 5 * np.pi, 10 * np.pi):
            r = so3_exp(scale * _unit(RNG))
            assert is_rotation(r, tol=1e-10)

    def test_batched_equals_reference_bit_for_bit(self):
        rng = np.random.default_rng(7)
        scales = np.array([0.0, 1e-12, 1e-9, 5e-9, 2e-8, 1e-4, 0.1, 1.0, np.pi, 7.0])
        vs = rng.standard_normal((200, 3)) * rng.choice(scales, size=(200, 1))
        vs[0] = 0.0
        vs[1] = [3e-9, -1e-9, 2e-9]
        batched = so3_exp(vs)
        assert batched.shape == (200, 3, 3)
        assert np.array_equal(batched, np.stack([_rodrigues(v) for v in vs]))
        assert np.array_equal(batched, np.stack([so3_exp(v) for v in vs]))
        assert np.array_equal(batched[0], np.eye(3))
        stacked = so3_exp(vs.reshape(20, 10, 3))
        assert np.array_equal(stacked, batched.reshape(20, 10, 3, 3))

    def test_small_angle_series_continuity(self):
        v = 1e-9 * np.array([1.0, -2.0, 0.5])
        r = so3_exp(v)
        assert np.allclose(r, np.eye(3) + hat(v), atol=1e-17)


class TestRotationHelpers:
    def test_project_recovers_rotation(self):
        r = random_rotation(RNG)
        noisy = r + 1e-6 * RNG.standard_normal((3, 3))
        fixed = project_rotation(noisy)
        assert is_rotation(fixed, tol=1e-12)
        assert np.linalg.norm(fixed - r) < 1e-5

    def test_rotation_angle(self):
        assert rotation_angle(np.eye(3)) == 0.0
        assert abs(rotation_angle(so3_exp([0, np.pi / 2, 0])) - np.pi / 2) < 1e-12

    @pytest.mark.parametrize("theta", [1e-10, 1e-8, 1e-6, 1e-3, 1.0, 3.0])
    def test_rotation_angle_small_and_large(self, theta):
        axis = np.array([1.0, -2.0, 0.5]) / np.sqrt(5.25)
        assert rotation_angle(so3_exp(theta * axis)) == pytest.approx(theta, rel=1e-12)

    def test_batched_equals_reference_bit_for_bit(self):
        rng = np.random.default_rng(11)
        angles = np.resize([0.0, 1e-12, 1e-7, 1e-3, 1.0, np.pi - 1e-6, np.pi - 1e-12, np.pi], 24)
        rots = so3_exp(angles[:, None] * np.stack([_unit(rng) for _ in angles]))
        noisy = rots + 1e-6 * rng.standard_normal(rots.shape)
        noisy[3] *= -1.0  # reflections, det < 0
        noisy[6] = np.diag([1.0, 1.0, -1.0]) @ noisy[6]
        assert np.linalg.det(noisy[3]) < 0 and np.linalg.det(noisy[6]) < 0

        def polar(r):  # the closest rotation as U diag(1, 1, d) V^T
            u, _, vt = np.linalg.svd(r)
            return u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt

        def angle(r):  # the sine from the 1-D norm
            return np.arctan2(np.linalg.norm(psi(r)), 0.5 * (np.trace(r) - 1.0))

        def vex_of_antisymmetric_part(a):
            return 0.5 * np.array([a[2, 1] - a[1, 2], a[0, 2] - a[2, 0], a[1, 0] - a[0, 1]])

        cases = [(project_rotation, polar, noisy), (rotation_angle, angle, rots),
                 (rotation_angle, angle, noisy), (psi, vex_of_antisymmetric_part, noisy)]
        for f, reference, stack in cases:
            batched = f(stack)
            assert np.array_equal(batched, np.stack([reference(r) for r in stack])), f.__name__
            assert np.array_equal(batched, np.stack([f(r) for r in stack])), f.__name__
            nested = f(stack.reshape(4, 6, 3, 3))
            assert np.array_equal(nested, batched.reshape((4, 6) + batched.shape[1:])), f.__name__
        assert np.all(np.linalg.det(project_rotation(noisy)) > 0)
        assert np.allclose(rotation_angle(rots), angles, rtol=0.0, atol=1e-12)

    def test_near_rotations_take_one_newton_schulz_step(self, monkeypatch):
        rng = np.random.default_rng(5)
        defects = np.geomspace(1e-13, 5e-8, 40)
        sym = rng.standard_normal((defects.size, 3, 3))
        sym += sym.mT
        sym *= (0.5 * defects / np.abs(sym).max(axis=(1, 2)))[:, None, None]
        near = np.stack([random_rotation(rng) for _ in defects]) @ (np.eye(3) + sym)
        measured = np.abs(near.mT @ near - np.eye(3)).max(axis=(1, 2))
        assert np.all((measured > 0.5 * defects) & (measured < 1.5 * defects))
        assert measured.max() < NEWTON_SCHULZ_TOL
        reference = np.stack([_svd_polar(r) for r in near])

        def no_svd(*args, **kwargs):
            raise AssertionError("a near-rotation took the SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert np.max(np.abs(project_rotation(near) - reference)) < 1e-14

    def test_mixed_stack_rows_equal_single_matrices(self):
        rng = np.random.default_rng(6)
        stack = np.stack([random_rotation(rng) for _ in range(16)])
        stack[:4] += 1e-11 * rng.standard_normal((4, 3, 3))   # near-rotations
        stack[4:8] += 1e-6 * rng.standard_normal((4, 3, 3))   # too noisy for one step
        stack[8:10] *= -1.0                                    # reflections, det < 0
        stack[10:12] = -stack[:2]                              # near-reflections
        stack[12] = np.diag([1.0, 1.0, -1.0])
        order = rng.permutation(len(stack))
        fixed = project_rotation(stack[order])
        assert np.array_equal(fixed, np.stack([project_rotation(r) for r in stack[order]]))
        assert np.array_equal(project_rotation(stack[order].reshape(4, 4, 3, 3)), fixed.reshape(4, 4, 3, 3))
        assert np.all(np.linalg.det(fixed) > 0) and all(is_rotation(r) for r in fixed)
        svd_rows = np.isin(order, np.arange(4, 13))
        assert np.array_equal(fixed[svd_rows], np.stack([_svd_polar(r) for r in stack[order][svd_rows]]))
        assert project_rotation(np.empty((0, 3, 3))).shape == (0, 3, 3)

    def test_non_finite_matrices_stay_non_finite(self):
        rng = np.random.default_rng(8)
        stack = np.stack([random_rotation(rng) for _ in range(4)])
        stack[1] += 1e-6 * rng.standard_normal((3, 3))  # takes the SVD beside them
        stack[2, 0, 1], stack[3, 2, 2] = np.inf, np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            fixed = project_rotation(stack)
        assert np.array_equal(fixed[:2], project_rotation(stack[:2]))
        assert not np.isfinite(fixed[2:]).all(axis=(-2, -1)).any()


class TestSEn:
    def test_identity_compose(self):
        x = SEn(random_rotation(RNG), RNG.standard_normal((3, 5)))
        e = SEn.identity(5)
        assert np.allclose((e @ x).as_matrix(), x.as_matrix())
        assert np.allclose((x @ e).as_matrix(), x.as_matrix())

    def test_inverse_law(self):
        for n in (2, 5):
            x = SEn(random_rotation(RNG), RNG.standard_normal((3, n)))
            prod = x @ x.inverse()
            assert np.allclose(prod.as_matrix(), np.eye(3 + n), atol=1e-12)

    def test_compose_matches_dense_matmul(self):
        for _ in range(50):
            a = SEn(random_rotation(RNG), RNG.standard_normal((3, 5)))
            b = SEn(random_rotation(RNG), RNG.standard_normal((3, 5)))
            dense = a.as_matrix() @ b.as_matrix()
            assert np.allclose((a @ b).as_matrix(), dense, atol=1e-13)

    def test_inverse_matches_dense_inverse(self):
        for _ in range(50):
            x = SEn(random_rotation(RNG), 5 * RNG.standard_normal((3, 5)))
            dense = np.linalg.inv(x.as_matrix())
            assert np.max(np.abs(x.inverse().as_matrix() - dense)) < 1e-10

    def test_pure_translation_inverse(self):
        t = RNG.standard_normal((3, 5))
        x = SEn(np.eye(3), t)
        assert np.allclose(x.inverse().translation, -t)

    def test_group_axioms_randomized(self):
        for n in (2, 5):
            for _ in range(25):
                a = SEn(random_rotation(RNG), RNG.standard_normal((3, n)))
                b = SEn(random_rotation(RNG), RNG.standard_normal((3, n)))
                c = SEn(random_rotation(RNG), RNG.standard_normal((3, n)))
                lhs = ((a @ b) @ c).as_matrix()
                rhs = (a @ (b @ c)).as_matrix()
                assert np.max(np.abs(lhs - rhs)) < 1e-10
                prod = a @ b
                assert is_rotation(prod.rotation, tol=1e-10)

    def test_dimension_mismatch_rejected(self):
        a = SEn.identity(5)
        b = SEn.identity(2)
        with pytest.raises(ValueError):
            a.compose(b)

    def test_rotation_validated(self):
        with pytest.raises(ValueError):
            SEn(np.eye(3) * 1.01, np.zeros((3, 5)))

    def test_immutability(self):
        x = SEn.identity(5)
        with pytest.raises(AttributeError):
            x.rotation = np.eye(3)
        with pytest.raises(ValueError):
            x.rotation[0, 0] = 2.0

    def test_from_matrix_round_trip(self):
        x = SEn(random_rotation(RNG), RNG.standard_normal((3, 5)))
        y = SEn.from_matrix(x.as_matrix())
        assert np.allclose(y.rotation, x.rotation)
        assert np.allclose(y.translation, x.translation)

    def test_apply_matches_dense(self):
        x = SEn(random_rotation(RNG), RNG.standard_normal((3, 5)))
        v = RNG.standard_normal(8)
        assert np.allclose(x.apply(v), x.as_matrix() @ v, atol=1e-13)


class TestKroneckerVec:
    def test_vec_column_stacking(self):
        assert np.array_equal(vec(np.array([[1, 3], [2, 4]])), [1, 2, 3, 4])

    def test_kron_block_diagonal(self):
        b = RNG.standard_normal((3, 3))
        k = kron(np.eye(2), b)
        assert np.allclose(k[:3, :3], b)
        assert np.allclose(k[3:, 3:], b)
        assert np.allclose(k[:3, 3:], 0)

    def test_vec_inv_round_trip(self):
        for m, n in ((3, 5), (5, 5), (15, 15), (4, 2)):
            a = RNG.standard_normal((m, n))
            assert np.array_equal(vec_inv(vec(a), m, n), a)
        with pytest.raises(ValueError):
            vec_inv(np.zeros(7), 2, 3)

    @pytest.mark.parametrize(
        "sa, sb, sc",
        [((3, 3), (3, 5), (5, 5)), ((5, 3), (3, 5), (5, 2)), ((3, 15), (15, 15), (15, 4))],
    )
    def test_vec_of_product_identity(self, sa, sb, sc):
        worst = 0.0
        for _ in range(100):
            a = RNG.standard_normal(sa)
            b = RNG.standard_normal(sb)
            c = RNG.standard_normal(sc)
            lhs = vec(a @ b @ c)
            rhs = kron(c.T, a) @ vec(b)
            scale = max(1.0, np.max(np.abs(lhs)))
            worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
        assert worst < 1e-13

    def test_mixed_product_identity(self):
        for _ in range(50):
            a = RNG.standard_normal((3, 4))
            c = RNG.standard_normal((4, 2))
            b = RNG.standard_normal((2, 3))
            d = RNG.standard_normal((3, 5))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-10
