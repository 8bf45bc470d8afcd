import numpy as np
import pytest

from airnav.exceptions import (
    DegenerateMatrixError,
    GimbalLockError,
)
from airnav.geometry import (
    euler_zyx_to_rot,
    exp_so3,
    project_to_so3,
    rot_to_euler_zyx,
    skew,
)

from oracles import (
    NotSkewSymmetricError,
    quat_to_rot,
    rot_from_small_angle,
    rot_to_quat,
    rotation_defect,
    small_angle,
    unskew,
)


def exp_series(theta, terms=30):
    """Truncated matrix power series of exp([theta]_x); oracle for exp_so3."""
    a = skew(theta)
    acc = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ a / k
        acc = acc + term
    return acc


def random_rotation(rng):
    return exp_so3(rng.uniform(-np.pi, np.pi) * _unit(rng))


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestSkew:
    @pytest.mark.parametrize("u, expected", [
        ((1, 0, 0), [[0, 0, 0], [0, 0, -1], [0, 1, 0]]),
        ((0, 0, 0), np.zeros((3, 3))),
        ((0, 0, -9.81), [[0, 9.81, 0], [-9.81, 0, 0], [0, 0, 0]]),
    ])
    def test_examples(self, u, expected):
        np.testing.assert_allclose(skew(np.array(u, dtype=float)),
                                   np.array(expected, dtype=float))

    def test_acts_as_cross_product(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u, w = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(skew(u) @ w, np.cross(u, w),
                                       atol=1e-14)

    def test_antisymmetric(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(3)
        np.testing.assert_allclose(skew(u).T, -skew(u))


class TestUnskew:
    def test_examples(self):
        np.testing.assert_allclose(
            unskew(np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0.0]])),
            [1.0, 0.0, 0.0])
        np.testing.assert_allclose(unskew(np.zeros((3, 3))), np.zeros(3))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.standard_normal(3)
            np.testing.assert_allclose(unskew(skew(u)), u, atol=1e-12)

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetricError):
            unskew(np.eye(3))


class TestExpSo3:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(exp_so3(np.zeros(3)), np.eye(3))

    def test_quarter_turn(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]])
        np.testing.assert_allclose(exp_so3(np.array([0, 0, np.pi / 2])),
                                   expected, atol=1e-15)

    def test_matches_power_series(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            theta = _unit(rng)
            np.testing.assert_allclose(exp_so3(theta), exp_series(theta),
                                       atol=1e-12)

    def test_orthonormal_and_inverse_by_transpose(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            theta = rng.uniform(-np.pi, np.pi) * _unit(rng)
            r = exp_so3(theta)
            assert rotation_defect(r) <= 1e-12
            np.testing.assert_allclose(exp_so3(-theta), r.T, atol=1e-12)

    def test_small_angle_remainder_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            lam = rng.uniform(0, 0.1) * _unit(rng)
            linear = np.eye(3) + skew(lam)
            defect = np.linalg.norm(exp_so3(lam) - linear)
            assert defect <= lam @ lam + 1e-16

    def test_branch_continuity_at_switch(self):
        theta = 1e-6 * _unit(np.random.default_rng(7))
        s = skew(theta)
        angle = np.linalg.norm(theta)
        rodrigues = (np.eye(3) + np.sin(angle) / angle * s
                     + (1 - np.cos(angle)) / angle**2 * (s @ s))
        taylor = (np.eye(3) + (1 - angle**2 / 6) * s
                  + (0.5 - angle**2 / 24) * (s @ s))
        np.testing.assert_allclose(rodrigues, taylor, atol=1e-12)
        np.testing.assert_allclose(exp_so3(theta), rodrigues, atol=1e-12)


class TestQuaternions:
    def test_identity(self):
        np.testing.assert_allclose(quat_to_rot(np.array([1.0, 0, 0, 0])),
                                   np.eye(3))

    def test_quarter_turn_about_e3(self):
        q = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
        np.testing.assert_allclose(quat_to_rot(q),
                                   exp_so3(np.array([0, 0, np.pi / 2])),
                                   atol=1e-15)

    def test_axis_angle_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            angle = 2.0 * np.arctan2(np.linalg.norm(q[1:]), q[0])
            axis = q[1:] / max(np.linalg.norm(q[1:]), 1e-300)
            np.testing.assert_allclose(quat_to_rot(q), exp_so3(angle * axis),
                                       atol=1e-12)

    def test_double_cover(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        np.testing.assert_allclose(quat_to_rot(q), quat_to_rot(-q),
                                   atol=1e-14)

    def test_rot_to_quat_examples(self):
        np.testing.assert_allclose(rot_to_quat(np.eye(3)), [1, 0, 0, 0])
        q = rot_to_quat(exp_so3(np.array([0, 0, np.pi / 2])))
        np.testing.assert_allclose(q, [np.cos(np.pi / 4), 0, 0,
                                       np.sin(np.pi / 4)], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            r = random_rotation(rng)
            np.testing.assert_allclose(quat_to_rot(rot_to_quat(r)), r,
                                       atol=1e-9)

    def test_round_trip_near_pi(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = exp_so3((np.pi - 1e-7) * _unit(rng))
            np.testing.assert_allclose(quat_to_rot(rot_to_quat(r)), r,
                                       atol=1e-9)

    def test_scalar_part_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            assert rot_to_quat(random_rotation(rng))[0] >= 0.0


class TestSmallAngle:
    def test_identity(self):
        np.testing.assert_allclose(small_angle(np.array([1.0, 0, 0, 0])),
                                   np.zeros(3))

    def test_first_order_value(self):
        q = np.array([np.cos(0.005), 0, 0, np.sin(0.005)])
        lam = small_angle(q)
        np.testing.assert_allclose(lam, [0, 0, 0.01], atol=1e-7)

    def test_sign_convention(self):
        q = np.array([-0.8, 0.6, 0, 0])
        np.testing.assert_allclose(small_angle(q), [-1.2, 0, 0])
        q_zero = np.array([0.0, 1.0, 0, 0])
        np.testing.assert_allclose(small_angle(q_zero), [2.0, 0, 0])

    def test_rot_from_small_angle_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            lam = rng.uniform(0, 1.5) * _unit(rng)
            r = rot_from_small_angle(lam)
            np.testing.assert_allclose(small_angle(rot_to_quat(r)), lam,
                                       atol=1e-12)


class TestEulerZyx:
    def test_identity(self):
        np.testing.assert_allclose(euler_zyx_to_rot(0, 0, 0), np.eye(3))

    def test_pure_yaw(self):
        np.testing.assert_allclose(euler_zyx_to_rot(0, 0, np.pi / 6),
                                   exp_so3(np.array([0, 0, np.pi / 6])),
                                   atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(14)
        all_angles = rng.uniform(-1, 1, (100, 3))
        rs = np.array([euler_zyx_to_rot(*angles) for angles in all_angles])
        for r, angles in zip(rs, all_angles):
            np.testing.assert_allclose(rot_to_euler_zyx(r), angles,
                                       atol=1e-12)
        np.testing.assert_allclose(rot_to_euler_zyx(rs), all_angles,
                                   atol=1e-12)

    def test_gimbal_lock_raises(self):
        r = euler_zyx_to_rot(0.3, np.pi / 2 - 1e-9, -0.2)
        with pytest.raises(GimbalLockError):
            rot_to_euler_zyx(r)


class TestProjectToSo3:
    def test_rotation_is_fixed_point(self):
        r = exp_so3(np.array([0.3, -0.4, 0.5]))
        np.testing.assert_allclose(project_to_so3(r), r, atol=1e-12)

    def test_small_perturbation(self):
        rng = np.random.default_rng(15)
        r = random_rotation(rng)
        m = r + 1e-6 * rng.standard_normal((3, 3))
        p = project_to_so3(m)
        assert rotation_defect(p) <= 1e-12
        assert np.linalg.norm(p - r) <= 2e-6

    def test_scaling_removed(self):
        np.testing.assert_allclose(project_to_so3(1.01 * np.eye(3)),
                                   np.eye(3), atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            project_to_so3(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(DegenerateMatrixError):
            project_to_so3(np.diag([1.0, 1.0, -1.0]))
