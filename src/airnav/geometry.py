"""SO(3) primitives: skew map, Rodrigues exponential, Euler angles, projection.

Conventions used throughout the package:
    * rotation matrices map body-frame vectors to inertial-frame vectors,
    * Euler angles are ZYX (yaw-pitch-roll), i.e. ``R = Rz(yaw) Ry(pitch) Rx(roll)``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateMatrixError, GimbalLockError

I3 = np.eye(3)

# Below this rotation angle the closed-form Rodrigues coefficients are replaced
# by their second-order Taylor expansions to avoid 0/0.
SMALL_ANGLE_SWITCH = 1e-6

# Frobenius defect of R^T R - I beyond which a state is re-projected onto SO(3).
ORTHONORMALITY_TOL = 1e-9


def skew(u: np.ndarray) -> np.ndarray:
    """Return the 3x3 matrix ``[u]_x`` with ``[u]_x w = u x w``."""
    ux, uy, uz = np.asarray(u, dtype=float).tolist()
    # A flat list builds faster than a nested one.
    return np.array([0.0, -uz, uy,
                     uz, 0.0, -ux,
                     -uy, ux, 0.0]).reshape(3, 3)


def exp_so3(theta: np.ndarray) -> np.ndarray:
    """Rodrigues formula: the rotation ``exp([theta]_x)``.

    For rotation angles below ``SMALL_ANGLE_SWITCH`` the ``sin``/``cos``
    coefficient ratios are evaluated by their second-order Taylor expansions.
    """
    theta = np.asarray(theta, dtype=float)
    angle2 = float(theta @ theta)
    s = skew(theta)
    if angle2 < SMALL_ANGLE_SWITCH**2:
        c1 = 1.0 - angle2 / 6.0
        c2 = 0.5 - angle2 / 24.0
    else:
        angle = np.sqrt(angle2)
        c1 = np.sin(angle) / angle
        c2 = (1.0 - np.cos(angle)) / angle2
    return I3 + c1 * s + c2 * (s @ s)


def euler_zyx_to_rot(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation from ZYX Euler angles: ``Rz(yaw) Ry(pitch) Rx(roll)``."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


# |sin(pitch)| at which ZYX Euler extraction is refused: 1e-6 rad from 90 deg.
GIMBAL_LOCK_SIN_PITCH = np.sin(np.pi / 2.0 - 1e-6)


def rot_to_euler_zyx(r: np.ndarray) -> np.ndarray:
    """Extract ZYX Euler angles ``(roll, pitch, yaw)`` from rotation matrices.

    ``r`` is (3, 3) or a (..., 3, 3) stack; the result is (3,) or (..., 3).

    Raises
    ------
    GimbalLockError
        If any ``|pitch|`` is within 1e-6 rad of 90 degrees.
    """
    r = np.asarray(r)
    sp = -r[..., 2, 0]
    if np.any(np.abs(sp) >= GIMBAL_LOCK_SIN_PITCH):
        raise GimbalLockError("pitch too close to +/-pi/2")
    return np.stack((
        np.arctan2(r[..., 2, 1], r[..., 2, 2]),
        np.arcsin(np.clip(sp, -1.0, 1.0)),
        np.arctan2(r[..., 1, 0], r[..., 0, 0]),
    ), axis=-1)


def project_to_so3(m: np.ndarray) -> np.ndarray:
    """Nearest rotation to ``m`` in Frobenius norm (polar projection).

    Raises
    ------
    DegenerateMatrixError
        If ``m`` is singular or has non-positive determinant.
    """
    u, sv, vt = np.linalg.svd(m)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise DegenerateMatrixError("matrix is numerically singular")
    if np.linalg.det(m) <= 0.0:
        raise DegenerateMatrixError("matrix has non-positive determinant")
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt

