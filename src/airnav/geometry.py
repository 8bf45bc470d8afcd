"""SO(3) primitives: skew maps, Rodrigues exponential, quaternion conversions.

Conventions used throughout the package:
    * rotation matrices map body-frame vectors to inertial-frame vectors,
    * quaternions are scalar-first arrays ``[q0, qx, qy, qz]``,
    * Euler angles are ZYX (yaw-pitch-roll), i.e. ``R = Rz(yaw) Ry(pitch) Rx(roll)``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateMatrixError, GimbalLockError, NotSkewSymmetricError

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
I3 = np.eye(3)

# Below this rotation angle the closed-form Rodrigues coefficients are replaced
# by their second-order Taylor expansions to avoid 0/0.
SMALL_ANGLE_SWITCH = 1e-6

# Frobenius defect of R^T R - I beyond which a state is re-projected onto SO(3).
ORTHONORMALITY_TOL = 1e-9


def skew(u: np.ndarray) -> np.ndarray:
    """Return the 3x3 matrix ``[u]_x`` with ``[u]_x w = u x w``."""
    ux, uy, uz = np.asarray(u, dtype=float).tolist()
    # A flat list builds faster than a nested one; the tick and the
    # transition-matrix oracle call this in their inner loops.
    return np.array([0.0, -uz, uy,
                     uz, 0.0, -ux,
                     -uy, ux, 0.0]).reshape(3, 3)


def cross3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors (faster than np.cross for scalars)."""
    return np.array([
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ])


def unskew(m: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Invert :func:`skew`.

    Parameters
    ----------
    m:
        (3, 3) matrix, skew-symmetric up to ``tol`` in Frobenius norm.
    tol:
        Maximum allowed ``||m + m^T||_F``.

    Raises
    ------
    NotSkewSymmetricError
        If the symmetric part of ``m`` exceeds ``tol``.
    """
    defect = np.linalg.norm(m + m.T)
    if defect > tol:
        raise NotSkewSymmetricError(
            f"symmetric part has Frobenius norm {defect:.3e} > {tol:.3e}"
        )
    return np.array([
        0.5 * (m[2, 1] - m[1, 2]),
        0.5 * (m[0, 2] - m[2, 0]),
        0.5 * (m[1, 0] - m[0, 1]),
    ])


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


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion: ``I + 2 q_v^x (q0 I + q_v^x)``."""
    qv = np.asarray(q[1:], dtype=float)
    s = skew(qv)
    return I3 + 2.0 * s @ (float(q[0]) * I3 + s)


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix, scalar part kept non-negative.

    Uses the Shepperd branch selection for numerical robustness near
    180-degree rotations.
    """
    t = np.trace(r)
    if t >= max(r[0, 0], r[1, 1], r[2, 2]):
        q0 = 0.5 * np.sqrt(max(1.0 + t, 0.0))
        f = 0.25 / q0
        q = np.array([
            q0,
            f * (r[2, 1] - r[1, 2]),
            f * (r[0, 2] - r[2, 0]),
            f * (r[1, 0] - r[0, 1]),
        ])
    else:
        i = int(np.argmax([r[0, 0], r[1, 1], r[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        qi = 0.5 * np.sqrt(max(1.0 + r[i, i] - r[j, j] - r[k, k], 0.0))
        f = 0.25 / qi
        q = np.zeros(4)
        q[0] = f * (r[k, j] - r[j, k])
        q[1 + i] = qi
        q[1 + j] = f * (r[j, i] + r[i, j])
        q[1 + k] = f * (r[k, i] + r[i, k])
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def small_angle(q: np.ndarray) -> np.ndarray:
    """First-order attitude-error vector ``2 sign(q0) q_v`` (sign(0) = +1)."""
    sign = 1.0 if q[0] >= 0.0 else -1.0
    return 2.0 * sign * np.asarray(q[1:], dtype=float)


def rot_from_small_angle(lam: np.ndarray) -> np.ndarray:
    """Exact inverse of ``small_angle(rot_to_quat(.))`` for ``|lam| < 2``."""
    lam = np.asarray(lam, dtype=float)
    half = 0.5 * lam
    q0 = np.sqrt(max(1.0 - float(half @ half), 0.0))
    return quat_to_rot(np.concatenate(([q0], half)))


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


def rot_to_euler_zyx(r: np.ndarray) -> tuple[float, float, float]:
    """Extract (roll, pitch, yaw) from a rotation matrix.

    Raises
    ------
    GimbalLockError
        If ``|pitch|`` is within 1e-6 rad of 90 degrees.
    """
    sp = -float(r[2, 0])
    sp = min(1.0, max(-1.0, sp))
    pitch = np.arcsin(sp)
    if abs(pitch) >= np.pi / 2.0 - 1e-6:
        raise GimbalLockError(f"pitch {pitch:.6f} rad is too close to +/-pi/2")
    roll = np.arctan2(r[2, 1], r[2, 2])
    yaw = np.arctan2(r[1, 0], r[0, 0])
    return float(roll), float(pitch), float(yaw)


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


def rotation_defect(r: np.ndarray) -> float:
    """Frobenius norm of ``r^T r - I``, the orthonormality drift measure."""
    return float(np.linalg.norm(r.T @ r - I3))


def is_rotation(r: np.ndarray, tol: float = ORTHONORMALITY_TOL) -> bool:
    """True if ``r`` satisfies the SO(3) invariants within ``tol``."""
    return rotation_defect(r) <= tol and abs(np.linalg.det(r) - 1.0) <= tol
