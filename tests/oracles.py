"""Validation oracles: reference code the test suite checks ``airnav`` against.

Nothing under ``src/`` imports this module, so ``import airnav`` does not
carry it.  It holds the pieces that exist only to cross-check the package:

* the vertical unit vector ``E3``, the orthonormality defect
  ``rotation_defect``, quaternion and small-angle maps and ``unskew``
  (geometry round trips and the first-order attitude error);
* the scalar truth state and IMU inputs (:class:`NavState` and
  :class:`BodyInputs`), an RK4 integrator of the rigid-body kinematics and
  the first-order error state (the closed-form truth and the linearization
  checks);
* the dense forms of the discrete recursion: the first-order ``A_d``, the
  covariance prediction, the stacked output matrix and additive weights
  (the tick's float kernels and :func:`airnav.observer.riccati_update`);
* the stacked measurement residuals, the continuous-time state matrix
  ``A(Rhat)`` and an RK4 integrator of the continuous Riccati equation (the
  discrete recursion and the output matrix);
* :func:`tick`, one tick of
  :meth:`airnav.observer.AirDataObserver.advance` given a
  ``{SensorKind: payload}`` dict (the tests that step the observer tick by
  tick);
* an RK4 integrator of the transition-matrix ODE (the closed-form
  transition of :mod:`airnav.observability`);
* a per-tick sensor schedule (tick-by-tick runs that mirror
  :func:`airnav.harness.run_single`);
* the ``%``-formatted text of trace rows (the trace formatter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from airnav import dynamics, geometry
from airnav.dynamics import TrajectorySpec
from airnav.exceptions import AirnavError
from airnav.geometry import I3, skew
from airnav.observer import AirDataObserver, ObserverState, RiccatiWeights
from airnav.sensors import (
    STACK_ORDER,
    MagReference,
    ProbeSet,
    RateSpec,
    SensorKind,
    tick_times,
)

_TIME_SLACK = 1e-9


class NotSkewSymmetricError(AirnavError):
    """Matrix handed to unskew() is not skew-symmetric within tolerance."""


class OutOfRangeError(AirnavError):
    """Trajectory queried outside its time domain."""


class MissingPayloadError(AirnavError):
    """A measurement payload required by the requested update is absent."""


# --- geometry ---------------------------------------------------------------

E3 = np.array([0.0, 0.0, 1.0])


def rotation_defect(r: np.ndarray) -> float:
    """Frobenius norm of ``r^T r - I``, the orthonormality drift measure."""
    return float(np.linalg.norm(r.T @ r - I3))


def unskew(m: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Invert :func:`airnav.geometry.skew`.

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


# --- truth ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ErrorState:
    """First-order estimation errors (attitude, inertial air velocity, altitude)."""

    lam: np.ndarray
    v_tilde: np.ndarray
    h_tilde: float

    def as_vector(self) -> np.ndarray:
        return np.concatenate((self.lam, self.v_tilde, [self.h_tilde]))


def _check_time(t) -> None:
    """Raise :class:`OutOfRangeError` when any of ``t`` is before 0; the
    closed forms hold for every later time."""
    if isinstance(t, float):  # the common scalar query, without numpy
        before = t < -_TIME_SLACK
    else:
        before = np.any(np.asarray(t, dtype=float) < -_TIME_SLACK)
    if before:
        raise OutOfRangeError("t before 0")


@dataclass(frozen=True, eq=False)
class NavState:
    """Ground-truth navigation state (body-to-inertial R, body air velocity)."""

    R: np.ndarray
    Va: np.ndarray
    h: float
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class BodyInputs:
    """IMU-frame inputs: angular velocity and specific acceleration."""

    omega: np.ndarray
    a: np.ndarray


def attitude(spec: TrajectorySpec, t: float) -> np.ndarray:
    """Truth rotation matrix Rz(psi(t)) (truth attitude starts at identity)."""
    psi = float(dynamics.yaw_angle(spec, t))
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def truth_state(spec: TrajectorySpec, t: float) -> NavState:
    """Exact truth state at time t.

    Raises
    ------
    OutOfRangeError
        If ``t`` is before 0.
    """
    _check_time(t)
    r = attitude(spec, t)
    v = dynamics.velocity(spec, t)
    va = r.T @ (v - spec.wind)
    return NavState(R=r, Va=va, h=float(dynamics.altitude(spec, t)), v=v)


def truth_inputs(spec: TrajectorySpec, t: float) -> BodyInputs:
    """Exact IMU inputs (angular rate, specific acceleration) at time t.

    The closed forms of :mod:`airnav.dynamics` (yaw rate and angle,
    ``dv/dt - g e3`` rotated into the body frame by ``Rz(psi)^T``),
    evaluated on Python floats: this is the inner call of
    :func:`propagate_truth`.
    """
    _check_time(t)
    t = float(t)
    amp, freq = spec.vel_amp.tolist(), spec.vel_freq.tolist()
    phase = spec.vel_phase.tolist()
    w = [-amp[i] * freq[i] * math.sin(freq[i] * t + phase[i])
         for i in range(3)]
    psi = (0.0 if spec.yaw_freq == 0.0 else (spec.yaw_amp / spec.yaw_freq)
           * (1.0 - math.cos(spec.yaw_freq * t)))
    c, s = math.cos(psi), math.sin(psi)
    omega = np.array([0.0, 0.0, spec.yaw_amp * math.sin(spec.yaw_freq * t)])
    a = np.array([c * w[0] + s * w[1], c * w[1] - s * w[0],
                  w[2] - spec.gravity])
    return BodyInputs(omega=omega, a=a)


def _exp_so3_floats(x: float, y: float, z: float) -> tuple[float, ...]:
    """:func:`airnav.geometry.exp_so3` of ``(x, y, z)``, row-major floats."""
    angle2 = x * x + y * y + z * z
    if angle2 < geometry.SMALL_ANGLE_SWITCH**2:
        c1 = 1.0 - angle2 / 6.0
        c2 = 0.5 - angle2 / 24.0
    else:
        angle = math.sqrt(angle2)
        c1 = math.sin(angle) / angle
        c2 = (1.0 - math.cos(angle)) / angle2
    # I + c1 [theta]_x + c2 [theta]_x^2, the square written out entrywise
    return (1.0 + c2 * (-z * z - y * y), c1 * -z + c2 * (y * x),
            c1 * y + c2 * (z * x),
            c1 * z + c2 * (x * y), 1.0 + c2 * (-z * z - x * x),
            c1 * -x + c2 * (z * y),
            c1 * -y + c2 * (x * z), c1 * x + c2 * (y * z),
            1.0 + c2 * (-y * y - x * x))


def _mat_mul(a, b) -> tuple[float, ...]:
    """Product of two row-major 3x3 float tuples."""
    return tuple(a[i] * b[j] + a[i + 1] * b[j + 3] + a[i + 2] * b[j + 6]
                 for i in (0, 3, 6) for j in (0, 1, 2))


def _mat_vec(a, u) -> tuple[float, float, float]:
    """Row-major 3x3 float tuple times a 3-vector."""
    return (a[0] * u[0] + a[1] * u[1] + a[2] * u[2],
            a[3] * u[0] + a[4] * u[1] + a[5] * u[2],
            a[6] * u[0] + a[7] * u[1] + a[8] * u[2])


def _rotation_defect(r) -> float:
    """:func:`rotation_defect` of a row-major float tuple."""
    total = 0.0
    for i in range(3):
        for j in range(3):
            dot = r[i] * r[j] + r[i + 3] * r[j + 3] + r[i + 6] * r[j + 6]
            total += (dot - (i == j)) ** 2
    return math.sqrt(total)


def propagate_truth(state: NavState, inputs_fn, dt: float, steps: int,
                    gravity: float = 9.81, t0: float = 0.0) -> NavState:
    """Integrate the rigid-body kinematics with RK4.

    The vector part (V_a, h, v) uses classical RK4; the rotation advances by
    the exponential of the midpoint angular-rate increment at each stage, and
    is re-projected onto SO(3) whenever the orthonormality defect exceeds
    the shared drift tolerance.  The step runs on Python floats; each of the
    stage times ``t``, ``t + dt/4``, ``t + dt/2`` and ``t + dt`` asks
    ``inputs_fn`` once, and the end of one step is the start of the next.

    Parameters
    ----------
    state:
        Initial :class:`NavState`.
    inputs_fn:
        Callable ``t -> BodyInputs`` supplying the true IMU signals.
    dt, steps:
        Substep length (s) and number of substeps.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    r = tuple(state.R.ravel().tolist())
    va = state.Va.tolist()
    h = float(state.h)
    v = state.v.tolist()
    t = float(t0)

    def inputs(t_s: float):
        inp = inputs_fn(t_s)
        return inp.omega.tolist(), inp.a.tolist()

    def rates(inp, r_s, va_s):
        (wx, wy, wz), a = inp
        cross = (wy * va_s[2] - wz * va_s[1], wz * va_s[0] - wx * va_s[2],
                 wx * va_s[1] - wy * va_s[0])
        dva = [-cross[i] + gravity * r_s[6 + i] + a[i] for i in range(3)]
        dh = r_s[6] * va_s[0] + r_s[7] * va_s[1] + r_s[8] * va_s[2]
        ra = _mat_vec(r_s, a)
        return dva, dh, (ra[0], ra[1], ra[2] + gravity)

    def advance(x, k, scale):
        return [x[i] + scale * k[i] for i in range(3)]

    def combine(k1, k2, k3, k4):
        return (k1 + 2.0 * k2) + 2.0 * k3 + k4

    inp_start = inputs(t)
    for _ in range(steps):
        inp_quarter = inputs(t + 0.25 * dt)
        inp_mid = inputs(t + 0.5 * dt)
        inp_end = inputs(t + dt)
        # Midpoint-rate exponential increments for the stage rotations.
        r_half = _mat_mul(r, _exp_so3_floats(
            *[0.5 * dt * w for w in inp_quarter[0]]))
        r_full = _mat_mul(r, _exp_so3_floats(*[dt * w for w in inp_mid[0]]))
        k1 = rates(inp_start, r, va)
        k2 = rates(inp_mid, r_half, advance(va, k1[0], 0.5 * dt))
        k3 = rates(inp_mid, r_half, advance(va, k2[0], 0.5 * dt))
        k4 = rates(inp_end, r_full, advance(va, k3[0], dt))
        sixth = dt / 6.0
        va = [va[i] + sixth * combine(k1[0][i], k2[0][i], k3[0][i], k4[0][i])
              for i in range(3)]
        h = h + sixth * combine(k1[1], k2[1], k3[1], k4[1])
        v = [v[i] + sixth * combine(k1[2][i], k2[2][i], k3[2][i], k4[2][i])
             for i in range(3)]
        r = r_full
        if _rotation_defect(r) > geometry.ORTHONORMALITY_TOL:
            r = tuple(geometry.project_to_so3(
                np.array(r).reshape(3, 3)).ravel().tolist())
        t += dt
        inp_start = inp_end
    return NavState(R=np.array(r).reshape(3, 3), Va=np.array(va), h=h,
                    v=np.array(v))


def error_state(truth: NavState, est) -> ErrorState:
    """Estimation errors of ``est`` (any object with Rhat/Vahat/hhat) vs truth."""
    r_tilde = truth.R @ est.Rhat.T
    lam = small_angle(rot_to_quat(r_tilde))
    v_tilde = truth.R @ truth.Va - est.Rhat @ est.Vahat
    return ErrorState(lam=lam, v_tilde=v_tilde,
                      h_tilde=float(truth.h) - float(est.hhat))


# --- observer ---------------------------------------------------------------

def state_matrix_ct(rhat: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Continuous-time error-state matrix A(Rhat)."""
    m = np.zeros((7, 7))
    m[3:6, 0:3] = -skew(rhat @ a)
    m[6, 3:6] = E3
    return m


def state_matrix_dt(rhat: np.ndarray, a: np.ndarray, T: float) -> np.ndarray:
    """First-order discretization ``A_d = I + T A(Rhat)``."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    return np.eye(7) + T * state_matrix_ct(rhat, a)


def riccati_predict(P: np.ndarray, A_d: np.ndarray, S: np.ndarray,
                    T: float) -> np.ndarray:
    """Covariance prediction ``A_d P A_d^T + S T``, returned exactly symmetric.

    The dense form of :func:`airnav.observer._predict_packed`.
    """
    p = A_d @ P @ A_d.T + S * T
    return 0.5 * (p + p.T)


def _subset_in_stack_order(subset) -> tuple[SensorKind, ...]:
    kinds = tuple(k for k in STACK_ORDER if k in set(subset))
    if not kinds:
        raise ValueError("sensor subset must be nonempty")
    return kinds


def output_matrix(rhat: np.ndarray, vahat: np.ndarray, probes: ProbeSet,
                  mag_ref: MagReference, subset) -> np.ndarray:
    """Stacked output matrix for the requested sensors (Pitot, Mag, Baro order).

    Row blocks::

        Pitot: [ B^T Rhat^T (Rhat Vahat)^x | B^T Rhat^T | 0 ]
        Mag:   [ -(m_I)^x                  | 0          | 0 ]
        Baro:  [ 0                         | 0          | 1 ]
    """
    rows = []
    for kind in _subset_in_stack_order(subset):
        if kind is SensorKind.PITOT:
            bt_rt = probes.B.T @ rhat.T
            block = np.zeros((probes.m, 7))
            block[:, 0:3] = bt_rt @ skew(rhat @ vahat)
            block[:, 3:6] = bt_rt
        elif kind is SensorKind.MAG:
            block = np.zeros((3, 7))
            block[:, 0:3] = -skew(mag_ref.m_I)
        else:
            block = np.zeros((1, 7))
            block[0, 6] = 1.0
        rows.append(block)
    return np.vstack(rows)


def additive_weight(weights: RiccatiWeights, subset, q_convention: str,
                    ) -> np.ndarray:
    """Block-diagonal additive innovation term for the requested sensors.

    The blocks ``Qp``, ``Qm``, ``[[Qb]]`` in stack order, each inverted
    under ``q_convention = "precision"``.
    """
    blocks = {SensorKind.PITOT: weights.Qp, SensorKind.MAG: weights.Qm,
              SensorKind.BARO: np.array([[weights.Qb]])}
    parts = [blocks[kind] for kind in _subset_in_stack_order(subset)]
    if q_convention == "precision":
        parts = [np.linalg.inv(b) for b in parts]
    q = np.zeros((sum(b.shape[0] for b in parts),) * 2)
    i = 0
    for b in parts:
        j = i + b.shape[0]
        q[i:j, i:j] = b
        i = j
    return q


def residual(payloads, est: ObserverState, probes: ProbeSet,
             mag_ref: MagReference, subset) -> np.ndarray:
    """Stacked measurement residuals in the fixed sensor order.

    The magnetometer residual is formed in the inertial frame,
    ``m_I - Rhat m_B``, as :meth:`airnav.observer.AirDataObserver.advance`
    forms it in place.

    Raises
    ------
    MissingPayloadError
        If a sensor in ``subset`` has no payload.
    """
    parts = []
    for kind in _subset_in_stack_order(subset):
        if kind not in payloads:
            raise MissingPayloadError(f"no payload for {kind.value}")
        if kind is SensorKind.PITOT:
            parts.append(np.atleast_1d(payloads[kind]) - probes.B.T @ est.Vahat)
        elif kind is SensorKind.MAG:
            parts.append(mag_ref.m_I - est.Rhat @ np.asarray(payloads[kind]))
        else:
            parts.append(np.array([float(payloads[kind]) - est.hhat]))
    return np.concatenate(parts)


def cre_rhs(P: np.ndarray, A_ct: np.ndarray, C: np.ndarray, Q: np.ndarray,
            S: np.ndarray) -> np.ndarray:
    """Right-hand side of the continuous Riccati equation.

    ``Q`` is the information-style weight multiplying ``C^T Q C``, whatever
    the observer's ``q_convention``.
    """
    return A_ct @ P + P @ A_ct.T - P @ C.T @ Q @ C @ P + S


def integrate_cre(P0: np.ndarray, a_fn, c_fn, Q: np.ndarray, S: np.ndarray,
                  t0: float, t1: float, dt: float,
                  substeps: int = 1) -> np.ndarray:
    """Fixed-step RK4 integration of the continuous Riccati equation.

    ``a_fn`` and ``c_fn`` map time to the state and output matrices.
    ``substeps`` subdivides each ``dt`` for stiff configurations.
    """
    p = np.array(P0, dtype=float)
    n = int(round((t1 - t0) / dt))
    h = dt / substeps
    t = float(t0)
    for _ in range(n * substeps):
        k1 = cre_rhs(p, a_fn(t), c_fn(t), Q, S)
        k2 = cre_rhs(p + 0.5 * h * k1, a_fn(t + 0.5 * h), c_fn(t + 0.5 * h),
                     Q, S)
        k3 = cre_rhs(p + 0.5 * h * k2, a_fn(t + 0.5 * h), c_fn(t + 0.5 * h),
                     Q, S)
        k4 = cre_rhs(p + h * k3, a_fn(t + h), c_fn(t + h), Q, S)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = 0.5 * (p + p.T)
        t += h
    return p


def _floats(x) -> list[float]:
    return np.asarray(x, dtype=float).ravel().tolist()


def tick(obs: AirDataObserver, payloads: dict) -> ObserverState:
    """Advance ``obs`` one IMU tick given ``{SensorKind: payload}``; returns
    its state.

    Payloads are arrays (the IMU payload a pair of 3-vectors
    ``(omega, a)``; the barometer's a scalar).  The tick is a
    one-tick call of :meth:`~airnav.observer.AirDataObserver.advance`, so
    if it fails, the observer's state stays at the last valid estimate.

    Raises
    ------
    MissingPayloadError
        If no IMU payload is supplied.
    SingularInnovationError, DivergenceError
        As :meth:`~airnav.observer.AirDataObserver.advance` reports them.
    """
    imu = payloads.get(SensorKind.IMU)
    if imu is None:
        raise MissingPayloadError("observer tick requires an IMU payload")
    omega, a = imu
    pitot, mag, baro = map(payloads.get, (SensorKind.PITOT, SensorKind.MAG,
                                          SensorKind.BARO))
    _, error = obs.advance(
        [_floats(omega)], [_floats(a)],
        [None if pitot is None else _floats(pitot)],
        [None if mag is None else _floats(mag)],
        [None if baro is None else float(baro)])
    if error is not None:
        raise error
    return obs.state


# --- observability ----------------------------------------------------------

def _batch_skew(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def integrate_phi(spec: TrajectorySpec, t: float, tau: float,
                  step: float = 1e-3) -> np.ndarray:
    """RK4 integration of the transition-matrix ODE.

    The product A*(s) Phi is evaluated blockwise (two block rows of A* are
    nonzero) with ``-(R a)^x`` precomputed on the half-step grid; the four
    stage derivatives are written into reused 7x7 buffers whose first three
    rows stay zero.
    """
    n = max(1, int(round((t - tau) / step)))
    h = (t - tau) / n
    times = tau + 0.5 * h * np.arange(2 * n + 1)
    neg_skew = -_batch_skew(dynamics.inertial_specific_force(spec, times))

    def a_mul(ws: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.matmul(ws, m[0:3], out=out[3:6])
        out[6] = m[5]
        return out

    k1, k2, k3, k4 = (np.zeros((7, 7)) for _ in range(4))
    phi = np.eye(7)
    for k in range(n):
        w0, wm, w1 = neg_skew[2 * k], neg_skew[2 * k + 1], neg_skew[2 * k + 2]
        a_mul(w0, phi, k1)
        a_mul(wm, phi + 0.5 * h * k1, k2)
        a_mul(wm, phi + 0.5 * h * k2, k3)
        a_mul(w1, phi + h * k3, k4)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


# --- sensors ----------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleSlot:
    """One IMU tick and the set of sensors that sample on it."""

    t: float
    kinds: tuple[SensorKind, ...]


def make_schedule(rates: RateSpec, duration: float) -> list[ScheduleSlot]:
    """Tick schedule at the IMU rate with slower sensors on their multiples.

    One slot per tick of :func:`airnav.sensors.tick_times`; coincident
    samples are merged into one slot.
    """
    dec = {kind: rates.decimation(kind)
           for kind in (SensorKind.PITOT, SensorKind.MAG, SensorKind.BARO)}
    slots = []
    for k, t in enumerate(tick_times(rates, duration).tolist()):
        kinds = [SensorKind.IMU]
        for kind in (SensorKind.PITOT, SensorKind.MAG, SensorKind.BARO):
            if k % dec[kind] == 0:
                kinds.append(kind)
        slots.append(ScheduleSlot(t=t, kinds=tuple(kinds)))
    return slots


# --- harness ----------------------------------------------------------------

def format_rows(table: np.ndarray) -> str:
    """Lines of ``table``'s rows: each value as ``'%.17g'`` prints it,
    comma-separated."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join([row % tuple(values) for values in table.tolist()])
