"""Riccati-gain nonlinear observer for attitude, air velocity and altitude.

The estimator runs a copy of the vehicle kinematics driven by IMU inputs and
injects innovation terms computed from a 7-state Riccati recursion
(attitude error, inertial air-velocity error, altitude error).

One tick, :meth:`AirDataObserver.tick`, does the whole discrete cycle:

1. covariance prediction ``A_d P A_d^T + S T`` with ``A_d = I + T A(Rhat)``,
   built in a buffer the observer owns;
2. measurement update for the aiding sensors that sampled on the tick: one
   stacked update when Pitot, magnetometer and barometer coincide, otherwise
   one update per sensor in the order barometer, magnetometer, Pitot.  The
   magnetometer and barometer output rows are constant and built once; a
   one-row update (barometer, single-probe Pitot) is a scalar division and a
   rank-1 covariance downdate, a several-row update goes through a Cholesky
   factor of the innovation covariance;
3. state integration on Python floats: exponential step on SO(3), explicit
   step for the vector part.  ``Rhat``, ``Vahat``, the IMU inputs and the
   innovation are unpacked once per tick; the rates, their blend, the
   innovation injection and the Rodrigues product ``Rhat exp(theta^x)``
   with its orthonormality defect (:func:`_rotate`) are scalar arithmetic,
   and only the new ``Rhat`` and ``Vahat`` become arrays again.  The
   input-driven rates combine the current and previous tick with fixed
   coefficients, ``(1, 0)`` for Euler and ``(3/2, -1/2)`` for two-step
   Adams-Bashforth, so both integrators share one code path;
4. the divergence-floor check on ``Vahat``, ``hhat``, the trace of ``P``
   and the attitude (a non-finite ``Rhat`` trips it), then the
   re-projection of ``Rhat`` onto SO(3) if its defect exceeds
   ``ORTHONORMALITY_TOL``.

The tick is the only way to advance an estimate.  The 7x7 covariance stays
in numpy: the tick reuses the public pieces :func:`state_matrix_dt`,
:func:`output_matrix`, :func:`additive_weight`, :func:`riccati_predict` and
:func:`riccati_update`.  The reference code these are checked against (the
stacked residuals, the continuous-time ``A(Rhat)`` and an RK4 integrator of
the continuous Riccati equation) lives with the tests, in
``tests/oracles.py``, and is not part of the package.

Weight conventions
------------------
``RiccatiWeights`` stores the printed tuning matrices ``Qp``, ``Qm``, ``Qb``.
How they enter the gain is controlled by ``q_convention``:

* ``"covariance"`` (default): the blocks are used directly as the additive
  innovation-covariance term of the discrete gain,
* ``"precision"``: the blocks are information weights; their inverses form
  the additive term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .exceptions import (
    DivergenceError,
    MissingPayloadError,
    SingularInnovationError,
)
from .geometry import E3, ORTHONORMALITY_TOL, SMALL_ANGLE_SWITCH, skew
from .sensors import STACK_ORDER, MagReference, ProbeSet, SensorKind

STATE_FLOOR = 1e9
P_TRACE_FLOOR = 1e12

Q_CONVENTIONS = ("covariance", "precision")

# Weights of the current and previous tick's rates in the state step.
INTEGRATORS = {"euler": (1.0, 0.0), "ab2": (1.5, -0.5)}


def _check_spd(m: np.ndarray, name: str, sym_tol: float = 1e-9) -> np.ndarray:
    m = np.atleast_2d(np.array(m, dtype=float))
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if np.linalg.norm(m - m.T) > sym_tol:
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class RiccatiWeights:
    """Printed tuning matrices of the gain recursion (all SPD)."""

    Qp: np.ndarray
    Qm: np.ndarray
    Qb: float
    S: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        qp = _check_spd(self.Qp, "Qp")
        qm = _check_spd(self.Qm, "Qm")
        if qm.shape != (3, 3):
            raise ValueError("Qm must be 3 x 3")
        if not 0.0 < self.Qb < np.inf:
            raise ValueError("Qb must be positive and finite")
        s = _check_spd(self.S, "S")
        p0 = _check_spd(self.P0, "P0")
        if s.shape != (7, 7) or p0.shape != (7, 7):
            raise ValueError("S and P0 must be 7 x 7")
        object.__setattr__(self, "Qp", qp)
        object.__setattr__(self, "Qm", qm)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "P0", p0)


@dataclass
class ObserverState:
    """Estimates plus the 7x7 Riccati covariance."""

    Rhat: np.ndarray
    Vahat: np.ndarray
    hhat: float
    P: np.ndarray

    def validate(self) -> None:
        """Check the SO(3) and SPD invariants; raises ValueError on failure."""
        if not geometry.is_rotation(self.Rhat):
            raise ValueError("Rhat is not a rotation matrix")
        if np.linalg.norm(self.P - self.P.T) > 1e-9:
            raise ValueError("P is not symmetric")
        if np.linalg.eigvalsh(self.P)[0] <= 0.0:
            raise ValueError("P is not positive definite")

    def copy(self) -> ObserverState:
        return ObserverState(self.Rhat.copy(), self.Vahat.copy(),
                             float(self.hhat), self.P.copy())


def state_matrix_dt(rhat: np.ndarray, a: np.ndarray, T: float) -> np.ndarray:
    """First-order discretization A_d = I + T A(Rhat)."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    m = np.eye(7)
    m[3:6, 0:3] = -T * skew(rhat @ a)
    m[6, 3:6] = T * E3
    return m


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
            rows.append(block)
        elif kind is SensorKind.MAG:
            block = np.zeros((3, 7))
            block[:, 0:3] = -skew(mag_ref.m_I)
            rows.append(block)
        else:
            block = np.zeros((1, 7))
            block[0, 6] = 1.0
            rows.append(block)
    return np.vstack(rows)


def additive_weight(weights: RiccatiWeights, subset, q_convention: str,
                    ) -> np.ndarray:
    """Additive innovation term for the requested sensors (stack order)."""
    if q_convention not in Q_CONVENTIONS:
        raise ValueError(f"unknown q_convention {q_convention!r}")
    blocks = []
    for kind in _subset_in_stack_order(subset):
        if kind is SensorKind.PITOT:
            block = np.array(weights.Qp)
        elif kind is SensorKind.MAG:
            block = np.array(weights.Qm)
        else:
            block = np.array([[weights.Qb]])
        if q_convention == "precision":
            block = np.linalg.inv(block)
        blocks.append(block)
    q = np.zeros((sum(b.shape[0] for b in blocks),) * 2)
    i = 0
    for block in blocks:
        j = i + block.shape[0]
        q[i:j, i:j] = block
        i = j
    return q


def riccati_predict(P: np.ndarray, A_d: np.ndarray, S: np.ndarray,
                    T: float) -> np.ndarray:
    """Covariance prediction ``A_d P A_d^T + S T``, returned exactly symmetric.

    :func:`riccati_update` relies on a symmetric ``P``; a one-row update
    then keeps it symmetric to the last bit.
    """
    p = A_d @ P @ A_d.T + S * T
    return 0.5 * (p + p.T)


def riccati_update(P: np.ndarray, C: np.ndarray, Q: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update: gain and corrected covariance.

    ``P`` is symmetric and ``Q`` is the additive innovation term.  The
    innovation covariance ``C P C^T + Q`` must be positive definite; a
    single 1e-12 jitter retry guards against marginal conditioning before
    giving up.  A one-row ``C`` makes it a scalar, so the gain is a
    division and the covariance update a rank-1 downdate; several rows go
    through its Cholesky factor.

    Returns
    -------
    (K, P_new):
        Gain ``P C^T (C P C^T + Q)^-1`` and the symmetric ``(I - K C) P``.

    Raises
    ------
    SingularInnovationError
        If the innovation covariance is not positive definite.
    """
    if C.shape[0] == 1:
        return _update_one_row(P, C[0], float(Q[0, 0]))
    return _update_cholesky(P, C, Q)


def _update_one_row(P: np.ndarray, c: np.ndarray, q: float,
                    ) -> tuple[np.ndarray, np.ndarray]:
    g = P @ c
    s = float(c @ g) + q
    # NaN fails the comparison too, so a non-finite P cannot slip through.
    if not s > 0.0:
        s += 1e-12
        if not s > 0.0:
            raise SingularInnovationError(
                "innovation covariance is not positive definite")
    return (g / s)[:, None], P - (g[:, None] * g) / s


def _update_cholesky(P: np.ndarray, C: np.ndarray, Q: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    cp = C @ P
    # cholesky reads only the lower triangle of the innovation covariance.
    s = cp @ C.T + Q
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(s + 1e-12 * np.eye(s.shape[0]))
        except np.linalg.LinAlgError:
            raise SingularInnovationError(
                "innovation covariance is not positive definite") from None
    chol_inv = np.linalg.inv(chol)
    w = chol_inv @ cp  # L^-1 C P: K = w^T L^-1 and K C P = w^T w
    return w.T @ chol_inv, P - w.T @ w


def _rotate(r: list[float], t0: float, t1: float, t2: float,
            ) -> tuple[list[float], float]:
    """Rodrigues product ``R exp([t]_x)`` and its orthonormality defect.

    ``r`` holds the nine entries of ``R`` row by row, and so does the
    returned product.  The coefficients follow :func:`geometry.exp_so3`,
    Taylor branch below ``SMALL_ANGLE_SWITCH`` included; a non-finite angle
    gives NaN coefficients, as ``exp_so3`` does.  The defect is
    :func:`geometry.rotation_defect` of the product, the Frobenius norm of
    ``R^T R - I`` with ``R`` the product.
    """
    angle2 = t0 * t0 + t1 * t1 + t2 * t2
    if angle2 < SMALL_ANGLE_SWITCH**2:
        c1 = 1.0 - angle2 / 6.0
        c2 = 0.5 - angle2 / 24.0
    elif angle2 < math.inf:
        angle = math.sqrt(angle2)
        c1 = math.sin(angle) / angle
        c2 = (1.0 - math.cos(angle)) / angle2
    else:
        c1 = c2 = math.nan
    # exp([t]_x) = I + c1 [t]_x + c2 [t]_x^2, with [t]_x^2 = t t^T - |t|^2 I
    s0, s1, s2 = c1 * t0, c1 * t1, c1 * t2
    p01, p02, p12 = c2 * t0 * t1, c2 * t0 * t2, c2 * t1 * t2
    e00 = 1.0 - c2 * (t1 * t1 + t2 * t2)
    e11 = 1.0 - c2 * (t0 * t0 + t2 * t2)
    e22 = 1.0 - c2 * (t0 * t0 + t1 * t1)
    e01, e10 = p01 - s2, p01 + s2
    e02, e20 = p02 + s1, p02 - s1
    e12, e21 = p12 - s0, p12 + s0
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    out = [r00 * e00 + r01 * e10 + r02 * e20,
           r00 * e01 + r01 * e11 + r02 * e21,
           r00 * e02 + r01 * e12 + r02 * e22,
           r10 * e00 + r11 * e10 + r12 * e20,
           r10 * e01 + r11 * e11 + r12 * e21,
           r10 * e02 + r11 * e12 + r12 * e22,
           r20 * e00 + r21 * e10 + r22 * e20,
           r20 * e01 + r21 * e11 + r22 * e21,
           r20 * e02 + r21 * e12 + r22 * e22]
    n00, n01, n02, n10, n11, n12, n20, n21, n22 = out
    # Gram matrix of the columns: its diagonal should be 1, the rest 0.
    g00 = n00 * n00 + n10 * n10 + n20 * n20 - 1.0
    g11 = n01 * n01 + n11 * n11 + n21 * n21 - 1.0
    g22 = n02 * n02 + n12 * n12 + n22 * n22 - 1.0
    g01 = n00 * n01 + n10 * n11 + n20 * n21
    g02 = n00 * n02 + n10 * n12 + n20 * n22
    g12 = n01 * n02 + n11 * n12 + n21 * n22
    defect = math.sqrt(g00 * g00 + g11 * g11 + g22 * g22
                       + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12))
    return out, defect


class AirDataObserver:
    """Stateful observer running the per-tick cycle (see module docstring).

    Parameters
    ----------
    state0:
        Initial :class:`ObserverState` (``P`` is usually ``weights.P0``).
    weights, probes, mag_ref, gravity:
        Fixed configuration shared by all ticks.
    dt:
        IMU period in seconds.
    q_convention:
        ``"covariance"`` or ``"precision"`` (see module docstring).
    integrator:
        ``"euler"`` integrates the state exactly as the discrete algorithm
        lists; ``"ab2"`` replaces the input-driven part of the velocity,
        altitude and attitude steps by a two-step Adams-Bashforth rule
        (second order, causal), leaving the innovation injection unchanged.
    """

    def __init__(self, state0: ObserverState, weights: RiccatiWeights,
                 probes: ProbeSet, mag_ref: MagReference, dt: float,
                 gravity: float = 9.81, q_convention: str = "covariance",
                 integrator: str = "euler"):
        if q_convention not in Q_CONVENTIONS:
            raise ValueError(f"unknown q_convention {q_convention!r}")
        if integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {integrator!r}")
        self.state = state0.copy()
        self.weights = weights
        self.probes = probes
        self.mag_ref = mag_ref
        self.dt = float(dt)
        self.gravity = float(gravity)
        self.q_convention = q_convention
        self.integrator = integrator
        self._c_now, self._c_prev = INTEGRATORS[integrator]
        self._prev_rates: list[float] | None = None
        self._a_d = state_matrix_dt(np.eye(3), np.zeros(3), self.dt)
        # Stacked output rows and residuals in STACK_ORDER; only the Pitot
        # rows depend on the estimate, the mag and baro rows stay as built.
        m = probes.m
        self._c = output_matrix(self.state.Rhat, self.state.Vahat, probes,
                                mag_ref, STACK_ORDER)
        self._y = np.zeros(m + 4)
        self._q_stacked = additive_weight(weights, STACK_ORDER, q_convention)
        # Rows of _c and _y and the additive weight of each sensor alone.
        self._single = {
            kind: (rows, additive_weight(weights, (kind,), q_convention))
            for kind, rows in ((SensorKind.PITOT, slice(0, m)),
                               (SensorKind.MAG, slice(m, m + 3)),
                               (SensorKind.BARO, slice(m + 3, m + 4)))}
        self._probe_axes = probes.B.T.tolist()
        self._m_i = mag_ref.m_I.tolist()

    def tick(self, payloads: dict) -> ObserverState:
        """Advance one IMU tick given ``{SensorKind: payload}``; returns state.

        Payloads are numpy arrays (the IMU payload a pair of 3-vectors
        ``(omega, a)``) except the barometer's, a float.  If the tick fails,
        :attr:`state` stays at the last valid estimate.

        Raises
        ------
        MissingPayloadError
            If no IMU payload is supplied.
        SingularInnovationError
            If an innovation covariance is not positive definite.
        DivergenceError
            If the updated state exceeds the numerical divergence floor or
            the attitude estimate is not finite.
        """
        imu = payloads.get(SensorKind.IMU)
        if imu is None:
            raise MissingPayloadError("observer tick requires an IMU payload")
        omega, a = imu
        est = self.state
        T = self.dt
        r = est.Rhat.ravel().tolist()
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
        v0, v1, v2 = est.Vahat.tolist()
        h = est.hhat
        rv0 = r00 * v0 + r01 * v1 + r02 * v2
        rv1 = r10 * v0 + r11 * v1 + r12 * v2
        rv2 = r20 * v0 + r21 * v1 + r22 * v2

        # A_d = I + T A(Rhat): its only varying block is -T (Rhat a)^x.
        a0, a1, a2 = a.tolist()
        k0 = -T * (r00 * a0 + r01 * a1 + r02 * a2)
        k1 = -T * (r10 * a0 + r11 * a1 + r12 * a2)
        k2 = -T * (r20 * a0 + r21 * a1 + r22 * a2)
        a_d = self._a_d
        a_d[3, 1] = -k2
        a_d[3, 2] = k1
        a_d[4, 0] = k2
        a_d[4, 2] = -k0
        a_d[5, 0] = -k1
        a_d[5, 1] = k0
        p = riccati_predict(est.P, a_d, self.weights.S, T)

        # Residuals and Pitot rows of the sensors that sampled, collected
        # in the sequential update order: barometer, magnetometer, Pitot.
        c, y = self._c, self._y
        fired = []
        baro = payloads.get(SensorKind.BARO)
        if baro is not None:
            y[-1] = baro - h
            fired.append(SensorKind.BARO)
        mag = payloads.get(SensorKind.MAG)
        if mag is not None:
            m0, m1, m2 = mag.tolist()
            mi0, mi1, mi2 = self._m_i
            y[-4:-1] = [mi0 - (r00 * m0 + r01 * m1 + r02 * m2),
                        mi1 - (r10 * m0 + r11 * m1 + r12 * m2),
                        mi2 - (r20 * m0 + r21 * m1 + r22 * m2)]
            fired.append(SensorKind.MAG)
        pitot = payloads.get(SensorKind.PITOT)
        if pitot is not None:
            # Probe j's row is [x_j x (Rhat Vahat) | x_j | 0], x_j = Rhat b_j.
            pitot_rows, pitot_res = [], []
            for (b0, b1, b2), meas in zip(self._probe_axes, pitot.tolist()):
                x0 = r00 * b0 + r01 * b1 + r02 * b2
                x1 = r10 * b0 + r11 * b1 + r12 * b2
                x2 = r20 * b0 + r21 * b1 + r22 * b2
                pitot_rows.append([x1 * rv2 - x2 * rv1, x2 * rv0 - x0 * rv2,
                                   x0 * rv1 - x1 * rv0, x0, x1, x2])
                pitot_res.append(meas - (b0 * v0 + b1 * v1 + b2 * v2))
            c[:len(pitot_rows), 0:6] = pitot_rows
            y[:len(pitot_res)] = pitot_res
            fired.append(SensorKind.PITOT)
        u = None
        if len(fired) == 3:
            k, p = riccati_update(p, c, self._q_stacked)
            u = (-(k @ y)).tolist()
        elif fired:
            acc = np.zeros(7)
            for kind in fired:
                rows, q = self._single[kind]
                k, p = riccati_update(p, c[rows], q)
                acc -= k @ y[rows]
            u = acc.tolist()

        # Input-driven rates [omega, dVahat/dt, dhhat/dt], blended with the
        # previous tick's; Rhat^T e3 is the last row of Rhat.
        w0, w1, w2 = omega.tolist()
        g = self.gravity
        f = [w0, w1, w2,
             -(w1 * v2 - w2 * v1) + g * r20 + a0,
             -(w2 * v0 - w0 * v2) + g * r21 + a1,
             -(w0 * v1 - w1 * v0) + g * r22 + a2,
             rv2]
        prev, self._prev_rates = self._prev_rates, f
        if prev is not None:
            c_now, c_prev = self._c_now, self._c_prev
            f = [c_now * fi + c_prev * pi for fi, pi in zip(f, prev)]
        t0, t1, t2, dv0, dv1, dv2, dh = [T * fi for fi in f]
        if u is not None:
            # The gain-weighted innovation u = [dR, dv, dh] enters at full
            # strength, consistent with the (I - K C) P reduction.
            d0, d1, d2, e0, e1, e2, e6 = u
            t0 -= r00 * d0 + r10 * d1 + r20 * d2
            t1 -= r01 * d0 + r11 * d1 + r21 * d2
            t2 -= r02 * d0 + r12 * d1 + r22 * d2
            z0 = (d1 * rv2 - d2 * rv1) - e0
            z1 = (d2 * rv0 - d0 * rv2) - e1
            z2 = (d0 * rv1 - d1 * rv0) - e2
            dv0 += r00 * z0 + r10 * z1 + r20 * z2
            dv1 += r01 * z0 + r11 * z1 + r21 * z2
            dv2 += r02 * z0 + r12 * z1 + r22 * z2
            dh -= e6
        r, defect = _rotate(r, t0, t1, t2)
        v0 += dv0
        v1 += dv1
        v2 += dv2
        h = float(h + dh)
        # NaN fails every comparison, so non-finite states trip the floor.
        if not (abs(v0) < STATE_FLOOR and abs(v1) < STATE_FLOOR
                and abs(v2) < STATE_FLOOR and abs(h) < STATE_FLOOR
                and sum(p.diagonal().tolist()) < P_TRACE_FLOOR
                and defect < math.inf):
            raise DivergenceError(
                "observer state exceeded the numerical floor")
        rhat = np.array(r).reshape(3, 3)
        if defect > ORTHONORMALITY_TOL:
            rhat = geometry.project_to_so3(rhat)
        self.state = ObserverState(Rhat=rhat, Vahat=np.array([v0, v1, v2]),
                                   hhat=h, P=p)
        return self.state
