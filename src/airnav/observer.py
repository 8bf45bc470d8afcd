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
3. state integration: exponential step on SO(3), explicit step for the
   vector part.  The input-driven rates combine the current and previous
   tick with fixed coefficients, ``(1, 0)`` for Euler and ``(3/2, -1/2)``
   for two-step Adams-Bashforth, so both integrators share one code path;
4. the divergence-floor check.

:func:`observer_tick` and :func:`observer_step_state` are stateless entry
points to the same code with the Euler coefficients.

Weight conventions
------------------
``RiccatiWeights`` stores the printed tuning matrices ``Qp``, ``Qm``, ``Qb``.
How they enter the gain is controlled by ``q_convention``:

* ``"covariance"`` (default): the blocks are used directly as the additive
  innovation-covariance term of the discrete gain,
* ``"precision"``: the blocks are information weights; their inverses form
  the additive term.

The continuous-time Riccati equation (:func:`cre_rhs`) always treats its
``Q`` argument as an information weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import geometry
from .exceptions import (
    DivergenceError,
    MissingPayloadError,
    SingularInnovationError,
)
from .geometry import E3, cross3, skew
from .sensors import MagReference, ProbeSet, SensorKind

# Sensors are always stacked in this order when more than one updates at once.
STACK_ORDER = (SensorKind.PITOT, SensorKind.MAG, SensorKind.BARO)

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


@dataclass(frozen=True, eq=False)
class Innovation:
    """Gain-weighted output corrections injected into the observer."""

    delta_R: np.ndarray
    delta_v: np.ndarray
    delta_h: float

    @classmethod
    def zero(cls) -> Innovation:
        return cls(delta_R=np.zeros(3), delta_v=np.zeros(3), delta_h=0.0)

    def as_vector(self) -> np.ndarray:
        return np.concatenate((self.delta_R, self.delta_v, [self.delta_h]))


def state_matrix_ct(rhat: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Continuous-time error-state matrix A(Rhat)."""
    m = np.zeros((7, 7))
    m[3:6, 0:3] = -skew(rhat @ a)
    m[6, 3:6] = E3
    return m


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


def residual(payloads, est: ObserverState, probes: ProbeSet,
             mag_ref: MagReference, subset) -> np.ndarray:
    """Stacked measurement residuals in the fixed sensor order.

    The magnetometer residual is formed in the inertial frame,
    ``m_I - Rhat m_B``.

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
    return scipy.linalg.block_diag(*blocks)


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


def innovation_from_gain(K: np.ndarray, y: np.ndarray) -> Innovation:
    """Partition ``u = -K y`` into the three innovation terms."""
    u = -K @ y
    return Innovation(delta_R=u[0:3], delta_v=u[3:6], delta_h=float(u[6]))


def _rates(rhat: np.ndarray, vahat: np.ndarray, rv: np.ndarray,
           omega: np.ndarray, a: np.ndarray, gravity: float) -> np.ndarray:
    """Input-driven rates ``[omega, dVahat/dt, dhhat/dt]`` of the state step.

    ``rv`` is ``Rhat Vahat``; ``Rhat^T e3`` is the last row of ``Rhat``.
    """
    f = np.empty(7)
    f[0:3] = omega
    f[3:6] = -cross3(omega, vahat) + gravity * rhat[2] + a
    f[6] = rv[2]
    return f


def _step(rhat: np.ndarray, vahat: np.ndarray, rv: np.ndarray, hhat: float,
          f: np.ndarray, u: np.ndarray | None, T: float,
          ) -> tuple[np.ndarray, np.ndarray, float]:
    """Advance the state by the rates ``f`` and inject ``u = [dR, dv, dh]``.

    The dynamics terms advance by the tick period ``T``; the innovation
    terms are discrete gain-weighted corrections and enter at full
    strength, which keeps the state correction consistent with the
    ``(I - K C) P`` covariance reduction of the measurement update.
    ``u = None`` means no aiding sensor sampled on the tick.
    """
    theta = T * f[0:3]
    dv = T * f[3:6]
    dh = T * f[6]
    if u is not None:
        d_r = u[0:3]
        theta -= rhat.T @ d_r
        dv += rhat.T @ (cross3(d_r, rv) - u[3:6])
        dh -= u[6]
    rhat_new = rhat @ geometry.exp_so3(theta)
    if geometry.rotation_defect(rhat_new) > geometry.ORTHONORMALITY_TOL:
        rhat_new = geometry.project_to_so3(rhat_new)
    return rhat_new, vahat + dv, float(hhat + dh)


def observer_step_state(est: ObserverState, omega: np.ndarray, a: np.ndarray,
                        gravity: float, innov: Innovation, T: float,
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """One explicit (Euler) integration step of the observer state.

    Exponential step on SO(3) for the attitude, explicit Euler for the
    air-velocity and altitude estimates; the innovation enters at full
    strength.  This is the step :meth:`AirDataObserver.tick` takes with the
    Euler coefficients.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    rhat, vahat = est.Rhat, est.Vahat
    rv = rhat @ vahat
    return _step(rhat, vahat, rv, est.hhat,
                 _rates(rhat, vahat, rv, omega, a, gravity),
                 innov.as_vector(), T)


def _check_floor(state: ObserverState) -> None:
    v = state.Vahat
    biggest = max(abs(v[0]), abs(v[1]), abs(v[2]), abs(state.hhat))
    p_trace = float(state.P.trace())
    # NaN fails both comparisons, so non-finite states also trip the floor.
    if not (biggest < STATE_FLOOR) or not (p_trace < P_TRACE_FLOOR):
        raise DivergenceError("observer state exceeded the numerical floor")


def observer_tick(est: ObserverState, events, weights: RiccatiWeights,
                  probes: ProbeSet, mag_ref: MagReference, gravity: float,
                  T: float, q_convention: str = "covariance") -> ObserverState:
    """One full Euler observer tick from ``est``: predict, update, integrate.

    ``events`` is an iterable of :class:`~airnav.sensors.SensorEvent` (or a
    mapping kind -> payload) sharing one timestamp; the IMU payload must be
    present.  Equivalent to the first tick of a fresh
    :class:`AirDataObserver`.

    Raises
    ------
    MissingPayloadError
        If no IMU payload is supplied.
    DivergenceError
        If the updated state exceeds the numerical divergence floor.
    """
    payloads = events if isinstance(events, dict) else {
        ev.kind: ev.payload for ev in events}
    observer = AirDataObserver(est, weights, probes, mag_ref, dt=T,
                               gravity=gravity, q_convention=q_convention)
    return observer.tick(payloads)


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
        self._prev_rates: np.ndarray | None = None
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

    def tick(self, payloads: dict) -> ObserverState:
        """Advance one IMU tick given ``{SensorKind: payload}``; returns state.

        Raises
        ------
        MissingPayloadError
            If no IMU payload is supplied.
        SingularInnovationError
            If an innovation covariance is not positive definite.
        DivergenceError
            If the updated state exceeds the numerical divergence floor.
        """
        imu = payloads.get(SensorKind.IMU)
        if imu is None:
            raise MissingPayloadError("observer tick requires an IMU payload")
        omega, a = imu
        est = self.state
        rhat, vahat, T = est.Rhat, est.Vahat, self.dt
        rv = rhat @ vahat

        a_d = self._a_d
        a_d[3:6, 0:3] = skew(-T * (rhat @ a))
        p = riccati_predict(est.P, a_d, self.weights.S, T)

        # Residuals and Pitot rows of the sensors that sampled, collected
        # in the sequential update order: barometer, magnetometer, Pitot.
        c, y, bt = self._c, self._y, self.probes.B.T
        fired = []
        baro = payloads.get(SensorKind.BARO)
        if baro is not None:
            y[-1] = baro - est.hhat
            fired.append(SensorKind.BARO)
        mag = payloads.get(SensorKind.MAG)
        if mag is not None:
            y[-4:-1] = self.mag_ref.m_I - rhat @ mag
            fired.append(SensorKind.MAG)
        pitot = payloads.get(SensorKind.PITOT)
        if pitot is not None:
            m = bt.shape[0]
            bt_rt = bt @ rhat.T
            c[:m, 0:3] = bt_rt @ skew(rv)
            c[:m, 3:6] = bt_rt
            y[:m] = pitot - bt @ vahat
            fired.append(SensorKind.PITOT)
        u = None
        if len(fired) == 3:
            k, p = riccati_update(p, c, self._q_stacked)
            u = -(k @ y)
        elif fired:
            u = np.zeros(7)
            for kind in fired:
                rows, q = self._single[kind]
                k, p = riccati_update(p, c[rows], q)
                u -= k @ y[rows]

        f = _rates(rhat, vahat, rv, omega, a, self.gravity)
        prev, self._prev_rates = self._prev_rates, f
        if prev is not None:
            f = self._c_now * f + self._c_prev * prev
        rhat, vahat, hhat = _step(rhat, vahat, rv, est.hhat, f, u, T)
        self.state = ObserverState(Rhat=rhat, Vahat=vahat, hhat=hhat, P=p)
        _check_floor(self.state)
        return self.state


def cre_rhs(P: np.ndarray, A_ct: np.ndarray, C: np.ndarray, Q: np.ndarray,
            S: np.ndarray) -> np.ndarray:
    """Right-hand side of the continuous Riccati equation.

    ``Q`` is the information-style weight multiplying ``C^T Q C``.
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
