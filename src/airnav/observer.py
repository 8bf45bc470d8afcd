"""Riccati-gain nonlinear observer for attitude, air velocity and altitude.

The estimator runs a copy of the vehicle kinematics driven by IMU inputs and
injects innovation terms computed from a 7-state Riccati recursion
(attitude error, inertial air-velocity error, altitude error).

:meth:`AirDataObserver.advance` is the observer's only step: it runs a
block of ticks, each the whole discrete cycle on Python floats.  Between
ticks it keeps ``Rhat`` (row by row), ``Vahat``, ``hhat``, ``P`` packed as
the 28 floats of its upper triangle and the previous tick's rates in local
variables, and stores them on the observer once per block;
:attr:`AirDataObserver.state` builds the arrays only when asked.

1. covariance prediction ``A_d P A_d^T + S T`` with ``A_d = I + T A(Rhat)``
   (:func:`_predict_packed`).  ``A_d - I`` has two small blocks, so the
   product is written out on the upper triangle; the result is exactly
   symmetric by construction and ``S T`` is packed once;
2. measurement update for the aiding sensors that sampled on the tick,
   one scalar row at a time in one loop (:func:`_fold`): ``g = P c``,
   ``s = c^T g + q``, ``P - g g^T / s``, with ``s > 0`` checked.  Each
   sensor's constant additive block is factored once (:func:`_whitener`) and
   its rows and residuals whitened by that factor, so a non-diagonal block or
   ``q_convention = "precision"`` takes the same path.  The magnetometer's
   whitened rows ``-(m_I)^x`` have rank 2 (one vector fixes two attitude
   angles), so it has 2 unit-variance rows and a residual map, from their
   SVD.  The loop takes the rows in the order barometer, magnetometer, Pitot,
   each with the sequential innovation ``y_j - c_j . delta`` of the
   correction ``delta`` so far, which is the block update's algebra
   (Bierman 1977).  When Pitot, magnetometer and barometer coincide, ``delta``
   runs on over every row, which is the stacked update; otherwise each
   sensor's correction starts from zero, from its raw residual, and the
   corrections are added.  ``P`` is unpacked once per tick.  Only ``g``, ``s``
   and the innovation differ between sensors, because each row skips the
   products with its known zeros: the magnetometer rows (constant, built
   once) are zero in columns 3-6, the barometer row is ``e6`` and a Pitot row
   (built from ``Rhat b_j`` as it is folded) is zero in column 6.  The gain,
   the downdate of ``P`` and the correction update are written once, and the
   floats are those of the dense kernel :func:`_update_row`;
3. state integration: exponential step on SO(3), explicit step for the
   vector part.  The rates, their blend, the innovation injection and the
   Rodrigues product ``Rhat exp(theta^x)`` with its orthonormality defect
   (:func:`_rotate`) are scalar arithmetic.  The input-driven rates combine
   the current and previous tick with fixed coefficients, ``(1, 0)`` for
   Euler and ``(3/2, -1/2)`` for two-step Adams-Bashforth, so both
   integrators share one code path;
4. the divergence-floor check on ``Vahat``, ``hhat``, the trace of ``P``
   and the attitude (a non-finite ``Rhat`` trips it), then the
   re-projection of ``Rhat`` onto SO(3) if its defect exceeds
   ``ORTHONORMALITY_TOL``.  A tick that fails leaves the estimate and the
   previous tick's rates as they were.

:func:`riccati_update` runs the dense scalar kernel row by row on a dense
``P``, so the test suite can check that kernel against the block formula,
and the fold against it.  The dense forms of the recursion (``A_d``, the
predict, the output rows and additive weights) and the reference code they
are checked against (the stacked residuals, the continuous-time
``A(Rhat)`` and an RK4 integrator of the continuous Riccati equation) live
with the tests, in ``tests/oracles.py``, and are not part of the package.

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
import struct
from dataclasses import dataclass

import numpy as np

from . import geometry
from .exceptions import (
    DegenerateMatrixError,
    DivergenceError,
    SingularInnovationError,
)
from .geometry import ORTHONORMALITY_TOL, SMALL_ANGLE_SWITCH, skew
from .sensors import MagReference, ProbeSet

STATE_FLOOR = 1e9
P_TRACE_FLOOR = 1e12

# Numerical failures of one tick: AirDataObserver.advance reports them.
RUN_FAILURES = (DivergenceError, SingularInnovationError,
                DegenerateMatrixError, np.linalg.LinAlgError)

# Floats of one record of the estimate: Rhat row by row, Vahat, hhat and the
# packed P.
RECORD_WIDTH = 9 + 3 + 1 + 28
_RECORD = struct.Struct(f"{RECORD_WIDTH}d")

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


def riccati_update(P: np.ndarray, C: np.ndarray, Q: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update: gain and corrected covariance.

    ``P`` is symmetric (only its upper triangle is read) and ``Q`` is the
    additive innovation term, positive definite unless diagonal.  The rows
    are whitened by :func:`_whitener` and folded into ``P`` one at a time
    by :func:`_update_row`, the dense form of the tick's fold, so
    ``C`` may hold any rows; the gain is collected from the sequential
    innovations ``y_j - c_j . delta``.

    Returns
    -------
    (K, P_new):
        Gain ``P C^T (C P C^T + Q)^-1`` and the symmetric ``(I - K C) P``.

    Raises
    ------
    SingularInnovationError
        If an innovation variance is not positive.
    """
    w, d = _whitener(Q)
    cw = np.asarray(C, dtype=float)
    if w is not None:
        cw = np.array(w) @ cw
    p = _pack(P)
    # Gain on the whitened residual: delta_j = delta + k_j (y_j - c_j delta).
    gain = np.zeros((7, C.shape[0]))
    for j, (c, q) in enumerate(zip(cw.tolist(), d)):
        p, k = _update_row(p, c, q, 1.0, (0.0,) * 7)
        k = np.array(k)
        gain -= np.outer(k, cw[j] @ gain)
        gain[:, j] += k
    if w is not None:
        gain = gain @ np.array(w)
    return gain, _unpack(p)


# A symmetric 7x7 matrix packed as its 28 upper-triangle entries, row by
# row: (0,0), (0,1), ..., (0,6), (1,1), ..., (6,6).  PACKED_INDEX maps each
# (i, j) to the position of entry (min(i, j), max(i, j)).
_UPPER = np.triu_indices(7)
PACKED_INDEX = np.empty((7, 7), dtype=np.intp)
PACKED_INDEX[_UPPER] = PACKED_INDEX.T[_UPPER] = np.arange(28)


def _pack(m: np.ndarray) -> tuple[float, ...]:
    return tuple(np.asarray(m, dtype=float)[_UPPER].tolist())


def _unpack(p: tuple[float, ...]) -> np.ndarray:
    return np.array(p)[PACKED_INDEX]


def _whitener(q: np.ndarray) -> tuple[list[list[float]] | None, list[float]]:
    """Unit lower-triangular ``W`` and ``d`` with ``W Q W^T = diag(d)``.

    ``W`` is None for a diagonal ``Q``: its rows need no whitening, and
    ``d`` is then its diagonal, as given.  Otherwise ``W = L^-1`` for the
    factor ``Q = L diag(d) L^T``, and whitened rows ``W C`` with residuals
    ``W y`` take scalar updates with the variances ``d``.
    """
    q = np.asarray(q, dtype=float)
    if not np.any(q - np.diag(np.diag(q))):
        return None, np.diag(q).tolist()
    chol = np.linalg.cholesky(q)
    scale = np.diag(chol)
    return np.linalg.inv(chol / scale).tolist(), (scale * scale).tolist()


def _lower_times(w: list[list[float]], y: list[float]) -> list[float]:
    """``W y`` for the whitener ``W`` of :func:`_whitener`."""
    return [sum(wj[i] * y[i] for i in range(j + 1)) for j, wj in enumerate(w)]


def _predict_packed(p: tuple[float, ...], k0: float, k1: float, k2: float,
                    T: float, st: tuple[float, ...]) -> tuple[float, ...]:
    """Packed ``A_d P A_d^T + S T`` for ``A_d = I + N``.

    ``N`` holds ``K = (k)^x`` in rows 3-5, columns 0-2 (``k = -T Rhat a``)
    and ``T`` at (6, 5); ``st`` is the packed ``S T``.  With the attitude
    (a), velocity (v) and altitude (h) blocks of ``P``, ``X = K P_aa + P_va``
    and ``Y = K P_av + P_vv`` (rows 3-5 of ``A_d P``), the result has the
    blocks ``P_aa``, ``X^T`` and ``X K^T + Y``, and its altitude column adds
    ``T`` times column 5 of ``A_d P`` to column 6.  Only the upper triangle
    is formed, so the result is exactly symmetric.
    """
    (p00, p01, p02, p03, p04, p05, p06,
     p11, p12, p13, p14, p15, p16,
     p22, p23, p24, p25, p26,
     p33, p34, p35, p36,
     p44, p45, p46,
     p55, p56,
     p66) = p
    # X[i][j]: rows 3-5, columns 0-2 of A_d P; (k)^x m is k x m.
    x00 = k1 * p02 - k2 * p01 + p03
    x10 = k2 * p00 - k0 * p02 + p04
    x20 = k0 * p01 - k1 * p00 + p05
    x01 = k1 * p12 - k2 * p11 + p13
    x11 = k2 * p01 - k0 * p12 + p14
    x21 = k0 * p11 - k1 * p01 + p15
    x02 = k1 * p22 - k2 * p12 + p23
    x12 = k2 * p02 - k0 * p22 + p24
    x22 = k0 * p12 - k1 * p02 + p25
    # Rows 3-5 of A_d P: Y (columns 3-5, upper triangle) and column 6.
    y00 = k1 * p23 - k2 * p13 + p33
    y01 = k1 * p24 - k2 * p14 + p34
    y02 = k1 * p25 - k2 * p15 + p35
    y11 = k2 * p04 - k0 * p24 + p44
    y12 = k2 * p05 - k0 * p25 + p45
    y22 = k0 * p15 - k1 * p05 + p55
    z0 = k1 * p26 - k2 * p16 + p36
    z1 = k2 * p06 - k0 * p26 + p46
    z2 = k0 * p16 - k1 * p06 + p56
    (s00, s01, s02, s03, s04, s05, s06,
     s11, s12, s13, s14, s15, s16,
     s22, s23, s24, s25, s26,
     s33, s34, s35, s36,
     s44, s45, s46,
     s55, s56,
     s66) = st
    return (
        p00 + s00, p01 + s01, p02 + s02, x00 + s03, x10 + s04, x20 + s05,
        p06 + T * p05 + s06,
        p11 + s11, p12 + s12, x01 + s13, x11 + s14, x21 + s15,
        p16 + T * p15 + s16,
        p22 + s22, x02 + s23, x12 + s24, x22 + s25, p26 + T * p25 + s26,
        k1 * x02 - k2 * x01 + y00 + s33, k2 * x00 - k0 * x02 + y01 + s34,
        k0 * x01 - k1 * x00 + y02 + s35, z0 + T * y02 + s36,
        k2 * x10 - k0 * x12 + y11 + s44, k0 * x11 - k1 * x10 + y12 + s45,
        z1 + T * y12 + s46,
        k0 * x21 - k1 * x20 + y22 + s55, z2 + T * y22 + s56,
        p66 + T * p56 + T * (p56 + T * p55) + s66)


def _update_row(p: tuple[float, ...], c, q: float, y: float,
                d: tuple[float, ...],
                ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """One scalar measurement row folded into ``P`` and the correction ``d``.

    With ``g = P c`` and ``s = c^T g + q``, returns the packed
    ``P - g g^T / s`` and ``d + (g / s)(y - c . d)``: the row takes the
    sequential innovation of the correction so far, so rows folded one
    after another make the block update ``d + K (y - C d)`` when their
    additive terms are uncorrelated.  ``y = 1`` and ``d = 0`` give the gain
    ``g / s`` itself.  ``s`` must be positive (see :func:`_marginal`).
    :func:`riccati_update` runs it on any row; the tick runs :func:`_fold`,
    its arithmetic for the rows with known zeros.
    """
    (p00, p01, p02, p03, p04, p05, p06,
     p11, p12, p13, p14, p15, p16,
     p22, p23, p24, p25, p26,
     p33, p34, p35, p36,
     p44, p45, p46,
     p55, p56,
     p66) = p
    c0, c1, c2, c3, c4, c5, c6 = c
    g0 = (p00 * c0 + p01 * c1 + p02 * c2 + p03 * c3 + p04 * c4 + p05 * c5
          + p06 * c6)
    g1 = (p01 * c0 + p11 * c1 + p12 * c2 + p13 * c3 + p14 * c4 + p15 * c5
          + p16 * c6)
    g2 = (p02 * c0 + p12 * c1 + p22 * c2 + p23 * c3 + p24 * c4 + p25 * c5
          + p26 * c6)
    g3 = (p03 * c0 + p13 * c1 + p23 * c2 + p33 * c3 + p34 * c4 + p35 * c5
          + p36 * c6)
    g4 = (p04 * c0 + p14 * c1 + p24 * c2 + p34 * c3 + p44 * c4 + p45 * c5
          + p46 * c6)
    g5 = (p05 * c0 + p15 * c1 + p25 * c2 + p35 * c3 + p45 * c4 + p55 * c5
          + p56 * c6)
    g6 = (p06 * c0 + p16 * c1 + p26 * c2 + p36 * c3 + p46 * c4 + p56 * c5
          + p66 * c6)
    s = (c0 * g0 + c1 * g1 + c2 * g2 + c3 * g3 + c4 * g4 + c5 * g5 + c6 * g6
         + q)
    if not s > 0.0:
        s = _marginal(s)
    k0, k1, k2, k3, k4, k5, k6 = (g0 / s, g1 / s, g2 / s, g3 / s, g4 / s,
                                  g5 / s, g6 / s)
    d0, d1, d2, d3, d4, d5, d6 = d
    e = y - (c0 * d0 + c1 * d1 + c2 * d2 + c3 * d3 + c4 * d4 + c5 * d5
             + c6 * d6)
    return (
        p00 - k0 * g0, p01 - k0 * g1, p02 - k0 * g2, p03 - k0 * g3,
        p04 - k0 * g4, p05 - k0 * g5, p06 - k0 * g6,
        p11 - k1 * g1, p12 - k1 * g2, p13 - k1 * g3, p14 - k1 * g4,
        p15 - k1 * g5, p16 - k1 * g6,
        p22 - k2 * g2, p23 - k2 * g3, p24 - k2 * g4, p25 - k2 * g5,
        p26 - k2 * g6,
        p33 - k3 * g3, p34 - k3 * g4, p35 - k3 * g5, p36 - k3 * g6,
        p44 - k4 * g4, p45 - k4 * g5, p46 - k4 * g6,
        p55 - k5 * g5, p56 - k5 * g6,
        p66 - k6 * g6), (
        d0 + k0 * e, d1 + k1 * e, d2 + k2 * e, d3 + k3 * e, d4 + k4 * e,
        d5 + k5 * e, d6 + k6 * e)


def _marginal(s: float) -> float:
    """An innovation variance that failed ``s > 0``, retried once with
    1e-12 added against marginal conditioning.  NaN fails the comparison
    too, so a non-finite ``P`` cannot slip through."""
    s += 1e-12
    if not s > 0.0:
        raise SingularInnovationError(
            "innovation covariance is not positive definite")
    return s


def _fold(p: tuple[float, ...], baro: float | None, mag: list[float] | None,
          pitot: list[float] | None, r: list[float], v: tuple[float, ...],
          rv: tuple[float, ...], rows: tuple,
          ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Fold one tick's aiding rows into the packed ``P``; returns it and
    the correction ``u``.

    ``baro`` is the barometer residual, ``mag`` the two magnetometer
    residuals and ``pitot`` the whitened Pitot readings, None where the
    sensor did not sample; ``r``, ``v`` and ``rv`` are ``Rhat`` row by row,
    ``Vahat`` and ``Rhat Vahat``, and ``rows`` the observer's constants.
    One loop takes the rows in the order barometer, magnetometer, Pitot.
    Each sensor's branch forms ``g = P c`` on the row's support, ``s`` and
    the innovation ``e``; the gain, the downdate of ``P`` and the update of
    the correction ``d`` are shared.  These are :func:`_update_row`'s
    operations in its order, less the products with the row's known zeros.
    For finite values such a product is a signed zero, and adding one
    changes no sum but for the sign of a zero sum, so the floats are
    :func:`_update_row`'s on the full rows.
    """
    (p00, p01, p02, p03, p04, p05, p06, p11, p12, p13, p14, p15, p16,
     p22, p23, p24, p25, p26, p33, p34, p35, p36, p44, p45, p46,
     p55, p56, p66) = p
    q_baro, mag_rows, axes, q_pitot = rows
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    v0, v1, v2 = v
    rv0, rv1, rv2 = rv
    # On a stacked tick every row takes the sequential innovation of d;
    # otherwise d starts from zero for each sensor and u adds them up.
    stacked = baro is not None and mag is not None and pitot is not None
    d0 = d1 = d2 = d3 = d4 = d5 = d6 = u0 = u1 = u2 = u3 = u4 = u5 = u6 = 0.0
    for sensor, cs, ys, qs in (
            ("baro", (None,), None if baro is None else (baro,), (q_baro,)),
            ("mag", mag_rows, mag, (1.0, 1.0)),
            ("pitot", axes, pitot, q_pitot)):
        if ys is None:
            continue
        for c, y, q in zip(cs, ys, qs):
            if sensor == "baro":
                # The row e6: g is column 6 of P.
                g0, g1, g2, g3, g4, g5, g6 = p06, p16, p26, p36, p46, p56, p66
                s = g6 + q
                e = y - d6
            elif sensor == "mag":
                # The row on its support, columns 0-2.
                c0, c1, c2 = c
                g0 = p00 * c0 + p01 * c1 + p02 * c2
                g1 = p01 * c0 + p11 * c1 + p12 * c2
                g2 = p02 * c0 + p12 * c1 + p22 * c2
                g3 = p03 * c0 + p13 * c1 + p23 * c2
                g4 = p04 * c0 + p14 * c1 + p24 * c2
                g5 = p05 * c0 + p15 * c1 + p25 * c2
                g6 = p06 * c0 + p16 * c1 + p26 * c2
                s = c0 * g0 + c1 * g1 + c2 * g2 + q
                e = y - (c0 * d0 + c1 * d1 + c2 * d2)
            else:
                # Probe j's row is [x_j x (Rhat Vahat) | x_j | 0] with
                # x_j = Rhat b_j; its residual is y - b_j . Vahat.
                b0, b1, b2 = c
                c3 = r00 * b0 + r01 * b1 + r02 * b2
                c4 = r10 * b0 + r11 * b1 + r12 * b2
                c5 = r20 * b0 + r21 * b1 + r22 * b2
                c0 = c4 * rv2 - c5 * rv1
                c1 = c5 * rv0 - c3 * rv2
                c2 = c3 * rv1 - c4 * rv0
                g0 = (p00 * c0 + p01 * c1 + p02 * c2 + p03 * c3 + p04 * c4
                      + p05 * c5)
                g1 = (p01 * c0 + p11 * c1 + p12 * c2 + p13 * c3 + p14 * c4
                      + p15 * c5)
                g2 = (p02 * c0 + p12 * c1 + p22 * c2 + p23 * c3 + p24 * c4
                      + p25 * c5)
                g3 = (p03 * c0 + p13 * c1 + p23 * c2 + p33 * c3 + p34 * c4
                      + p35 * c5)
                g4 = (p04 * c0 + p14 * c1 + p24 * c2 + p34 * c3 + p44 * c4
                      + p45 * c5)
                g5 = (p05 * c0 + p15 * c1 + p25 * c2 + p35 * c3 + p45 * c4
                      + p55 * c5)
                g6 = (p06 * c0 + p16 * c1 + p26 * c2 + p36 * c3 + p46 * c4
                      + p56 * c5)
                s = (c0 * g0 + c1 * g1 + c2 * g2 + c3 * g3 + c4 * g4
                     + c5 * g5 + q)
                e = (y - (b0 * v0 + b1 * v1 + b2 * v2)
                     - (c0 * d0 + c1 * d1 + c2 * d2 + c3 * d3 + c4 * d4
                        + c5 * d5))
            if not s > 0.0:
                s = _marginal(s)
            # At most three names per assignment, so a row builds no tuple;
            # each new entry reads only its old value, k and g.
            k0, k1, k2 = g0 / s, g1 / s, g2 / s
            k3, k4, k5 = g3 / s, g4 / s, g5 / s
            k6 = g6 / s
            p00, p01, p02 = p00 - k0 * g0, p01 - k0 * g1, p02 - k0 * g2
            p03, p04, p05 = p03 - k0 * g3, p04 - k0 * g4, p05 - k0 * g5
            p06, p11, p12 = p06 - k0 * g6, p11 - k1 * g1, p12 - k1 * g2
            p13, p14, p15 = p13 - k1 * g3, p14 - k1 * g4, p15 - k1 * g5
            p16, p22, p23 = p16 - k1 * g6, p22 - k2 * g2, p23 - k2 * g3
            p24, p25, p26 = p24 - k2 * g4, p25 - k2 * g5, p26 - k2 * g6
            p33, p34, p35 = p33 - k3 * g3, p34 - k3 * g4, p35 - k3 * g5
            p36, p44, p45 = p36 - k3 * g6, p44 - k4 * g4, p45 - k4 * g5
            p46, p55, p56 = p46 - k4 * g6, p55 - k5 * g5, p56 - k5 * g6
            p66 = p66 - k6 * g6
            d0, d1, d2 = d0 + k0 * e, d1 + k1 * e, d2 + k2 * e
            d3, d4, d5 = d3 + k3 * e, d4 + k4 * e, d5 + k5 * e
            d6 = d6 + k6 * e
        if not stacked:
            u0, u1, u2, u3, u4, u5, u6 = (u0 + d0, u1 + d1, u2 + d2, u3 + d3,
                                          u4 + d4, u5 + d5, u6 + d6)
            d0 = d1 = d2 = d3 = d4 = d5 = d6 = 0.0
    p = (p00, p01, p02, p03, p04, p05, p06, p11, p12, p13, p14, p15, p16,
         p22, p23, p24, p25, p26, p33, p34, p35, p36, p44, p45, p46,
         p55, p56, p66)
    if stacked:
        return p, (d0, d1, d2, d3, d4, d5, d6)
    return p, (u0, u1, u2, u3, u4, u5, u6)


def _rotate(r: list[float], t0: float, t1: float, t2: float,
            ) -> tuple[list[float], float]:
    """Rodrigues product ``R exp([t]_x)`` and its orthonormality defect.

    ``r`` holds the nine entries of ``R`` row by row, and so does the
    returned product.  The coefficients follow :func:`geometry.exp_so3`,
    Taylor branch below ``SMALL_ANGLE_SWITCH`` included; a non-finite angle
    gives NaN coefficients, as ``exp_so3`` does.  The defect is the
    Frobenius norm of ``R^T R - I`` with ``R`` the product.
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
        Initial :class:`ObserverState` (``P`` is usually ``weights.P0``;
        only its upper triangle is read).
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
                 gravity: float, q_convention: str, integrator: str):
        if q_convention not in Q_CONVENTIONS:
            raise ValueError(f"unknown q_convention {q_convention!r}")
        if integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {integrator!r}")
        if len(weights.Qp) != probes.m:
            raise ValueError(f"Qp is {weights.Qp.shape} for {probes.m} probes")
        self.dt = float(dt)
        self.gravity = float(gravity)
        self._c_now, self._c_prev = INTEGRATORS[integrator]
        self._prev_rates: tuple[float, ...] | None = None
        # The estimate between ticks: Rhat row by row, Vahat, hhat, packed P.
        self._r = np.asarray(state0.Rhat, dtype=float).ravel().tolist()
        self._v = np.asarray(state0.Vahat, dtype=float).tolist()
        self._h = float(state0.hhat)
        self._p = _pack(state0.P)
        self._state: ObserverState | None = None
        self._st = _pack(weights.S * self.dt)
        # Each sensor's additive block, factored once.  The unit-whitened
        # mag rows W (-(m_I)^x) = U S V^T have rank 2: U_2^T W maps the
        # residual to two of unit variance, with the rows S_2 V_2^T.
        blocks = (weights.Qp, weights.Qm, np.array([[weights.Qb]]))
        if q_convention == "precision":
            blocks = [np.linalg.inv(block) for block in blocks]
        ((self._w_pitot, q_pitot), (w, d),
         (_, (q_baro,))) = map(_whitener, blocks)
        w = (np.eye(3) if w is None else np.array(w)) / np.sqrt(d)[:, None]
        u, sv, vt = np.linalg.svd(w @ -skew(mag_ref.m_I))
        self._mag = (mag_ref.m_I.tolist(), (u[:, :2].T @ w).ravel().tolist())
        axes = probes.B.T
        if self._w_pitot is not None:
            axes = np.array(self._w_pitot) @ axes
        # _fold's constants: baro variance, mag rows, probe axes, variances.
        self._rows = (q_baro, (sv[:2, None] * vt[:2]).tolist(), axes.tolist(),
                      q_pitot)
        self._m = probes.m

    @property
    def state(self) -> ObserverState:
        """The current estimate, built on first access after it changed."""
        if self._state is None:
            self._state = ObserverState(
                Rhat=np.array(self._r).reshape(3, 3),
                Vahat=np.array(self._v), hhat=self._h, P=_unpack(self._p))
        return self._state

    def advance(self, omegas: list, accs: list, pitots: list, mags: list,
                baros: list, record=None, offset: int = 0,
                ) -> tuple[int, Exception | None]:
        """Run a block of ticks on Python floats.

        Tick ``i`` takes ``omegas[i]`` and ``accs[i]`` (three floats each)
        and the readings ``pitots[i]`` (a float per probe), ``mags[i]``
        (three floats) and ``baros[i]`` (a float), None where that sensor
        did not sample.  A Pitot list whose length is not the number of
        probes, or a magnetometer list of other than three floats, raises
        ``ValueError``; the ticks before it stand.  Given a writable buffer
        ``record``, the estimate before tick ``i`` is packed into row
        ``offset + i`` of :data:`RECORD_WIDTH` doubles, and the estimate
        after a block that did not fail into the row after it.

        Returns ``(ticks, None)``, or ``(i, error)`` when tick ``i`` failed
        with one of :data:`RUN_FAILURES`; a failed tick changes nothing.
        """
        T, g, c_now, c_prev = self.dt, self.gravity, self._c_now, self._c_prev
        st, rows, w_pitot = self._st, self._rows, self._w_pitot
        (mi0, mi1, mi2), (a00, a01, a02, a10, a11, a12) = self._mag
        m = self._m
        pack_into, size = _RECORD.pack_into, _RECORD.size
        r, (v0, v1, v2), h, p = self._r, self._v, self._h, self._p
        prev = self._prev_rates
        i, error = 0, None
        try:
            for omega, a, pitot, mag, baro in zip(omegas, accs, pitots, mags,
                                                  baros):
                if record is not None:
                    pack_into(record, size * (offset + i), *r, v0, v1, v2, h,
                              *p)
                r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
                rv0 = r00 * v0 + r01 * v1 + r02 * v2
                rv1 = r10 * v0 + r11 * v1 + r12 * v2
                rv2 = r20 * v0 + r21 * v1 + r22 * v2
                # Varying block of A_d = I + T A(Rhat): (k)^x, k = -T Rhat a.
                a0, a1, a2 = a
                p_new = _predict_packed(p,
                                        -T * (r00 * a0 + r01 * a1 + r02 * a2),
                                        -T * (r10 * a0 + r11 * a1 + r12 * a2),
                                        -T * (r20 * a0 + r21 * a1 + r22 * a2),
                                        T, st)
                aided = not (baro is None and mag is None and pitot is None)
                if aided:
                    # Baro and mag residuals, whitened Pitot readings.
                    if baro is not None:
                        baro -= h
                    if mag is not None:
                        try:
                            m0, m1, m2 = mag
                        except ValueError:
                            raise ValueError(
                                f"{len(mag)} magnetometer readings, "
                                "not 3") from None
                        y0 = mi0 - (r00 * m0 + r01 * m1 + r02 * m2)
                        y1 = mi1 - (r10 * m0 + r11 * m1 + r12 * m2)
                        y2 = mi2 - (r20 * m0 + r21 * m1 + r22 * m2)
                        mag = (a00 * y0 + a01 * y1 + a02 * y2,
                               a10 * y0 + a11 * y1 + a12 * y2)
                    if pitot is not None:
                        if len(pitot) != m:
                            raise ValueError(
                                f"{len(pitot)} Pitot readings for {m} probes")
                        if w_pitot is not None:
                            pitot = _lower_times(w_pitot, pitot)
                    p_new, u = _fold(p_new, baro, mag, pitot, r, (v0, v1, v2),
                                     (rv0, rv1, rv2), rows)
                # Input-driven rates [omega, dVahat/dt, dhhat/dt], blended
                # with the previous tick's; Rhat^T e3 is the last row of Rhat.
                w0, w1, w2 = omega
                rates = (w0, w1, w2,
                         -(w1 * v2 - w2 * v1) + g * r20 + a0,
                         -(w2 * v0 - w0 * v2) + g * r21 + a1,
                         -(w0 * v1 - w1 * v0) + g * r22 + a2,
                         rv2)
                f0, f1, f2, f3, f4, f5, f6 = rates
                if prev is not None:
                    q0, q1, q2, q3, q4, q5, q6 = prev
                    f0 = c_now * f0 + c_prev * q0
                    f1 = c_now * f1 + c_prev * q1
                    f2 = c_now * f2 + c_prev * q2
                    f3 = c_now * f3 + c_prev * q3
                    f4 = c_now * f4 + c_prev * q4
                    f5 = c_now * f5 + c_prev * q5
                    f6 = c_now * f6 + c_prev * q6
                t0, t1, t2, dv0, dv1, dv2, dh = (T * f0, T * f1, T * f2,
                                                 T * f3, T * f4, T * f5,
                                                 T * f6)
                if aided:
                    # The correction u = K y = [dR, dv, dh] enters at full
                    # strength, consistent with the (I - K C) P reduction.
                    d0, d1, d2, e0, e1, e2, e6 = u
                    t0 += r00 * d0 + r10 * d1 + r20 * d2
                    t1 += r01 * d0 + r11 * d1 + r21 * d2
                    t2 += r02 * d0 + r12 * d1 + r22 * d2
                    z0 = e0 - (d1 * rv2 - d2 * rv1)
                    z1 = e1 - (d2 * rv0 - d0 * rv2)
                    z2 = e2 - (d0 * rv1 - d1 * rv0)
                    dv0 += r00 * z0 + r10 * z1 + r20 * z2
                    dv1 += r01 * z0 + r11 * z1 + r21 * z2
                    dv2 += r02 * z0 + r12 * z1 + r22 * z2
                    dh += e6
                r_new, defect = _rotate(r, t0, t1, t2)
                vn0, vn1, vn2, h_new = v0 + dv0, v1 + dv1, v2 + dv2, h + dh
                # NaN fails every comparison: non-finite states trip it.
                floor = STATE_FLOOR
                if not (-floor < vn0 < floor and -floor < vn1 < floor
                        and -floor < vn2 < floor and -floor < h_new < floor
                        and (p_new[0] + p_new[7] + p_new[13] + p_new[18]
                             + p_new[22] + p_new[25] + p_new[27]
                             < P_TRACE_FLOOR)
                        and defect < math.inf):
                    raise DivergenceError(
                        "observer state exceeded the numerical floor")
                if defect > ORTHONORMALITY_TOL:
                    r_new = geometry.project_to_so3(
                        np.array(r_new).reshape(3, 3)).ravel().tolist()
                # The tick passed: commit it, rates included.
                r, v0, v1, v2, h, p, prev = (r_new, vn0, vn1, vn2, h_new,
                                             p_new, rates)
                i += 1
        except RUN_FAILURES as exc:
            error = exc
        finally:
            if i:
                self._r, self._v, self._h, self._p = r, [v0, v1, v2], h, p
                self._prev_rates, self._state = prev, None
        if record is not None and error is None:
            pack_into(record, size * (offset + i), *r, v0, v1, v2, h, *p)
        return i, error

