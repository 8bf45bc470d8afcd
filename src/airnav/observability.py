"""Numerical uniform-observability checks along the true trajectory.

The error-state transition matrix of the true system has closed-form blocks
(single and double time integrals of the inertial specific force), which are
evaluated here by composite Simpson quadrature on the closed-form truth.
Windowed observability Gramians and the two persistent-excitation margins
(horizontal Pitot projection, horizontal specific-force coupling) are
assembled from those blocks; positive margins certify uniform observability
for the trajectory, which the Gramian spectrum then witnesses directly.

Each window's Gramian is one matrix product.  The rows ``M = C* Phi*`` are
written in closed form for every grid point and stacked as an (n r) x 7
matrix (stored transposed); with ``w`` the exact composite-Simpson weights of the grid (the
unequal-interval rule of ``scipy.integrate.simpson``, so that ``w @ y``
equals ``simpson(y, x=s)``), the Gramian is ``M^T (w * M) / delta``.  The PE
Gram matrices are the same weighted products of their 2-column rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import TrajectorySpec
from .geometry import E3, skew
from .sensors import STACK_ORDER, MagReference, ProbeSet, SensorKind

DEFAULT_QUAD_STEP = 1e-3
DEFAULT_WINDOW = 4.0


@dataclass(frozen=True, eq=False)
class TransitionBlocks:
    """Closed-form blocks of the true-trajectory transition matrix."""

    phi11: np.ndarray
    phi21: np.ndarray
    t: float
    tau: float

    def full(self) -> np.ndarray:
        """Assemble the 7x7 transition matrix."""
        phi = np.zeros((7, 7))
        phi[0:6, 0:6] = self.phi11
        phi[6, 0:6] = self.phi21
        phi[6, 6] = 1.0
        return phi


@dataclass(frozen=True, eq=False)
class GramianReport:
    """Windowed Gramian spectrum plus the persistent-excitation margins."""

    W: np.ndarray
    lam_min: float
    lam_max: float
    delta: float
    mu_pi: float
    mu_api: float
    verdict: bool


@dataclass(frozen=True)
class WindowRow:
    """Per-window summary used by the observability report table."""

    t_start: float
    lam_min: float
    lam_max: float
    mu_pi: float
    mu_api: float
    verdict: bool


def _grid(tau: float, t: float, quad_step: float) -> np.ndarray:
    """Uniform quadrature grid over [tau, t] with an even interval count."""
    n = max(2, int(np.ceil((t - tau) / quad_step)))
    if n % 2:
        n += 1
    return np.linspace(tau, t, n + 1)


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running composite-Simpson integral of ``y`` along axis 0, from 0.

    The equal-interval rule of ``scipy.integrate.cumulative_simpson(y,
    dx=dx, axis=0, initial=0.0)`` with the same operations, so the bits
    agree: the first interval of each pair, ``[x_i, x_i+1]``, integrates
    the quadratic through ``y_i, y_i+1, y_i+2``; the second one, and the
    last interval of an odd interval count, integrate the quadratic through
    the point before.  ``y`` needs at least three points.
    """
    y0, y1, y2 = y[0:-2:2], y[1:-1:2], y[2::2]
    d3 = dx / 3
    out = np.empty_like(y)
    out[0] = 0.0
    out[1:-1:2] = d3 * (5 * y0 / 4 + 2 * y1 - y2 / 4)
    out[2::2] = d3 * (5 * y2 / 4 + 2 * y1 - y0 / 4)
    out[-1] = d3 * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4)
    # Summing from the 0.0 row gives scipy's "sum, then add initial" bits.
    return np.cumsum(out, axis=0)


def _integrated_force(spec: TrajectorySpec, s: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Specific force w(s) = R a and its first and second running integrals.

    ``s`` is a uniform :func:`_grid`, so the equal-interval rule applies
    (it matches the ``x=s`` rule to rounding and costs a third as much).
    """
    w = dynamics.inertial_specific_force(spec, s)
    dx = (s[-1] - s[0]) / (s.shape[0] - 1)
    g1 = _cumulative_simpson(w, dx)
    g2 = _cumulative_simpson(g1, dx)
    return w, g1, g2


def phi_blocks(spec: TrajectorySpec, t: float, tau: float,
               quad_step: float = DEFAULT_QUAD_STEP) -> TransitionBlocks:
    """Closed-form transition blocks over [tau, t].

    ``phi11`` is block lower-triangular with ``-(integral of (R a)^x)`` in
    the lower-left corner; ``phi21`` couples attitude and velocity errors
    into the altitude error through the double integral.
    """
    if tau > t:
        raise ValueError("tau must not exceed t")
    phi11 = np.eye(6)
    if t > tau:
        s = _grid(tau, t, quad_step)
        _, g1, g2 = _integrated_force(spec, s)
        phi11[3:6, 0:3] = -skew(g1[-1])
        phi21 = E3 @ np.hstack((-skew(g2[-1]), (t - tau) * np.eye(3)))
    else:
        phi21 = np.zeros(6)
    return TransitionBlocks(phi11=phi11, phi21=phi21, t=t, tau=tau)


def integrate_phi(spec: TrajectorySpec, t: float, tau: float,
                  step: float = DEFAULT_QUAD_STEP) -> np.ndarray:
    """RK4 integration of the transition-matrix ODE (validation oracle).

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


def _batch_skew(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def _simpson_weights(s: np.ndarray) -> np.ndarray:
    """Weights ``w`` with ``w @ y == simpson(y, x=s)`` on an odd-length grid.

    Each interval pair ``(h0, h1)`` contributes the unequal-interval rule
    ``scipy.integrate.simpson`` applies; shared end points sum two terms.
    """
    h = np.diff(s)
    h0, h1 = h[0::2], h[1::2]
    hsum6 = (h0 + h1) / 6.0
    w = np.zeros_like(s)
    w[0:-1:2] = hsum6 * (2.0 - h1 / h0)
    w[1::2] = hsum6 * (h0 + h1) ** 2 / (h0 * h1)
    w[2::2] += hsum6 * (2.0 - h0 / h1)
    return w


def _output_transition_rows(spec: TrajectorySpec, probes: ProbeSet,
                            mag_ref: MagReference, s: np.ndarray,
                            sensors) -> np.ndarray:
    """Rows of ``C*(s) Phi*(s, s[0])`` at every grid time, as (7, r, n).

    With ``g1``, ``g2`` the running integrals of ``R a`` and ``va`` the
    inertial air velocity, the closed-form products are

    * Pitot: ``[B^T R^T (va - g1)^x | B^T R^T | 0]``,
    * mag: ``[-(m_I)^x | 0 | 0]``,
    * baro: ``[g2_y, -g2_x, 0, 0, 0, s - s[0], 1]``.

    Row blocks follow :data:`~airnav.sensors.STACK_ORDER`, one per requested
    sensor.  The column index comes first and the grid index last, so every
    elementwise operation runs along the contiguous grid axis.
    """
    kinds = [kind for kind in STACK_ORDER if kind in sensors]
    sizes = {SensorKind.PITOT: probes.m, SensorKind.MAG: 3,
             SensorKind.BARO: 1}
    n = s.shape[0]
    rows = np.zeros((7, sum(sizes[kind] for kind in kinds), n))
    if SensorKind.PITOT in kinds or SensorKind.BARO in kinds:
        _, g1, g2 = _integrated_force(spec, s)
    i = 0
    for kind in kinds:
        block = rows[:, i:i + sizes[kind]]
        if kind is SensorKind.PITOT:
            rot = dynamics.attitude_batch(spec, s)
            # the rows of B^T R^T are the columns of R B: (3, m, n)
            r_b = (rot.reshape(-1, 3) @ probes.B).reshape(n, 3, probes.m)
            bt_rt = r_b.transpose(1, 2, 0)
            d = (dynamics.velocity(spec, s) - spec.wind - g1).T
            # v @ d^x == v x d for row vectors
            block[0:3] = np.cross(bt_rt, d[:, None, :], axis=0)
            block[3:6] = bt_rt
        elif kind is SensorKind.MAG:
            block[0:3] = -skew(mag_ref.m_I).T[:, :, None]
        else:
            block[0, 0] = g2[:, 1]
            block[1, 0] = -g2[:, 0]
            block[5, 0] = s - s[0]
            block[6, 0] = 1.0
        i += sizes[kind]
    return rows


def gramian(spec: TrajectorySpec, probes: ProbeSet, mag_ref: MagReference,
            t: float, delta: float, quad_step: float = DEFAULT_QUAD_STEP,
            sensors=STACK_ORDER) -> np.ndarray:
    """Windowed observability Gramian over [t, t + delta].

    The Simpson integral of ``(C* Phi*)^T (C* Phi*) / delta`` on the
    closed-form truth, assembled as one product ``M^T (w * M) / delta`` of
    the stacked rows ``M`` with their quadrature weights ``w``; the result
    is symmetrized, hence PSD up to quadrature error.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if quad_step > delta / 100.0:
        raise ValueError("quad_step must be at most delta / 100")
    s = _grid(t, t + delta, quad_step)
    rows = _output_transition_rows(spec, probes, mag_ref, s, sensors)
    weights = _simpson_weights(s) / delta
    w = (rows * weights).reshape(7, -1) @ rows.reshape(7, -1).T
    return 0.5 * (w + w.T)


def pe_margins(spec: TrajectorySpec, probes: ProbeSet, t: float, delta: float,
               quad_step: float = DEFAULT_QUAD_STEP) -> tuple[float, float]:
    """Persistent-excitation margins over [t, t + delta].

    Returns
    -------
    (mu_pi, mu_api):
        Smallest eigenvalues of the windowed Gram matrices of the horizontal
        Pitot projection ``B^T R J`` and of the horizontal specific-force
        row ``e3^T (R a)^x J``.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    s = _grid(t, t + delta, quad_step)
    weights = _simpson_weights(s) / delta
    rot = dynamics.attitude_batch(spec, s)
    # rows of B^T R J (J keeps two columns), probe-major: (m n, 2)
    pi = np.tensordot(probes.B, rot[:, :, 0:2], (0, 1)).reshape(-1, 2)
    gram_pi = pi.T @ (np.tile(weights, probes.m)[:, None] * pi)
    w = dynamics.inertial_specific_force(spec, s)
    a_pi = np.stack((-w[:, 1], w[:, 0]), axis=-1)
    gram_api = a_pi.T @ (weights[:, None] * a_pi)
    return (float(np.linalg.eigvalsh(gram_pi)[0]),
            float(np.linalg.eigvalsh(gram_api)[0]))


def observability_verdict(spec: TrajectorySpec, probes: ProbeSet,
                          mag_ref: MagReference,
                          delta: float = DEFAULT_WINDOW,
                          lam_threshold: float = 1e-6,
                          duration: float | None = None,
                          quad_step: float = DEFAULT_QUAD_STEP,
                          sensors=STACK_ORDER,
                          ) -> tuple[GramianReport, list[WindowRow]]:
    """Sweep half-overlapping windows and aggregate a uniform-observability verdict.

    Window starts are ``k delta/2`` for ``k = 0, 1, ...`` while the window
    fits in ``[0, duration]``.  The overall verdict is true iff the smallest
    Gramian eigenvalue over all windows stays at or above ``lam_threshold``;
    the returned report carries the worst window's Gramian and the smallest
    PE margins for diagnosis.

    Raises
    ------
    ValueError
        When ``delta`` is not finite and positive, exceeds ``duration`` or
        is shorter than ``100 quad_step``, or when ``lam_threshold`` is not
        positive; always before the first window's Gramian is computed.
    """
    if lam_threshold <= 0.0:
        raise ValueError("lam_threshold must be positive")
    if duration is None:
        duration = spec.duration
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"window must be finite and positive, got {delta}")
    if delta > duration + 1e-9:
        raise ValueError(f"window {delta:g} s is longer than the "
                         f"{duration:g} s duration")
    count = int(np.floor((duration - delta + 1e-9) / (0.5 * delta))) + 1
    starts = np.minimum(0.5 * delta * np.arange(count),
                        duration - delta).tolist()
    rows = []
    worst = None
    for t0 in starts:
        w = gramian(spec, probes, mag_ref, t0, delta, quad_step, sensors)
        eig = np.linalg.eigvalsh(w)
        mu_pi, mu_api = pe_margins(spec, probes, t0, delta, quad_step)
        row = WindowRow(t_start=t0, lam_min=float(eig[0]),
                        lam_max=float(eig[-1]), mu_pi=mu_pi, mu_api=mu_api,
                        verdict=bool(eig[0] >= lam_threshold))
        rows.append(row)
        if worst is None or row.lam_min < worst[0].lam_min:
            worst = (row, w)
    worst_row, worst_w = worst
    report = GramianReport(
        W=worst_w,
        lam_min=worst_row.lam_min,
        lam_max=worst_row.lam_max,
        delta=delta,
        mu_pi=min(r.mu_pi for r in rows),
        mu_api=min(r.mu_api for r in rows),
        verdict=all(r.verdict for r in rows),
    )
    return report, rows
