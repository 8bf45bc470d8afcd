"""Numerical uniform-observability checks along the true trajectory.

The error-state transition matrix ``Phi*(s, t0)`` of the true system has
closed-form blocks: the running integrals ``g1 = int R a`` and
``g2 = int g1`` from ``t0``.  For this trajectory family ``R a = dv/dt -
g e3`` holds exactly (:func:`airnav.dynamics.inertial_specific_force`), so

    g1(s) = v(s) - v(t0) - g (s - t0) e3,
    g2(s) = p(s) - p(t0) - v(t0) (s - t0) - g (s - t0)^2 e3 / 2,

with ``p`` the displacement of :func:`airnav.dynamics.displacement`.  Both
carry no quadrature error, and neither does :func:`phi_blocks`.

Windowed observability Gramians and the two persistent-excitation margins
(horizontal Pitot projection, horizontal specific-force coupling)
integrate products of these closed forms over a window; positive margins
certify uniform observability for the trajectory, which the Gramian
spectrum then witnesses directly.  Each window [t0, t0 + delta] is a
composite Gauss-Legendre rule: equal panels no longer than
``min(1 s, 10 / omega)`` with ``omega = 2 max|vel_freq| + 2 (|yaw_amp| +
|yaw_freq|)``, 12 nodes each (nodes and weights by Golub & Welsch, Math.
Comp. 1969).  Why that suffices: every integrand is a polynomial of degree
at most 4 in ``s - t0`` times products of at most two factors from the
velocity, which oscillates at ``vel_freq``, and the attitude, whose cosine
and sine of ``psi = (yaw_amp / yaw_freq)(1 - cos(yaw_freq s))`` are a phase
modulation with its spectrum inside ``yaw_amp + yaw_freq`` up to Bessel
tails that fall off faster than any power.  So ``omega`` bounds every
integrand's band.  Twelve nodes integrate degree 23 exactly, and their
error on ``exp(i omega s)`` over a panel of length ``h`` is
``h (omega h)^24 (12!)^4 / (25 (24!)^3)``, about 1e-14 h at ``omega h =
10``: the rule sits at rounding level.

The rows need neither ``v(s)`` nor a rotation matrix at the nodes.  A
Pitot row takes ``va - g1``, with ``va = v - wind`` the inertial air
velocity, and that is ``v(t0) - wind + g (s - t0) e3`` exactly.  The
family's attitude is ``Rz(psi)`` (:mod:`airnav.dynamics`), so ``R b_j``,
its cross products and ``B^T R J`` are formed from ``cos psi`` and ``sin
psi`` of :func:`airnav.dynamics.yaw_angle`; the baro and specific-force rows
take one sine per horizontal axis (:func:`airnav.dynamics.horizontal_motion`).
The window-start terms ``v(t0)`` and ``p(t0)`` are evaluated once per
window, for up to 512 windows at a time.

:func:`observability_verdict` evaluates every window of its sweep in this
process, in blocks of at most 1020 nodes (85 panels): as many whole windows
as fit, or 85 panels of a longer one, so that its temporaries stay small.
Each panel's weighted sums are added into its window in panel order, so a
window gets the same bits however the panels fall into blocks, and
:func:`gramian`, :func:`pe_margins` and the sweep share that one code path.
A block's windows are reduced to their rows as soon as the block is done,
and only the worst window's Gramian is kept for the report: beyond the rows
it returns, the sweep's memory does not grow with the window count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import TrajectorySpec
from .geometry import skew
from .sensors import STACK_ORDER, MagReference, ProbeSet, SensorKind

DEFAULT_WINDOW = 4.0
# A window is uniformly observable when its smallest Gramian eigenvalue is
# at least this.
_LAM_THRESHOLD = 1e-6
# Shortest window accepted, in seconds; it also bounds a sweep's window count.
_MIN_WINDOW = 0.1
# Gauss-Legendre nodes per panel, and panels evaluated per pass of a sweep
# (85 panels, 1020 nodes).
_PANEL_NODES = 12
_BLOCK_PANELS = 1024 // _PANEL_NODES


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the :data:`_PANEL_NODES`-point Gauss-Legendre
    rule on [0, 1], computed on first use.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence and each weight is the squared first component of its unit
    eigenvector (Golub & Welsch 1969).  Importing the module makes no
    LAPACK call: one at import time raised the peak RSS of a process that
    then runs the 149-window sweep by about 0.45 MB (2-core x86-64 host).
    """
    k = np.arange(1.0, _PANEL_NODES)
    x, vec = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    rule = 0.5 * (1.0 + x), vec[0] ** 2
    for a in rule:  # every caller shares the cached arrays
        a.flags.writeable = False
    return rule


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


class _InputError(ValueError):
    """An argument refused by this module's input checks, which run before
    anything is computed; the CLI reports these, and only these, as a
    window error."""


def _check_finite(**values) -> None:
    """Raise ``ValueError`` naming the first argument that is not finite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise _InputError(f"{name} must be finite, got {value}")


def _check_window(delta: float) -> None:
    """Raise ``ValueError`` unless ``delta`` is finite and at least
    :data:`_MIN_WINDOW`."""
    if not (np.isfinite(delta) and delta >= _MIN_WINDOW):
        raise _InputError(f"window must be finite and at least "
                          f"{_MIN_WINDOW:g} s, got {delta}")


def _running_integrals(spec: TrajectorySpec, t0, s,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """``g1(s) = int_t0^s R a`` and ``g2(s) = int_t0^s g1``, exactly.

    ``t0`` and ``s`` broadcast against each other; each result has a last
    axis of 3.
    """
    u = np.asarray(s - t0, dtype=float)[..., None]
    v0 = dynamics.velocity(spec, t0)
    g1 = dynamics.velocity(spec, s) - v0
    g2 = (dynamics.displacement(spec, s) - dynamics.displacement(spec, t0)
          - v0 * u)
    g1[..., 2:] -= spec.gravity * u
    g2[..., 2:] -= 0.5 * spec.gravity * u * u
    return g1, g2


def phi_blocks(spec: TrajectorySpec, t: float, tau: float) -> np.ndarray:
    """Closed-form 7x7 transition matrix ``Phi*(t, tau)``, exact.

    The 6x6 block is lower-triangular with ``-(g1)^x`` in its lower-left
    corner; the altitude row ``e3^T [-(g2)^x | (t - tau) I | 1]`` couples
    the attitude and velocity errors into the altitude error through the
    double integral.  Raises ``ValueError`` when ``t`` or ``tau`` is not
    finite or ``tau > t``.
    """
    _check_finite(t=t, tau=tau)
    if tau > t:
        raise ValueError("tau must not exceed t")
    g1, g2 = _running_integrals(spec, tau, t)
    phi = np.eye(7)
    phi[3:6, 0:3] = -skew(g1)
    phi[6, 0:2] = g2[1], -g2[0]
    phi[6, 5] = t - tau
    return phi


def _panels(spec: TrajectorySpec, delta: float) -> int:
    """Panel count of a window: equal panels of at most ``min(1, 10/omega)``
    seconds (see the module docstring)."""
    omega = 2.0 * (float(np.abs(spec.vel_freq).max()) + abs(spec.yaw_amp)
                   + abs(spec.yaw_freq))
    return max(1, math.ceil(delta * max(1.0, omega / 10.0)))


# Columns of a panel's flattened sums: the 7x7 Gramian integrand, then the
# two 2x2 PE integrands.
_SUMS = 49 + 4 + 4
# Windows whose start terms are evaluated together; they take 48 bytes each.
_START_CHUNK = 512


def _gram(cols: np.ndarray) -> np.ndarray:
    """``X X^T`` per panel, flattened: ``cols`` (w, q, c, ...) holds the
    (c, k) matrix ``X`` of each of q panels of w windows; returns
    (w, q, c * c)."""
    x = cols.reshape(cols.shape[:3] + (-1,))
    # a transposed view as an operand makes matmul several times slower
    return (x @ np.ascontiguousarray(x.swapaxes(-1, -2))).reshape(
        cols.shape[:2] + (-1,))


def _panel_sums(spec: TrajectorySpec, probes: ProbeSet, t0: np.ndarray,
                u: np.ndarray, v0: np.ndarray, p0: np.ndarray,
                root_weights: np.ndarray, sensors) -> np.ndarray:
    """Weighted sums of the Gramian and PE integrands over panels.

    ``t0`` (w, 1, 1) holds the starts of w windows, ``v0`` (3, w, 1, 1) the
    velocity there and ``p0`` (2, w, 1, 1) the horizontal displacement, one
    axis after the other; ``u`` (q, n) holds the times of the nodes of q
    panels since their window's start, the same in every window, and
    ``root_weights`` (n,) the square roots of the nodes' weights.  Returns
    (w, q, 57): each panel's weighted sums of ``M^T M`` over its nodes,
    formed as ``(sqrt(w) M)^T (sqrt(w) M)`` and flattened one after the
    other, for three kinds of rows ``M``:

    * the requested sensors' rows of ``C*(s) Phi*(s, t0)``.  With ``r_j =
      R b_j`` and ``d = va - g1 = v(t0) - wind + g (s - t0) e3``, a Pitot
      row is ``[(r_j x d)^T | r_j^T | 0]`` and the baro row is ``[g2_y,
      -g2_x, 0, 0, 0, s - t0, 1]``; the constant mag rows are added by the
      caller;
    * the horizontal Pitot projection ``B^T R J``;
    * the horizontal specific-force row ``e3^T (R a)^x J``.

    ``R = Rz(psi)``, so the Pitot rows and ``B^T R J`` are built from ``cos
    psi`` and ``sin psi`` alone.  Each kind is built a column at a time,
    as (w, q, columns, rows, n), with ``sqrt(w)`` folded into the factors.
    """
    s = t0 + u
    psi = dynamics.yaw_angle(spec, s)[:, :, None]
    c = np.cos(psi) * root_weights  # (w, q, 1, n): probes run along axis 2
    sn = np.sin(psi) * root_weights
    bx, by, bz = probes.B[:, :, None]
    cbx, cby, sbx, sby = c * bx, c * by, sn * bx, sn * by
    p, a = dynamics.horizontal_motion(spec, s)
    m = probes.m if SensorKind.PITOT in sensors else 0
    cols = np.zeros(s.shape[:2] + (7, m + (SensorKind.BARO in sensors),
                                   s.shape[2]))
    if m:
        rx, ry = cbx - sby, sbx + cby  # the horizontal part of R b_j
        d = v0 - spec.wind[:, None, None, None]
        dx, dy = d[0, ..., None], d[1, ..., None]  # (w, 1, 1, 1)
        dz = (d[2] + spec.gravity * u)[:, :, None]  # (w, q, 1, n)
        bz = bz * root_weights
        pitot = cols[:, :, :, :m]
        pitot[:, :, 0] = ry * dz - bz * dy
        pitot[:, :, 1] = bz * dx - rx * dz
        pitot[:, :, 2] = rx * dy - ry * dx
        pitot[:, :, 3] = rx
        pitot[:, :, 4] = ry
        pitot[:, :, 5] = bz
    if SensorKind.BARO in sensors:
        baro = cols[:, :, :, m]
        g2x, g2y = p - p0 - v0[:2] * u
        baro[:, :, 0] = g2y * root_weights
        baro[:, :, 1] = -g2x * root_weights
        baro[:, :, 5] = u * root_weights
        baro[:, :, 6] = root_weights
    pi = np.stack((cbx + sby, cby - sbx), axis=2)
    a_pi = np.stack((-a[1], a[0]), axis=2) * root_weights
    return np.concatenate((_gram(cols), _gram(pi), _gram(a_pi)), axis=-1)


def _block(spec: TrajectorySpec, probes: ProbeSet, mag: np.ndarray | None,
           t0: np.ndarray, v0: np.ndarray, p0: np.ndarray, delta: float,
           sensors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(W, mu_pi, mu_api)`` of the windows [t0, t0 + delta] of a block.

    ``t0`` (w,) holds the window starts, ``v0`` and ``p0`` the velocity and
    the horizontal displacement there as :func:`_panel_sums` takes them,
    and ``mag`` the mean of the mag rows' ``M^T M``, or ``None`` without
    them.  ``W`` (w, 7, 7) holds the symmetrized Gramians ``int (C* Phi*)^T
    (C* Phi*) / delta``, and ``mu_pi``, ``mu_api`` (w,) the smallest
    eigenvalues of the PE Gram matrices.  The panels of the windows are
    evaluated at most :data:`_BLOCK_PANELS` at a time, and each panel's
    sums are added into its window in panel order.
    """
    nodes, weights = _gauss_legendre()
    panels = _panels(spec, delta)
    h = delta / panels
    root_weights = np.sqrt(h * weights)
    acc = np.zeros((t0.size, _SUMS))
    for first in range(0, panels, _BLOCK_PANELS):
        q = min(_BLOCK_PANELS, panels - first)
        sums = _panel_sums(spec, probes, t0[:, None, None],
                           h * (np.arange(first, first + q)[:, None] + nodes),
                           v0, p0, root_weights, sensors)
        for j in range(q):  # panel by panel, in order
            acc += sums[:, j]
    acc /= delta
    w = acc[:, :49].reshape(-1, 7, 7)
    if mag is not None:
        w[:, 0:3, 0:3] += mag
    mu = np.linalg.eigvalsh(acc[:, 49:].reshape(-1, 2, 2, 2))[..., 0]
    return 0.5 * (w + w.transpose(0, 2, 1)), mu[:, 0], mu[:, 1]


def _windows(spec: TrajectorySpec, probes: ProbeSet,
             mag_ref: MagReference | None, t: float, delta: float,
             count: int, last: float, sensors):
    """Yield ``(t0, W, mu_pi, mu_api)`` of :func:`_block` for the windows
    [t0, t0 + delta] with ``t0 = min(t + k delta/2, last)``, ``k < count``.

    A block holds as many whole windows as fit in :data:`_BLOCK_PANELS`
    panels, or one window.  The velocity and displacement at the window
    starts are evaluated once per window, for the whole blocks that fit in
    :data:`_START_CHUNK` windows at a time, so that no array grows with
    ``count``.
    """
    per_block = max(1, _BLOCK_PANELS // _panels(spec, delta))
    per_chunk = per_block * max(1, _START_CHUNK // per_block)
    mag = None
    if SensorKind.MAG in sensors:
        # the mag rows [-(m_I)^x | 0 | 0] are constant: their mean is exact
        mx = skew(mag_ref.m_I)
        mag = mx.T @ mx
    for chunk in range(0, count, per_chunk):
        starts = np.minimum(t + 0.5 * delta * np.arange(
            chunk, min(chunk + per_chunk, count)), last)
        v_starts = dynamics.velocity(spec, starts).T[:, :, None, None]
        p_starts = dynamics.horizontal_motion(spec, starts)[0][:, :, None,
                                                               None]
        for lo in range(0, starts.size, per_block):
            block = slice(lo, lo + per_block)
            yield (starts[block], *_block(spec, probes, mag, starts[block],
                                          v_starts[:, block],
                                          p_starts[:, block], delta,
                                          sensors))


def _one_window(spec: TrajectorySpec, probes: ProbeSet,
                mag_ref: MagReference | None, t: float, delta: float,
                sensors) -> tuple[np.ndarray, float, float]:
    """``(W, mu_pi, mu_api)`` of the window [t, t + delta] alone."""
    _check_finite(t=t)
    _check_window(delta)
    _, w, mu_pi, mu_api = next(_windows(spec, probes, mag_ref, t, delta, 1,
                                        t, sensors))
    return w[0], float(mu_pi[0]), float(mu_api[0])


def gramian(spec: TrajectorySpec, probes: ProbeSet, mag_ref: MagReference,
            t: float, delta: float, sensors=STACK_ORDER) -> np.ndarray:
    """Windowed observability Gramian over [t, t + delta].

    The Gauss-Legendre integral of ``(C* Phi*)^T (C* Phi*) / delta`` on the
    closed-form truth (see the module docstring), symmetrized, hence PSD up
    to rounding.  Raises ``ValueError`` when ``t`` is not finite or
    ``delta`` is not finite or shorter than 0.1 s.
    """
    return _one_window(spec, probes, mag_ref, t, delta, sensors)[0]


def pe_margins(spec: TrajectorySpec, probes: ProbeSet, t: float, delta: float,
               ) -> tuple[float, float]:
    """Persistent-excitation margins over [t, t + delta].

    Returns
    -------
    (mu_pi, mu_api):
        Smallest eigenvalues of the windowed Gram matrices of the horizontal
        Pitot projection ``B^T R J`` and of the horizontal specific-force
        row ``e3^T (R a)^x J``, integrated like :func:`gramian`'s; the same
        arguments are refused.
    """
    return _one_window(spec, probes, None, t, delta, ())[1:]


def observability_verdict(spec: TrajectorySpec, probes: ProbeSet,
                          mag_ref: MagReference,
                          delta: float = DEFAULT_WINDOW,
                          duration: float | None = None,
                          sensors=STACK_ORDER,
                          ) -> tuple[GramianReport, list[WindowRow]]:
    """Sweep half-overlapping windows and aggregate a uniform-observability verdict.

    Window starts are ``k delta/2`` for ``k = 0, 1, ...`` while the window
    fits in ``[0, duration]``, and the last one is clamped to ``duration -
    delta``: when ``duration - delta`` is not a multiple of ``delta/2``, one
    more window ends the sweep at ``duration``, so no tail goes unswept.
    Every window is evaluated in this process, as the module docstring
    describes, and reduced to its row as soon as its block is done.  The
    overall verdict is true iff the smallest Gramian eigenvalue over all
    windows stays at or above ``_LAM_THRESHOLD = 1e-6``; the returned
    report carries the worst window's Gramian and the smallest PE margins
    for diagnosis.  The threshold is fixed: each row carries its
    ``lam_min``, so a verdict at another threshold is one comprehension
    over the rows.

    Raises
    ------
    ValueError
        When ``duration`` is not finite, or ``delta`` is not finite, is
        shorter than 0.1 s or exceeds ``duration``; always before the first
        window is computed.
    """
    if duration is None:
        duration = spec.duration
    _check_finite(duration=duration)
    _check_window(delta)
    if delta > duration + 1e-9:
        raise _InputError(f"window {delta:g} s is longer than the "
                          f"{duration:g} s duration")
    count = int(np.ceil((duration - delta - 1e-9) / (0.5 * delta))) + 1
    rows, worst, worst_w = [], None, None
    for t0, w, mu_pi, mu_api in _windows(spec, probes, mag_ref, 0.0, delta,
                                         count, duration - delta, sensors):
        eig = np.linalg.eigvalsh(w)
        i = int(np.argmin(eig[:, 0]))
        # the first smallest wins, as np.argmin over every window picks it
        if worst is None or not eig[i, 0] >= rows[worst].lam_min:
            worst, worst_w = len(rows) + i, w[i].copy()
        rows += [WindowRow(t_start=t_start, lam_min=lo, lam_max=hi,
                           mu_pi=pi, mu_api=api, verdict=lo >= _LAM_THRESHOLD)
                 for t_start, lo, hi, pi, api in zip(
                     t0.tolist(), eig[:, 0].tolist(), eig[:, -1].tolist(),
                     mu_pi.tolist(), mu_api.tolist())]
        del w, eig  # freed before the next block is evaluated
    report = GramianReport(
        W=worst_w,
        lam_min=rows[worst].lam_min,
        lam_max=rows[worst].lam_max,
        delta=delta,
        mu_pi=min(r.mu_pi for r in rows),
        mu_api=min(r.mu_api for r in rows),
        verdict=all(r.verdict for r in rows),
    )
    return report, rows
