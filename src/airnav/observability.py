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

:func:`observability_verdict` evaluates every window of its sweep in this
process, in blocks of at most 1020 nodes (85 panels) so that its
temporaries stay small.  Each panel's weighted sums are added into its
window in panel order, so a window gets the same bits however the panels
fall into blocks, and :func:`gramian`, :func:`pe_margins` and the sweep
share that one code path.
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


def _check_finite(**values) -> None:
    """Raise ``ValueError`` naming the first argument that is not finite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_window(delta: float) -> None:
    """Raise ``ValueError`` unless ``delta`` is finite and at least
    :data:`_MIN_WINDOW`."""
    if not (np.isfinite(delta) and delta >= _MIN_WINDOW):
        raise ValueError(f"window must be finite and at least "
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


def _gram(rows: np.ndarray) -> np.ndarray:
    """``sum_k rows[:, k]^T rows[:, k]`` per panel: (p, n, r, c) to (p, c, c)."""
    flat = rows.reshape(rows.shape[0], -1, rows.shape[-1])
    return flat.transpose(0, 2, 1) @ flat


def _panel_sums(spec: TrajectorySpec, probes: ProbeSet, t0: np.ndarray,
                u: np.ndarray, root_weights: np.ndarray, sensors,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted sums of the Gramian and PE integrands over panels.

    ``t0`` (p, 1) holds each panel's window start, ``u`` (p, n) the times of
    its nodes since then and ``root_weights`` (n,) the square roots of their
    weights.  Returns the (p, 7, 7), (p, 2, 2) and (p, 2, 2) weighted sums
    of ``M^T M`` over each panel's nodes, formed as ``(sqrt(w) M)^T
    (sqrt(w) M)``, for three kinds of rows ``M``:

    * the requested sensors' rows of ``C*(s) Phi*(s, t0)``, whose closed
      form, with ``va`` the inertial air velocity, is Pitot
      ``[B^T R^T (va - g1)^x | B^T R^T | 0]`` and baro
      ``[g2_y, -g2_x, 0, 0, 0, s - t0, 1]``; the constant mag rows are
      added by the caller;
    * the horizontal Pitot projection ``B^T R J``;
    * the horizontal specific-force row ``e3^T (R a)^x J``.
    """
    s = t0 + u
    rot = dynamics.attitude_batch(spec, s)
    pi = probes.B.T @ rot[..., 0:2]
    bt_rt = np.swapaxes(rot @ probes.B, -1, -2)
    del rot  # the largest temporary: gone before the rows are built
    g1, g2 = _running_integrals(spec, t0, s)
    m = probes.m if SensorKind.PITOT in sensors else 0
    rows = np.zeros(s.shape + (m + (SensorKind.BARO in sensors), 7))
    if m:
        d = dynamics.velocity(spec, s) - spec.wind - g1
        # v @ d^x == v x d for row vectors
        rows[..., :m, 0:3] = np.cross(bt_rt, d[..., None, :])
        rows[..., :m, 3:6] = bt_rt
    if SensorKind.BARO in sensors:
        rows[..., m, 0] = g2[..., 1]
        rows[..., m, 1] = -g2[..., 0]
        rows[..., m, 5] = u
        rows[..., m, 6] = 1.0
    w = dynamics.inertial_specific_force(spec, s)
    a_pi = np.stack((-w[..., 1], w[..., 0]), axis=-1)[..., None, :]
    for block in (rows, pi, a_pi):
        block *= root_weights[:, None, None]
    return _gram(rows), _gram(pi), _gram(a_pi)


def _windows(spec: TrajectorySpec, probes: ProbeSet,
             mag_ref: MagReference | None, starts, delta: float, sensors,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(W, mu_pi, mu_api)`` of the windows [t0, t0 + delta], t0 in ``starts``.

    ``W`` (k, 7, 7) holds the symmetrized Gramians ``int (C* Phi*)^T (C*
    Phi*) / delta``, and ``mu_pi``, ``mu_api`` (k,) the smallest eigenvalues
    of the PE Gram matrices.  The windows' panels are evaluated
    :data:`_BLOCK_PANELS` at a time.
    """
    nodes, weights = _gauss_legendre()
    panels = _panels(spec, delta)
    h = delta / panels
    t0 = np.asarray(starts, dtype=float)
    sums = [np.zeros((t0.size, c, c)) for c in (7, 2, 2)]
    total = t0.size * panels
    for first in range(0, total, _BLOCK_PANELS):
        k = np.arange(first, min(first + _BLOCK_PANELS, total))
        window = k // panels
        parts = _panel_sums(spec, probes, t0[window, None],
                            h * ((k % panels)[:, None] + nodes),
                            np.sqrt(h * weights), sensors)
        for acc, part in zip(sums, parts):
            # adds panel by panel, in order: the same bits for any blocks
            np.add.at(acc, window, part)
    w, gram_pi, gram_api = (acc / delta for acc in sums)
    if SensorKind.MAG in sensors:
        # the mag rows [-(m_I)^x | 0 | 0] are constant: their mean is exact
        mx = skew(mag_ref.m_I)
        w[:, 0:3, 0:3] += mx.T @ mx
    return (0.5 * (w + w.transpose(0, 2, 1)),
            np.linalg.eigvalsh(gram_pi)[:, 0],
            np.linalg.eigvalsh(gram_api)[:, 0])


def gramian(spec: TrajectorySpec, probes: ProbeSet, mag_ref: MagReference,
            t: float, delta: float, sensors=STACK_ORDER) -> np.ndarray:
    """Windowed observability Gramian over [t, t + delta].

    The Gauss-Legendre integral of ``(C* Phi*)^T (C* Phi*) / delta`` on the
    closed-form truth (see the module docstring), symmetrized, hence PSD up
    to rounding.  Raises ``ValueError`` when ``t`` is not finite or
    ``delta`` is not finite or shorter than 0.1 s.
    """
    _check_finite(t=t)
    _check_window(delta)
    return _windows(spec, probes, mag_ref, [t], delta, sensors)[0][0]


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
    _check_finite(t=t)
    _check_window(delta)
    _, mu_pi, mu_api = _windows(spec, probes, None, [t], delta, ())
    return float(mu_pi[0]), float(mu_api[0])


def _window_starts(delta: float, duration: float) -> list[float]:
    """``k delta/2`` for ``k = 0, 1, ...`` while the window fits in
    ``[0, duration]``, the last one clamped to ``duration - delta``."""
    count = int(np.floor((duration - delta + 1e-9) / (0.5 * delta))) + 1
    return [min(edge, duration - delta)
            for edge in (0.5 * delta * np.arange(count)).tolist()]


def observability_verdict(spec: TrajectorySpec, probes: ProbeSet,
                          mag_ref: MagReference,
                          delta: float = DEFAULT_WINDOW,
                          lam_threshold: float = 1e-6,
                          duration: float | None = None,
                          sensors=STACK_ORDER,
                          ) -> tuple[GramianReport, list[WindowRow]]:
    """Sweep half-overlapping windows and aggregate a uniform-observability verdict.

    Window starts are ``k delta/2`` for ``k = 0, 1, ...`` while the window
    fits in ``[0, duration]``, the last one clamped to ``duration - delta``.
    Every window is evaluated in this process, as the module docstring
    describes.  The overall verdict is true iff the smallest Gramian
    eigenvalue over all windows stays at or above ``lam_threshold``; the
    returned report carries the worst window's Gramian and the smallest PE
    margins for diagnosis.

    Raises
    ------
    ValueError
        When ``duration`` is not finite, ``delta`` is not finite, is
        shorter than 0.1 s or exceeds ``duration``, or when
        ``lam_threshold`` is not finite and positive; always before the
        first window is computed.
    """
    if not (np.isfinite(lam_threshold) and lam_threshold > 0.0):
        raise ValueError("lam_threshold must be finite and positive")
    if duration is None:
        duration = spec.duration
    _check_finite(duration=duration)
    _check_window(delta)
    if delta > duration + 1e-9:
        raise ValueError(f"window {delta:g} s is longer than the "
                         f"{duration:g} s duration")
    starts = _window_starts(delta, duration)
    w, mu_pi, mu_api = _windows(spec, probes, mag_ref, starts, delta, sensors)
    eig = np.linalg.eigvalsh(w)
    rows = [WindowRow(t_start=t0, lam_min=lo, lam_max=hi, mu_pi=pi,
                      mu_api=api, verdict=lo >= lam_threshold)
            for t0, lo, hi, pi, api in zip(
                starts, eig[:, 0].tolist(), eig[:, -1].tolist(),
                mu_pi.tolist(), mu_api.tolist())]
    i = int(np.argmin(eig[:, 0]))
    worst = rows[i]
    report = GramianReport(
        W=w[i].copy(),
        lam_min=worst.lam_min,
        lam_max=worst.lam_max,
        delta=delta,
        mu_pi=min(r.mu_pi for r in rows),
        mu_api=min(r.mu_api for r in rows),
        verdict=all(r.verdict for r in rows),
    )
    return report, rows
