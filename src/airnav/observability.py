"""Numerical uniform-observability checks along the true trajectory.

The error-state transition matrix of the true system has closed-form blocks
(single and double time integrals of the inertial specific force), which are
evaluated here by composite Simpson quadrature on the closed-form truth.
Windowed observability Gramians and the two persistent-excitation margins
(horizontal Pitot projection, horizontal specific-force coupling) are
assembled from those blocks; positive margins certify uniform observability
for the trajectory, which the Gramian spectrum then witnesses directly.

Each window [t0, t0 + delta] is split at its midpoint into two halves,
each evaluated once by :func:`_half_window`.  The transition composes,
``Phi*(s, t0) = Phi*(s, t_mid) Phi*(t_mid, t0)``, so the window Gramian is
``(G_a + Phi_a^T G_b Phi_a) / delta`` and each PE Gram matrix is
``(a + b) / delta``.  :func:`_grid` gives the window a multiple of 4
intervals, so each half's Simpson pairs line up with the window's and the
junction weights 1 + 1 give its 2: in exact arithmetic this is the
whole-window quadrature.  Half-overlapping windows share a half, so a
sweep of N windows builds N + 1 halves.

:func:`observability_verdict` runs in three steps.  It plans the sweep's
unique half-windows as (start, which half) pairs, building no grid.  It
evaluates them with :func:`airnav._fork.map_chunks`: when the ``fork``
start method exists and the process may use two or more CPUs, the list is
split into contiguous parts, one per CPU, and a forked child evaluates
each part and sends back one array of :data:`_HALF` records while this
process waits; otherwise this process evaluates them all.  It then
composes the windows in order from the evaluated halves with the
operations :func:`gramian` and :func:`pe_margins` use, so the rows and
the report are the same bits whichever process evaluated a half.  On
Python 3.12 and later the fork emits a ``DeprecationWarning`` because
numpy's BLAS threads exist.  :func:`gramian` and :func:`pe_margins`
evaluate their one window in process.

The transition of a half, ``Phi_a``, comes from :func:`_transition`, the
one closed form that :func:`phi_blocks` returns too; the test suite checks
the 7x7 matrix of ``phi_blocks`` against an RK4 integration of the
transition-matrix ODE, so that check covers the matrix the sweep composes
with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fork, dynamics
from .dynamics import TrajectorySpec
from .geometry import skew
from .sensors import STACK_ORDER, MagReference, ProbeSet, SensorKind

DEFAULT_QUAD_STEP = 1e-3
DEFAULT_WINDOW = 4.0

# One evaluated half-window: its (G, Phi_h, gram_pi, gram_api), 106 floats.
_HALF = np.dtype([("gram", "f8", (7, 7)), ("phi", "f8", (7, 7)),
                  ("gram_pi", "f8", (2, 2)), ("gram_api", "f8", (2, 2))])


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
    """Uniform grid over [tau, t]; a multiple of 4 intervals (even halves)."""
    n = 4 * max(1, -(-int(np.ceil((t - tau) / quad_step)) // 4))
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
    # column-major, so the rule's slices run along the grid axis; same bits
    w = np.asfortranarray(dynamics.inertial_specific_force(spec, s))
    dx = (s[-1] - s[0]) / (s.shape[0] - 1)
    g1 = _cumulative_simpson(w, dx)
    g2 = _cumulative_simpson(g1, dx)
    return w, g1, g2


def _transition(s: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Transition ``Phi*(s[-1], s[0])`` from the running integrals on ``s``.

    ``g1`` and ``g2`` are the first and second running integrals of ``R a``
    from :func:`_integrated_force`.  The 6x6 block is lower-triangular with
    ``-(g1)^x`` in its lower-left corner; the altitude row
    ``e3^T [-(g2)^x | (s[-1] - s[0]) I | 1]`` couples the attitude and
    velocity errors into the altitude error through the double integral.
    """
    phi = np.eye(7)
    phi[3:6, 0:3] = -skew(g1[-1])
    phi[6, 0:2] = g2[-1, 1], -g2[-1, 0]
    phi[6, 5] = s[-1] - s[0]
    return phi


def phi_blocks(spec: TrajectorySpec, t: float, tau: float,
               quad_step: float = DEFAULT_QUAD_STEP) -> np.ndarray:
    """Closed-form 7x7 transition matrix ``Phi*(t, tau)``.

    :func:`_transition` on the grid and running integrals that a
    :func:`_half_window` over [tau, t] uses.
    """
    if tau > t:
        raise ValueError("tau must not exceed t")
    s = _grid(tau, t, quad_step)
    _, g1, g2 = _integrated_force(spec, s)
    return _transition(s, g1, g2)


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


def _half_window(spec: TrajectorySpec, probes: ProbeSet,
                 mag_ref: MagReference | None, s: np.ndarray, sensors,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simpson sums and transition of one half-window grid ``s``.

    Evaluates the truth and the running integrals ``g1``, ``g2`` of
    ``R a`` once and returns ``(G, Phi_h, gram_pi, gram_api)``, none of
    them divided by the window length:

    * ``G = sum w M^T M`` over the requested sensors' rows
      ``M = C*(s) Phi*(s, s[0])``, whose closed form, with ``va`` the
      inertial air velocity, is Pitot ``[B^T R^T (va - g1)^x | B^T R^T | 0]``,
      mag ``[-(m_I)^x | 0 | 0]`` and baro
      ``[g2_y, -g2_x, 0, 0, 0, s - s[0], 1]``;
    * ``Phi_h = Phi*(s[-1], s[0])``, built by :func:`_transition` as
      :func:`phi_blocks` builds it;
    * the PE Gram sums of the horizontal Pitot projection ``B^T R J`` and
      of the horizontal specific-force row ``e3^T (R a)^x J``.

    ``w`` are the composite-Simpson weights of ``s``.  The Pitot and baro
    rows are stored as (7, r, n), grid index last, so every elementwise
    operation runs along the contiguous grid axis; the constant mag rows
    are summed in closed form.
    """
    n = s.shape[0]
    weights = _simpson_weights(s)
    rot = dynamics.attitude_batch(spec, s)
    w, g1, g2 = _integrated_force(spec, s)
    m = probes.m if SensorKind.PITOT in sensors else 0
    rows = np.zeros((7, m + (SensorKind.BARO in sensors), n))
    if m:
        # the rows of B^T R^T are the columns of R B: (3, m, n)
        bt_rt = (rot.reshape(-1, 3) @ probes.B).reshape(n, 3, m).transpose(
            1, 2, 0)
        d = (dynamics.velocity(spec, s) - spec.wind - g1).T
        # v @ d^x == v x d for row vectors
        rows[0:3, 0:m] = np.cross(bt_rt, d[:, None, :], axis=0)
        rows[3:6, 0:m] = bt_rt
    if SensorKind.BARO in sensors:
        rows[0:2, m] = g2[:, 1], -g2[:, 0]
        rows[5, m] = s - s[0]
        rows[6, m] = 1.0
    gram = (rows * weights).reshape(7, -1) @ rows.reshape(7, -1).T
    if SensorKind.MAG in sensors:
        # the mag rows are constant, so they add (sum w) (m_I^x)^T m_I^x
        mx = skew(mag_ref.m_I)
        gram[0:3, 0:3] += weights.sum() * (mx.T @ mx)
    phi = _transition(s, g1, g2)
    # J^T R^T B, the transposed rows of B^T R J (J keeps two columns): (2, n m)
    pi = (rot[:, :, 0:2].transpose(2, 0, 1).reshape(-1, 3)
          @ probes.B).reshape(2, -1)
    gram_pi = (pi * np.repeat(weights, probes.m)) @ pi.T
    a_pi = np.stack((-w[:, 1], w[:, 0]), axis=-1)
    gram_api = a_pi.T @ (weights[:, None] * a_pi)
    return gram, phi, gram_pi, gram_api


def _check_window(delta: float, quad_step: float) -> None:
    """Raise ``ValueError`` unless ``delta`` is finite and positive and
    ``0 < quad_step <= delta / 100``."""
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"window must be finite and positive, got {delta}")
    if not 0.0 < quad_step <= delta / 100.0:
        raise ValueError("quad_step must be positive and at most delta / 100")


def _half(spec, probes, mag_ref, t, delta, quad_step, sensors, second):
    """:func:`_half_window` of the first or ``second`` half of the grid of
    [t, t + delta]."""
    s = _grid(t, t + delta, quad_step)
    mid = s.shape[0] // 2
    return _half_window(spec, probes, mag_ref,
                        s[mid:] if second else s[:mid + 1], sensors)


def _compose(first, second, delta):
    """(W, mu_pi, mu_api) of a window from its two evaluated halves."""
    (g_a, phi_a, pi_a, api_a), (g_b, _, pi_b, api_b) = first, second
    w = (g_a + phi_a.T @ g_b @ phi_a) / delta
    return (0.5 * (w + w.T),
            float(np.linalg.eigvalsh((pi_a + pi_b) / delta)[0]),
            float(np.linalg.eigvalsh((api_a + api_b) / delta)[0]))


def _window(spec, probes, mag_ref, t, delta, quad_step, sensors):
    """(W, mu_pi, mu_api) of [t, t + delta], evaluated in this process."""
    _check_window(delta, quad_step)
    return _compose(*(_half(spec, probes, mag_ref, t, delta, quad_step,
                            sensors, second) for second in (False, True)),
                    delta)


def gramian(spec: TrajectorySpec, probes: ProbeSet, mag_ref: MagReference,
            t: float, delta: float, quad_step: float = DEFAULT_QUAD_STEP,
            sensors=STACK_ORDER) -> np.ndarray:
    """Windowed observability Gramian over [t, t + delta].

    The Simpson integral of ``(C* Phi*)^T (C* Phi*) / delta`` on the
    closed-form truth, composed from the two half-windows as
    ``(G_a + Phi_a^T G_b Phi_a) / delta`` (see the module docstring); the
    result is symmetrized, hence PSD up to quadrature error.  Raises
    ``ValueError`` unless ``delta`` is finite and positive and
    ``0 < quad_step <= delta / 100``.
    """
    return _window(spec, probes, mag_ref, t, delta, quad_step, sensors)[0]


def pe_margins(spec: TrajectorySpec, probes: ProbeSet, t: float, delta: float,
               quad_step: float = DEFAULT_QUAD_STEP) -> tuple[float, float]:
    """Persistent-excitation margins over [t, t + delta].

    Returns
    -------
    (mu_pi, mu_api):
        Smallest eigenvalues of the windowed Gram matrices of the horizontal
        Pitot projection ``B^T R J`` and of the horizontal specific-force
        row ``e3^T (R a)^x J``, composed like :func:`gramian`'s.
    """
    return _window(spec, probes, None, t, delta, quad_step, ())[1:]


def _plan(delta: float, duration: float,
          ) -> tuple[list[tuple[float, bool]], list[tuple[int, int]]]:
    """The sweep's unique half-windows and each window's pair of them.

    Returns ``(halves, pairs)``: ``halves[k] = (t0, second)`` names the
    first or second half of the window that starts at ``t0``, and window
    ``i`` is composed from halves ``pairs[i]``.  An aligned window's first
    half is the previous window's second, so N aligned windows list N + 1
    halves; a clamped window off that grid lists its own two.  No grid is
    built.
    """
    count = int(np.floor((duration - delta + 1e-9) / (0.5 * delta))) + 1
    halves, pairs = [], []
    for edge in (0.5 * delta * np.arange(count)).tolist():
        t0 = min(edge, duration - delta)
        if t0 != edge or not halves:
            halves.append((t0, False))
        pairs.append((len(halves) - 1, len(halves)))
        halves.append((t0, True))
    return halves, pairs


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
    fits in ``[0, duration]``, the last one clamped to ``duration - delta``.
    The sweep plans its unique half-windows (:func:`_plan`), evaluates them
    (in a forked child per CPU when two or more are free) and composes
    each window from its two halves, as the module docstring describes;
    the result is the same bits either way.  An exception in evaluating a
    half reaches the caller once every child is reaped.  The overall
    verdict is true iff the smallest Gramian eigenvalue over all windows
    stays at or above ``lam_threshold``; the returned report carries the
    worst window's Gramian and the smallest PE margins for diagnosis.

    Raises
    ------
    ValueError
        When ``delta`` is not finite and positive, exceeds ``duration`` or
        is shorter than ``100 quad_step``, or when ``lam_threshold`` is not
        finite and positive; always before the first window is computed.
    """
    if not (np.isfinite(lam_threshold) and lam_threshold > 0.0):
        raise ValueError("lam_threshold must be finite and positive")
    if duration is None:
        duration = spec.duration
    _check_window(delta, quad_step)
    if delta > duration + 1e-9:
        raise ValueError(f"window {delta:g} s is longer than the "
                         f"{duration:g} s duration")
    halves, pairs = _plan(delta, duration)
    table = np.concatenate(_fork.map_chunks(
        lambda chunk: np.array([_half(spec, probes, mag_ref, t0, delta,
                                      quad_step, sensors, second)
                                for t0, second in chunk], _HALF),
        halves, "observability worker"))
    rows = []
    worst = None
    for i, j in pairs:
        w, mu_pi, mu_api = _compose(table[i], table[j], delta)
        eig = np.linalg.eigvalsh(w)
        row = WindowRow(t_start=halves[j][0], lam_min=float(eig[0]),
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
