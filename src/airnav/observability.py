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
spectrum then witnesses directly.  A window [t0, t0 + delta] is made of
two half-windows of ``delta/2`` (below), and each half [t0, t0 + delta/2]
is a composite Gauss-Legendre rule: equal panels no longer than ``min(1 s,
10 / omega)`` with ``omega = 2 max|vel_freq| + 2 (|yaw_amp| +
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
The start terms ``v(t0)`` and ``p(t0)`` are evaluated once per half, for up
to 512 halves at a time.

Windows are composed from their halves.  With ``H_k`` the sums of half k
over [t_k, t_k + delta/2], its rows referenced to ``t_k``, and ``Phi_k =
Phi*(t_k + delta/2, t_k)``, the window starting at ``t_k`` is

    W_k delta = H_k + Phi_k^T H_{k+1} Phi_k,

because ``Phi*(s, t_k) = Phi*(s, t_k + delta/2) Phi_k``: the Gramian's
transition identity, exact for this closed form.  The PE integrands do not
depend on the window's start, so their two halves are added, and the
constant mag rows add their exact mean.

:func:`observability_verdict` sweeps windows that overlap by half, so its
windows share their halves and each node is evaluated once: the 149 4-s
windows over 300 s take 150 halves of 3 panels, 5,400 nodes, where whole
windows took 149 of 5 panels, 8,940 nodes.  Halves are evaluated in this
process in blocks of at most 1020 nodes (85 panels): as many whole halves
as fit, or 85 panels of a longer one, so that the temporaries stay small.
Each panel's sums are added into its half in panel order, so a half gets
the same bits however its panels fall into blocks; the last half of a
block is carried over to open the next block's first window.  A last
window clamped to the sweep's end is off the half grid and takes its own
two halves.  :func:`gramian`, :func:`pe_margins` and the sweep share that
one two-halves path, so a sweep row has the bits of the single window at
its start wherever ``t_k + delta/2`` rounds to the next half's start ``t +
(k + 1) delta/2``, as it does whenever ``delta/2`` is a short binary
fraction (4-, 7- or 40-s windows); otherwise the two differ by rounding.
A block's windows are reduced to their rows as soon as the block is done:
beyond the rows it returns, the sweep's memory does not grow with the
window count.
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


def _transitions(spec: TrajectorySpec, s: np.ndarray, v: np.ndarray,
                 d: np.ndarray) -> np.ndarray:
    """``Phi*(s[k+1], s[k])`` between consecutive times ``s`` (n + 1,),
    exact; shape (n, 7, 7).

    ``v`` and ``d`` (3, n + 1) hold the velocity and the displacement at
    ``s``, one axis after the other.  With ``u = s[k+1] - s[k]``, the running
    integrals of ``R a`` from ``s[k]`` are

        g1 = v(s[k+1]) - v(s[k]) - g u e3,
        g2 = d(s[k+1]) - d(s[k]) - v(s[k]) u - g u^2 e3 / 2,

    and only the horizontal part of ``g2`` enters ``Phi*``.
    """
    u = s[1:] - s[:-1]
    g1 = v[:, 1:] - v[:, :-1]
    g1[2] -= spec.gravity * u
    g2x, g2y = d[:2, 1:] - d[:2, :-1] - v[:2, :-1] * u
    phi = np.zeros((u.size, 7, 7))
    phi.reshape(-1, 49)[:, ::8] = 1.0  # the diagonal
    phi[:, 3, 1], phi[:, 4, 2], phi[:, 5, 0] = g1[2], g1[0], g1[1]
    phi[:, 3, 2], phi[:, 4, 0], phi[:, 5, 1] = -g1[1], -g1[2], -g1[0]
    phi[:, 6, 0], phi[:, 6, 1], phi[:, 6, 5] = g2y, -g2x, u
    return phi


def phi_blocks(spec: TrajectorySpec, t: float, tau: float) -> np.ndarray:
    """Closed-form 7x7 transition matrix ``Phi*(t, tau)``, exact.

    The 6x6 block is lower-triangular with ``-(g1)^x`` in its lower-left
    corner; the altitude row ``e3^T [-(g2)^x | (t - tau) I | 1]`` couples
    the attitude and velocity errors into the altitude error through the
    double integral.  The sweep composes its windows from the same
    transitions between half-window starts (see the module docstring).
    Raises ``ValueError`` when ``t`` or ``tau`` is not finite or ``tau >
    t``.
    """
    _check_finite(t=t, tau=tau)
    if tau > t:
        raise ValueError("tau must not exceed t")
    s = np.array([tau, t], dtype=float)
    return _transitions(spec, s, dynamics.velocity(spec, s).T,
                        dynamics.displacement(spec, s).T)[0]


def _panels(spec: TrajectorySpec, delta: float) -> int:
    """Panel count of ``delta`` seconds, in the sweep a half-window: equal
    panels of at most ``min(1, 10/omega)`` seconds (see the module
    docstring)."""
    omega = 2.0 * (float(np.abs(spec.vel_freq).max()) + abs(spec.yaw_amp)
                   + abs(spec.yaw_freq))
    return max(1, math.ceil(delta * max(1.0, omega / 10.0)))


# Columns of a panel's flattened sums: the 7x7 Gramian integrand, then the
# two 2x2 PE integrands.
_SUMS = 49 + 4 + 4
# Halves whose start terms are evaluated together; they take 56 bytes each.
_START_CHUNK = 512


def _gram(cols: np.ndarray) -> np.ndarray:
    """``X X^T`` per panel, flattened: ``cols`` (w, q, c, ...) holds the
    (c, k) matrix ``X`` of each of q panels of w halves; returns
    (w, q, c * c)."""
    x = cols.reshape(cols.shape[:3] + (-1,))
    # a transposed view as an operand makes matmul several times slower
    return (x @ np.ascontiguousarray(x.swapaxes(-1, -2))).reshape(
        cols.shape[:2] + (-1,))


def _panel_sums(spec: TrajectorySpec, probes: ProbeSet, t0: np.ndarray,
                u: np.ndarray, v0: np.ndarray, p0: np.ndarray,
                root_weights: np.ndarray, sensors) -> np.ndarray:
    """Weighted sums of the Gramian and PE integrands over panels.

    ``t0`` (w, 1, 1) holds the starts of w half-windows, ``v0`` (3, w, 1,
    1) the velocity there and ``p0`` (2, w, 1, 1) the horizontal
    displacement, one axis after the other; ``u`` (q, n) holds the times of
    the nodes of q panels since their half's start, the same in every half,
    and ``root_weights`` (n,) the square roots of the nodes' weights.  Returns
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


def _half_sums(spec: TrajectorySpec, probes: ProbeSet, starts: np.ndarray,
               v: np.ndarray, d: np.ndarray, half: float,
               sensors) -> np.ndarray:
    """Sums (n, 57) of :func:`_panel_sums` over the half-windows [starts,
    starts + half], each referenced to its own start.

    ``v`` and ``d`` (3, n) hold the velocity and the displacement at the
    starts.  A half takes :func:`_panels` ``(spec, half)`` panels; they are
    evaluated at most :data:`_BLOCK_PANELS` at a time and added into their
    half in panel order, so a half gets the same bits however its panels
    fall into evaluations.
    """
    nodes, weights = _gauss_legendre()
    panels = _panels(spec, half)
    h = half / panels
    root_weights = np.sqrt(h * weights)
    acc = np.zeros((starts.size, _SUMS))
    for first in range(0, panels, _BLOCK_PANELS):
        q = min(_BLOCK_PANELS, panels - first)
        sums = _panel_sums(spec, probes, starts[:, None, None],
                           h * (np.arange(first, first + q)[:, None] + nodes),
                           v[:, :, None, None], d[:2, :, None, None],
                           root_weights, sensors)
        for j in range(q):  # panel by panel, in order
            acc += sums[:, j]
    return acc


def _block(sums: np.ndarray, phi: np.ndarray, mag: np.ndarray | None,
           delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(W, mu_pi, mu_api)`` of the n windows made of consecutive halves.

    ``sums`` (n + 1, 57) holds the half sums of :func:`_half_sums`, ``phi``
    (n, 7, 7) the transitions ``Phi_k = Phi*(t_k + delta/2, t_k)`` across
    each window's middle, and ``mag`` the mean of the mag rows' ``M^T M``,
    or ``None`` without them.  With ``H_k`` the Gramian sum of half k,
    window k is

        W_k delta = H_k + Phi_k^T H_{k+1} Phi_k,

    the Gramian's transition identity ``Phi*(s, t_k) = Phi*(s, t_k +
    delta/2) Phi_k``, exact for this closed form.  The PE integrands do not
    depend on the window's start, so their two halves are added.  ``W`` (n,
    7, 7) holds the symmetrized Gramians ``int (C* Phi*)^T (C* Phi*) /
    delta``, and ``mu_pi``, ``mu_api`` (n,) the smallest eigenvalues of the
    PE Gram matrices.
    """
    gram = sums[:, :49].reshape(-1, 7, 7)
    phi_t = np.ascontiguousarray(phi.transpose(0, 2, 1))  # as in _gram
    w = gram[:-1] + phi_t @ gram[1:] @ phi
    w /= delta
    if mag is not None:
        w[:, 0:3, 0:3] += mag
    pe = (sums[:-1, 49:] + sums[1:, 49:]) / delta
    mu = np.linalg.eigvalsh(pe.reshape(-1, 2, 2, 2))[..., 0]
    return 0.5 * (w + w.transpose(0, 2, 1)), mu[:, 0], mu[:, 1]


def _grid_windows(spec: TrajectorySpec, probes: ProbeSet,
                  mag: np.ndarray | None, t: float, delta: float, count: int,
                  sensors):
    """Yield ``(t0, W, mu_pi, mu_api)`` of :func:`_block` for the windows
    [t0, t0 + delta] with ``t0 = t + k delta/2``, ``k < count``.

    The ``count + 1`` halves [t + j delta/2, t + (j + 1) delta/2] are
    evaluated once each, as many at a time as fit in :data:`_BLOCK_PANELS`
    panels, or one; the last half of an evaluation is carried over to open
    the next one's first window, so each node is evaluated once.  The
    velocity and displacement at the half starts are evaluated for
    :data:`_START_CHUNK` halves at a time, each chunk beyond the first also
    taking the carried half's.  So one block's temporaries, one chunk's
    start terms and one carried row of sums are all the memory this holds,
    whatever ``count`` is.
    """
    half = 0.5 * delta
    per_block = max(1, _BLOCK_PANELS // _panels(spec, half))
    per_chunk = per_block * max(1, _START_CHUNK // per_block)
    carried = None
    for chunk in range(0, count + 1, per_chunk):
        base = max(chunk - 1, 0)  # the carried half's start terms too
        starts = t + half * np.arange(base, min(chunk + per_chunk,
                                                count + 1))
        v = dynamics.velocity(spec, starts).T
        d = dynamics.displacement(spec, starts).T
        for lo in range(chunk - base, starts.size, per_block):
            hi = min(lo + per_block, starts.size)
            sums = _half_sums(spec, probes, starts[lo:hi], v[:, lo:hi],
                              d[:, lo:hi], half, sensors)
            if carried is not None:
                sums, lo = np.concatenate((carried, sums)), lo - 1
            carried = sums[-1:].copy()
            if hi - lo > 1:
                yield (starts[lo:hi - 1],
                       *_block(sums, _transitions(spec, starts[lo:hi],
                                                  v[:, lo:hi], d[:, lo:hi]),
                               mag, delta))
            del sums  # freed before the next halves are evaluated


def _windows(spec: TrajectorySpec, probes: ProbeSet,
             mag_ref: MagReference | None, t: float, delta: float,
             count: int, last: float, sensors):
    """Yield ``(t0, W, mu_pi, mu_api)`` of :func:`_block` for the windows
    [t0, t0 + delta] with ``t0 = min(t + k delta/2, last)``, ``k < count``.

    The windows on the half-window grid come from :func:`_grid_windows`; a
    window clamped to ``last`` is off that grid, and takes its own two
    halves the same way, so it gets the bits of a window at ``last`` alone.
    """
    mag = None
    if SensorKind.MAG in sensors:
        # the mag rows [-(m_I)^x | 0 | 0] are constant: their mean is exact
        mx = skew(mag_ref.m_I)
        mag = mx.T @ mx
    on_grid = count
    while on_grid and t + 0.5 * delta * (on_grid - 1) > last:
        on_grid -= 1
    if on_grid:
        yield from _grid_windows(spec, probes, mag, t, delta, on_grid,
                                 sensors)
    for _ in range(count - on_grid):
        yield from _grid_windows(spec, probes, mag, last, delta, 1, sensors)


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
                          mag_ref: MagReference, duration: float,
                          delta: float = DEFAULT_WINDOW) -> list[WindowRow]:
    """Sweep half-overlapping windows over [0, duration]; one
    :class:`WindowRow` per window, in start order.

    Window starts are ``k delta/2`` for ``k = 0, 1, ...`` while the window
    fits in ``[0, duration]``, and the last one is clamped to ``duration -
    delta``: when ``duration - delta`` is not a multiple of ``delta/2``, one
    more window ends the sweep at ``duration``, so no tail goes unswept.
    Every window is evaluated in this process, as the module docstring
    describes, and reduced to its row as soon as its block is done.  A
    row's verdict is true iff its smallest Gramian eigenvalue is at least
    ``_LAM_THRESHOLD = 1e-6``, and the trajectory is uniformly observable
    iff every row's is.  The threshold is fixed: each row carries its
    ``lam_min``, so a verdict at another threshold is one comprehension
    over the rows.  The worst window's Gramian is :func:`gramian` at that
    row's ``t_start``: the same bits wherever ``delta/2`` is a short binary
    fraction, equal up to rounding otherwise.

    Raises
    ------
    ValueError
        When ``duration`` is not finite, or ``delta`` is not finite, is
        shorter than 0.1 s or exceeds ``duration``; always before the first
        window is computed.
    """
    _check_finite(duration=duration)
    _check_window(delta)
    if delta > duration + 1e-9:
        raise _InputError(f"window {delta:g} s is longer than the "
                          f"{duration:g} s duration")
    count = int(np.ceil((duration - delta - 1e-9) / (0.5 * delta))) + 1
    rows = []
    for t0, w, mu_pi, mu_api in _windows(spec, probes, mag_ref, 0.0, delta,
                                         count, duration - delta,
                                         STACK_ORDER):
        eig = np.linalg.eigvalsh(w)
        rows += [WindowRow(t_start=t_start, lam_min=lo, lam_max=hi,
                           mu_pi=pi, mu_api=api, verdict=lo >= _LAM_THRESHOLD)
                 for t_start, lo, hi, pi, api in zip(
                     t0.tolist(), eig[:, 0].tolist(), eig[:, -1].tolist(),
                     mu_pi.tolist(), mu_api.tolist())]
        del w, eig  # freed before the next block is evaluated
    return rows
