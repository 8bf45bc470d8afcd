"""Experiment drivers: single runs, Monte Carlo batches, CSV persistence.

Metrics follow the reporting conventions of the simulation study: the
attitude error is ``trace(I - R Rhat^T)`` and the velocity error is logged
both as the body-frame norm ``|Va - Vahat|`` and as the inertial-frame
mismatch ``|R Va - Rhat Vahat|`` (the two differ once attitudes disagree).
Everything is logged at the IMU rate.  All outputs are byte-deterministic
functions of (config, base_seed).

One run (:func:`run_single`) has three phases: truth on the whole tick
grid and every sensor's measurements for the whole run, drawn in one call
per sensor; the tick loop, which hands the measurements to
:meth:`~airnav.observer.AirDataObserver.advance` a block of ticks at a time,
as Python floats, and has it record the float estimate; and the
vectorized metrics, whose Euler-angle columns come from
:func:`~airnav.geometry.rot_to_euler_zyx` on the whole series (NaN on rows
at gimbal lock).  A numerical failure inside the loop ends that run only:
its series is truncated and flagged with the failure's class, and
:func:`run_montecarlo` carries on with the other runs.

:func:`run_montecarlo` splits the runs into contiguous chunks, one per CPU
the process may use, and runs each chunk in a forked worker process
(:func:`airnav._fork.map_chunks`).  Each run writes its trace and reduces
its series to a :class:`RunRecord` of a few hundred bytes: the run's status
(ok, diverged or unconverged by :data:`CONVERGED_ERR_ATT` and
:data:`CONVERGED_ERR_V_BODY`), the final-window means and the values at
:data:`SUMMARY_SAMPLE_TIMES`.  Only records travel back to the parent, so
a batch holds no series and the parent's memory does not grow with the
number of runs; :func:`summarize` folds the records.  Every run draws from
its own ``(base_seed, run_index)`` substreams and the records are
collected in run-index order, so every output is byte-identical to running
the runs one after another, which is what happens in-process for a single
run, on a single CPU or where the ``fork`` start method does not exist.
A run's exception other than a numerical failure stops its chunk, the
other chunks run to their end, and the exception of the lowest failing
run index reaches the caller once every worker is reaped.  On Python 3.12
and later, the fork emits a ``DeprecationWarning`` because numpy's BLAS
threads exist in the parent process.

Given a path, :func:`run_single` writes the run's trace itself, deriving
the trace columns a block of :data:`EIG_BLOCK_ROWS` rows at a time and
formatting them.  When the process may use two or more CPUs and is not
itself a forked worker, a child forked just before the tick
loop does that work for each block while the loop ticks the next;
otherwise the same writer runs in process after the loop and derives
every row in one call.  A row's derived values do not depend on how the
rows are split into calls, and both format the same blocks with the same
code, so the trace is byte-identical either way.  On Python 3.12 and later
this fork, too, emits a ``DeprecationWarning``.  That writer is the only
one: a trace is written by the run that makes it, and
:func:`read_trace_csv` reads it back.

Every trace value is written as :data:`FLOAT_FORMAT` prints it, byte for
byte, but a numpy kernel makes the text, 256 rows per call, in about a
quarter of the time of ``%``.  For ``10**-6 <= |x| < 10**16`` it scales
``|x|`` by an exact power of ten into ``[10**16, 10**17)`` with Dekker's
exact product (Numer. Math. 1971), which needs IEEE doubles and no fused
multiply-add, and rounds the exact result to 17 digits, half to even.  It
lays each value out in a fixed slot of bytes whose unused columns are NUL,
and one ``bytes.translate`` deletes them.  Zeros take the same path; NaN,
infinities and values outside that range, 38 of the 252,021 values of
the first mc_reference trace at ``base_seed`` 0, are formatted by ``%``
one at a time.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _fork, dynamics, geometry
from .config import SimConfig
from .observer import (
    PACKED_INDEX,
    RECORD_WIDTH,
    AirDataObserver,
    ObserverState,
)
from .sensors import (
    INIT_STREAM_ID,
    STACK_ORDER,
    STREAM_IDS,
    SensorKind,
    sample_baro,
    sample_imu,
    sample_mag,
    sample_pitot,
    substream,
    tick_times,
)

FLOAT_FORMAT = "%.17g"

TRACE_COLUMNS = (
    "t", "roll", "pitch", "yaw", "roll_hat", "pitch_hat", "yaw_hat",
    "Va1", "Va2", "Va3", "Va1_hat", "Va2_hat", "Va3_hat", "h", "h_hat",
    "err_v_body", "err_v_inertial", "err_att", "err_h",
    "lam_min_P", "lam_max_P",
)

# Rows per block: the tick loop converts measurements to floats and a
# forked trace writer derives the trace columns (covariance rows expanded
# to 7x7 per eigvalsh call), a block at a time.  The in-process writer
# derives every row in one call; a row's derived values do not depend on
# the split (the tests check partitions of 1, 7 and 1024 rows against one
# call), so the two writers fill the same bytes.
EIG_BLOCK_ROWS = 1024

# Rows per _format_rows call.  Its temporaries then stay small enough for
# malloc to reuse; 1024-row calls fault in fresh pages for them on every
# call and took about 1.8 times as long.
_FORMAT_ROWS = 256

_TRACE_HEADER = ",".join(TRACE_COLUMNS) + "\n"

_OBSERVABILITY_HEADER = ("t_window_start,lam_min_W,lam_max_W,mu_pi,mu_api,"
                         "verdict\n")
_OBSERVABILITY_ROW = ",".join([FLOAT_FORMAT] * 5) + ",%s\n"

METRIC_KEYS = ("err_att", "err_v_body", "err_v_inertial", "err_h")

# Across-run statistics are reported at these times (seconds).
SUMMARY_SAMPLE_TIMES = (5.0, 15.0, 30.0)
FINAL_WINDOW = 5.0

# A run that does not diverge has converged when its final-window means are
# at most these (the reference study's convergence test).
CONVERGED_ERR_ATT = 0.05
CONVERGED_ERR_V_BODY = 0.5

# RunRecord.status values.
OK, DIVERGED, UNCONVERGED = "ok", "diverged", "unconverged"


@dataclass(eq=False)
class RunMetrics:
    """Per-tick time series of one run (truncated at divergence)."""

    run_index: int
    t: np.ndarray
    euler: np.ndarray
    euler_hat: np.ndarray
    va: np.ndarray
    va_hat: np.ndarray
    h: np.ndarray
    h_hat: np.ndarray
    err_v_body: np.ndarray
    err_v_inertial: np.ndarray
    err_att: np.ndarray
    err_h: np.ndarray
    lam_min_p: np.ndarray
    lam_max_p: np.ndarray
    diverged: bool = False
    divergence_time: float | None = None
    # Class name of the observer.RUN_FAILURES exception that ended the run.
    divergence_cause: str | None = None

    def at_time(self, key: str, t: float) -> float:
        """Metric value at the tick closest to ``t``."""
        idx = int(np.argmin(np.abs(self.t - t)))
        return float(getattr(self, key)[idx])

    def window_mean(self, key: str, t_from: float) -> float:
        values = getattr(self, key)[self.t >= t_from]
        return float(np.mean(values)) if values.size else float("nan")


@dataclass(frozen=True)
class RunRecord:
    """What a Monte Carlo batch keeps of one run, as plain Python values.

    ``final_means`` and ``at_times`` map each of :data:`METRIC_KEYS` to
    :meth:`RunMetrics.window_mean` over the final :data:`FINAL_WINDOW`
    seconds (NaN when diverged) and to :meth:`RunMetrics.at_time` at each of
    :data:`SUMMARY_SAMPLE_TIMES` inside the duration (of the partial series
    when diverged; :func:`summarize` leaves those out).  ``status`` is
    :data:`OK`, :data:`DIVERGED` or :data:`UNCONVERGED`; ``cause`` says why
    a run is not ok and is empty when it is.
    """

    run_index: int
    status: str
    cause: str
    divergence_time: float | None
    final_means: dict[str, float]
    at_times: dict[str, tuple[float, ...]]

    @property
    def diverged(self) -> bool:
        return self.status == DIVERGED


def _sample_times(duration: float) -> tuple[float, ...]:
    return tuple(t for t in SUMMARY_SAMPLE_TIMES if t <= duration)


def _run_record(config: SimConfig, metrics: RunMetrics) -> RunRecord:
    """Reduce one run's series to its :class:`RunRecord`."""
    final_means = {
        key: (float("nan") if metrics.diverged else
              metrics.window_mean(key, config.duration - FINAL_WINDOW))
        for key in METRIC_KEYS}
    at_times = {key: tuple(metrics.at_time(key, t)
                           for t in _sample_times(config.duration))
                for key in METRIC_KEYS}
    if metrics.diverged:
        status = DIVERGED
        cause = (f"{metrics.divergence_cause} at "
                 f"t={metrics.divergence_time:g} s")
    else:
        # NaN fails both comparisons, so it counts as unconverged.
        missed = [f"{key}={final_means[key]:.3g} > {tol:g}"
                  for key, tol in (("err_att", CONVERGED_ERR_ATT),
                                   ("err_v_body", CONVERGED_ERR_V_BODY))
                  if not final_means[key] <= tol]
        status = UNCONVERGED if missed else OK
        cause = (f"final-{FINAL_WINDOW:g}s " + ", ".join(missed)
                 if missed else "")
    return RunRecord(run_index=metrics.run_index, status=status, cause=cause,
                     divergence_time=metrics.divergence_time,
                     final_means=final_means, at_times=at_times)


@dataclass(eq=False)
class MonteCarloSummary:
    """Aggregate statistics of a Monte Carlo batch."""

    runs: int
    divergence_count: int
    unconverged_count: int
    sample_times: tuple[float, ...]
    final_means: dict[str, np.ndarray]
    median_at_times: dict[str, np.ndarray]
    min_at_times: dict[str, np.ndarray]
    max_at_times: dict[str, np.ndarray]


def init_estimates(config: SimConfig, run_index: int) -> ObserverState:
    """Randomized initial estimate for one run.

    Air velocity and altitude are Gaussian around their nominal values; the
    attitude is the nominal Euler-angle rotation right-multiplied by the
    exponential of a Gaussian rotation vector.  Draw order is fixed, so a
    given (seed, run) pair always produces the same estimate.

    The state is not checked again: ``P0`` is SPD by config validation and
    ``Rhat`` is a product of two rotations.  A draw that overflows to
    non-finite values fails the run on tick 0, through the observer's own
    divergence check, as any numerical failure does.
    """
    rng = substream(config.base_seed, run_index, INIT_STREAM_ID)
    init = config.init
    vahat = init.va0 + init.std_v * rng.standard_normal(3)
    hhat = float(init.h0 + init.std_h * rng.standard_normal())
    roll, pitch, yaw = init.angles0
    r_mean = geometry.euler_zyx_to_rot(roll, pitch, yaw)
    rhat = r_mean @ geometry.exp_so3(init.std_angle * rng.standard_normal(3))
    return ObserverState(Rhat=rhat, Vahat=vahat, hhat=hhat,
                         P=config.weights.P0.copy())


@np.errstate(over="ignore", invalid="ignore")
def run_single(config: SimConfig, run_index: int = 0,
               initial_state: ObserverState | None = None,
               trace=None) -> RunMetrics:
    """Drive the observer over the full sensor schedule of one run.

    Truth is evaluated from the closed form on the whole tick grid up
    front.  Each sensor's measurements for the whole run are then drawn in
    one call, on the ticks where it samples (``k % decimation == 0``); the
    draws equal those of one call per tick on the same substream.  The loop
    converts those arrays to Python floats :data:`EIG_BLOCK_ROWS` ticks at
    a time (a sensor that samples every ``d`` ticks contributes the rows of
    its samples in the block, ``ceil(start / d)`` to ``ceil(stop / d)``)
    and hands each block to :meth:`AirDataObserver.advance`, which records
    the estimate, as floats with ``P`` packed, at every IMU tick before
    that tick's measurements are processed, so row 0 reflects the initial
    estimate; the derived metrics are computed vectorized.  If a tick fails
    numerically (:data:`~airnav.observer.RUN_FAILURES`), the series is
    truncated at the last valid tick and flagged with the failure's class
    name, and the caller's batch goes on.  numpy's overflow and invalid
    warnings are off for the whole run, a forked writer included: a value
    that overflows in the initial draw or the measurement synthesis fails
    the run on its first tick, and that flag is all that reports it.

    Given a path ``trace``, the run writes its trace there: a header of
    :data:`TRACE_COLUMNS` and one line per recorded tick, each value in
    :data:`FLOAT_FORMAT`.  The file is opened before the tick loop, so an
    unwritable path fails the run before it ticks.  When this process may
    use two or more CPUs and is not a Monte Carlo worker (see
    :func:`run_montecarlo`), a child forked before the loop derives and
    writes each block of rows while the loop ticks the next, and the call
    returns once the child is done; otherwise the same writer runs after
    the loop.  The bytes are the same either way, and an error of the
    writer reaches the caller either way.  A run cut short by a numerical
    failure keeps the rows it recorded; a run ended by any other
    exception, or by an error of the writer, leaves no file at ``trace``.
    """
    spec = config.trajectory
    rates = config.rates
    ts = tick_times(rates, config.duration)
    n = ts.shape[0]
    r_truth = dynamics.attitude_batch(spec, ts)
    v_truth = dynamics.velocity(spec, ts)
    h_truth = dynamics.altitude(spec, ts)
    va_truth = np.einsum("nji,nj->ni", r_truth, v_truth - spec.wind)
    a_body = np.einsum("nji,nj->ni",
                       r_truth, dynamics.inertial_specific_force(spec, ts))
    omega_truth = np.zeros((n, 3))
    omega_truth[:, 2] = dynamics.yaw_rate(spec, ts)

    # The last tick is recorded but not processed.
    steps = n - 1
    dec_p, dec_m, dec_b = (rates.decimation(kind) for kind in STACK_ORDER)

    def rng(kind):
        return substream(config.base_seed, run_index, STREAM_IDS[kind])

    noise = config.noise
    omega_meas, a_meas = sample_imu(omega_truth[:steps], a_body[:steps],
                                    noise, rng(SensorKind.IMU))
    pitot_meas = sample_pitot(va_truth[:steps:dec_p], config.probes, noise,
                              rng(SensorKind.PITOT))
    mag_meas = sample_mag(r_truth[:steps:dec_m], config.mag_ref, noise,
                          rng(SensorKind.MAG))
    baro_meas = sample_baro(h_truth[:steps:dec_b], noise, rng(SensorKind.BARO))

    state0 = (initial_state if initial_state is not None
              else init_estimates(config, run_index))
    observer = AirDataObserver(
        state0, config.weights, config.probes, config.mag_ref,
        dt=config.imu_period, gravity=config.gravity,
        q_convention=config.q_convention, integrator=config.integrator,
    )
    # One record per tick, in memory that a forked writer shares.
    hist = _fork.shared_buffer(8 * RECORD_WIDTH * n)
    writer = _TraceWriter(trace, (ts, r_truth, va_truth, h_truth),
                          np.frombuffer(hist).reshape(n, RECORD_WIDTH))
    divergence_time = divergence_cause = None
    recorded = n
    try:
        if trace is not None and _fork.spare_cpu():
            writer.fork()
        for start in range(0, n, EIG_BLOCK_ROWS):
            writer.ready(start)
            # The block's measurements as floats, None where none sampled.
            # The estimate after a block is recorded in the row after it,
            # so the last tick is recorded but not processed.
            stop = min(start + EIG_BLOCK_ROWS, steps)
            ticks, error = observer.advance(
                omega_meas[start:stop].tolist(), a_meas[start:stop].tolist(),
                _samples(pitot_meas, dec_p, start, stop),
                _samples(mag_meas, dec_m, start, stop),
                _samples(baro_meas, dec_b, start, stop), hist, start)
            if error is not None:
                divergence_time = float(ts[start + ticks])
                divergence_cause = type(error).__name__
                recorded = start + ticks + 1
                break
        writer.finish(recorded)
    except BaseException:
        writer.abandon()
        raise

    cols = writer.table[:recorded]
    return RunMetrics(
        run_index=run_index,
        t=cols[:, 0],
        euler=cols[:, 1:4],
        euler_hat=cols[:, 4:7],
        va=cols[:, 7:10],
        va_hat=cols[:, 10:13],
        h=cols[:, 13],
        h_hat=cols[:, 14],
        err_v_body=cols[:, 15],
        err_v_inertial=cols[:, 16],
        err_att=cols[:, 17],
        err_h=cols[:, 18],
        lam_min_p=cols[:, 19],
        lam_max_p=cols[:, 20],
        diverged=divergence_cause is not None,
        divergence_time=divergence_time,
        divergence_cause=divergence_cause,
    )


def _samples(meas: np.ndarray, dec: int, start: int, stop: int) -> list:
    """Ticks ``start`` to ``stop - 1`` of a sensor whose row ``k`` of
    ``meas`` was sampled on tick ``k * dec``: its rows as Python floats on
    those ticks, None on the others."""
    ticks = [None] * (stop - start)
    first = -(-start // dec)
    ticks[first * dec - start::dec] = meas[first:-(-stop // dec)].tolist()
    return ticks


def _derive_rows(table: np.ndarray, rows: np.ndarray, truth,
                 start: int, stop: int) -> None:
    """Fill ``table[start:stop]``, in :data:`TRACE_COLUMNS` order, from the
    recorded ``rows`` and the ``(t, R, Va, h)`` truth series."""
    ts, r_truth, va_truth, h_truth = truth
    sl = slice(start, stop)
    rec = rows[sl]
    r_t, r_h = r_truth[sl], rec[:, 0:9].reshape(-1, 3, 3)
    va_t, va_h = va_truth[sl], rec[:, 9:12].copy()
    h_t, h_h = h_truth[sl], rec[:, 12].copy()
    v_inertial_t = np.einsum("nij,nj->ni", r_t, va_t)
    v_inertial_h = np.einsum("nij,nj->ni", r_h, va_h)
    eigs = np.linalg.eigvalsh(rec[:, 13:][:, PACKED_INDEX])
    out = table[sl]
    out[:, 0] = ts[sl]
    out[:, 1:4] = _euler_columns(r_t)
    out[:, 4:7] = _euler_columns(r_h)
    out[:, 7:10] = va_t
    out[:, 10:13] = va_h
    out[:, 13] = h_t
    out[:, 14] = h_h
    out[:, 15] = np.linalg.norm(va_t - va_h, axis=1)
    out[:, 16] = np.linalg.norm(v_inertial_t - v_inertial_h, axis=1)
    out[:, 17] = 3.0 - np.einsum("nij,nij->n", r_t, r_h)
    out[:, 18] = np.abs(h_t - h_h)
    out[:, 19] = eigs[:, 0]
    out[:, 20] = eigs[:, -1]


def _euler_columns(r: np.ndarray) -> np.ndarray:
    """ZYX Euler angles of a rotation series, NaN on gimbal-locked rows.

    A reporting column must not end a run, so rows that
    :func:`~airnav.geometry.rot_to_euler_zyx` would refuse are left NaN.
    """
    euler = np.full((r.shape[0], 3), np.nan)
    ok = np.abs(r[:, 2, 0]) < geometry.GIMBAL_LOCK_SIN_PITCH
    euler[ok] = geometry.rot_to_euler_zyx(r[ok])
    return euler


# The trace formatter.  10**k is an exact double for k <= 22, and so is the
# Veltkamp split of each (2**27 + 1 splits a double into two 26-bit halves).
_POW10 = 10.0 ** np.arange(23)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with ``p + e == a * 10**k`` exactly (Dekker's product).
    Each step is its own ufunc, so none is fused into a multiply-add."""
    p = a * np.take(_POW10, k)
    a_hi, a_lo = _split(a)
    b_hi, b_lo = np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    e = a_hi * b_hi
    e -= p
    b_hi *= a_lo
    a_hi *= b_lo
    a_lo *= b_lo
    e += a_hi
    e += b_hi
    e += a_lo
    return p, e


# A value's text is laid out in a slot of 48 bytes (six 64-bit words):
# its sign, the "0.000" of -4 <= X < 0, 17 digits at bytes 6, 8, ... 38,
# each followed by a column for the point, "e-0N" and the separator.
# Columns the text does not use are NUL.  A slot's constant bytes and the
# mask of its digit columns depend on a code: the sign, the decimal
# exponent X (-6 to 16), the count of significant digits (1 to 17) and
# whether the value ends its row.
_SLOT_WORDS = 6
_EXPONENTS = np.arange(-6, 17)


def _slot_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per code, the slot's constant words and its digit mask."""
    x = _EXPONENTS[:, None, None]
    nd = np.arange(18)[:, None]
    col = np.arange(8 * _SLOT_WORDS)
    digit, is_point = np.divmod(col - 6, 2)
    in_digits = (col >= 6) & (col < 40)
    fixed = x >= -4
    # fixed notation keeps every integer digit, trailing zeros included
    kept = np.where(x >= 0, np.maximum(nd, x + 1), nd)
    point_after = np.where(fixed, x, 0)
    has_point = (nd > point_after + 1) & ((x >= 0) | ~fixed)
    text = np.zeros(col.size, np.int64)
    text[1:6] = np.frombuffer(b"0.000", np.uint8)
    text[40:44] = np.frombuffer(b"e-00", np.uint8)
    const = np.empty((2, _EXPONENTS.size, 18, 2, col.size), np.uint8)
    const[:] = ((fixed & (x < 0) & (col >= 1) & (col < 2 - x)) * text
                + (in_digits & (is_point == 1) & has_point
                   & (digit == point_after)) * ord(".")
                + (~fixed & (col >= 40) & (col < 44))
                * (text - (col == 43) * x))[:, :, None]
    const[1, ..., 0] = ord("-")
    const[..., 0, 44] = ord(",")
    const[..., 1, 44] = ord("\n")
    mask = np.empty_like(const)
    mask[:] = ((in_digits & (is_point == 0) & (digit < kept))
               * np.uint8(0xFF))[:, :, None]
    return (const.view(np.uint64).reshape(-1, _SLOT_WORDS),
            mask.view(np.uint64).reshape(-1, _SLOT_WORDS))


def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per 4-digit chunk 0000 ... 9999, its digits in the even bytes of a
    word, and its trailing zeros (4 for 0000); entry 10000 is a NUL word."""
    digits = np.zeros((10001, 8), np.uint8)
    for i in range(4):
        digits[:10000, 2 * i] = np.tile(
            np.repeat(np.arange(48, 58, dtype=np.uint8), 10**(3 - i)), 10**i)
    zeros = sum(np.tile(np.arange(10**i) == 0, 10**(4 - i))
                for i in range(1, 5))
    return digits.view(np.uint64).reshape(-1), zeros


_SLOT_CONST, _SLOT_MASK = _slot_tables()
_CHUNK_DIGITS, _CHUNK_ZEROS = _chunk_tables()


def _format_rows(table: np.ndarray) -> str:
    """The trace lines of ``table``'s rows, each value as
    :data:`FLOAT_FORMAT` prints it, byte for byte.

    Values with ``10**-6 <= |x| < 10**16`` and zeros are formatted in
    numpy, the others (non-finite, tiny or huge values) by ``%``.  For
    ``k = 16 - floor(log10|x|)``, at most 22, ``|x| 10**k`` is the exact
    pair ``hi + lo`` in ``[10**16, 10**17)``, and ``hi`` is an integer.
    Its 17 digits are then ``hi + floor(lo)``, plus one where ``lo``
    exceeds ``floor(lo) + 0.5`` or equals it after an odd digit (half to
    even); both sides of that comparison are exact.  The digits come in
    4-digit chunks from a table; trailing zeros, and a point with nothing
    after it, are masked off by the value's code.  Temporaries grow with
    the table: the writer calls this 256 rows at a time.
    """
    x = np.ascontiguousarray(table, dtype=float)
    n, width = x.shape
    x = x.reshape(-1)
    a = np.abs(x)
    zero = a == 0.0
    # the double 1e-6 is just below 10**-6
    fast = (a > 1e-6) & (a < 1e16)
    a[~fast] = 1.0
    # log10 can be one off next to a power of ten: fix it on the exact pair
    e = np.floor(np.log10(a)).astype(np.int64)
    np.maximum(e, -6, out=e)
    hi, lo = _times_pow10(a, 16 - e)
    step = (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
            - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))
    off = np.flatnonzero(step)
    if off.size:
        e[off] += step[off]
        hi[off], lo[off] = _times_pow10(a[off], 16 - e[off])
    floor_lo = np.floor(lo)
    half = floor_lo + 0.5
    d = hi.astype(np.int64)
    d += floor_lo.astype(np.int64)
    d += (lo > half) | ((lo == half) & (d & 1 == 1))
    # a guard: no double in the range rounds up to the next power of ten
    carry = np.flatnonzero(d == 10**17)
    d[carry] = 10**16
    e[carry] += 1
    d[zero] = 0
    e[zero] = 0
    # the 17 digits as chunks of 1, 4, 4, 4 and 4 digits, then a NUL word
    chunks = np.empty((d.size, _SLOT_WORDS), np.int64)
    chunks[:, 5] = 10000
    # (numpy divides by a constant much faster than it takes a remainder)
    high = d // 10**8
    low = d - high * 10**8
    head = high // 10**4
    chunks[:, 0] = head // 10**4
    chunks[:, 1] = head - chunks[:, 0] * 10**4
    chunks[:, 2] = high - head * 10**4
    chunks[:, 3] = low // 10**4
    chunks[:, 4] = low - chunks[:, 3] * 10**4
    zeros = np.take(_CHUNK_ZEROS, chunks[:, 4])
    more = np.flatnonzero(zeros == 4)
    for word in (3, 2, 1):
        z = np.take(_CHUNK_ZEROS, chunks[more, word])
        zeros[more] += z
        more = more[z == 4]
    code = np.signbit(x) * _EXPONENTS.size + (e - _EXPONENTS[0])
    code *= 18
    code += 17 - zeros
    code *= 2
    code.reshape(n, width)[:, -1] += 1
    slots = np.take(_CHUNK_DIGITS, chunks)
    slots &= np.take(_SLOT_MASK, code, axis=0)
    slots |= np.take(_SLOT_CONST, code, axis=0)
    slots = slots.view(np.uint8)
    for i in np.flatnonzero(~(fast | zero)).tolist():
        text = (FLOAT_FORMAT % x[i]).encode()
        slots[i, :44] = 0
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)
    return slots.tobytes().translate(None, b"\0").decode("ascii")


class _TraceWriter:
    """Derives one run's trace columns and writes its trace, if it has one.

    In process, :meth:`finish` derives every row in one call after the tick
    loop and writes them :data:`_FORMAT_ROWS` at a time.  After
    :meth:`fork`, a child process takes each block that :meth:`ready`
    reports through a pipe while the loop ticks the next; the recorded
    ``rows`` and the derived ``table`` are shared memory, so the parent
    reads the child's table once :meth:`finish` has reaped it.  A failure
    of the child is
    pickled back through a second pipe and raised in the parent.
    :meth:`abandon` removes the trace of a run that did not finish.
    """

    def __init__(self, path, truth, rows: np.ndarray):
        self.path = path
        self.truth = truth
        self.rows = rows
        n = rows.shape[0]
        self.table = np.frombuffer(
            _fork.shared_buffer(8 * n * len(TRACE_COLUMNS))).reshape(n, -1)
        self.done = 0
        self.pid = None
        self.fh = None
        if path is not None:
            self.fh = open(path, "w", newline="")
            self.fh.write(_TRACE_HEADER)

    def _write_to(self, recorded: int) -> None:
        """Derive, and write when there is a trace, rows up to ``recorded``:
        one block in a forked child, every row in process."""
        if recorded > self.done:
            _derive_rows(self.table, self.rows, self.truth, self.done,
                         recorded)
        if self.fh is not None:
            for start in range(self.done, recorded, _FORMAT_ROWS):
                stop = min(start + _FORMAT_ROWS, recorded)
                self.fh.write(_format_rows(self.table[start:stop]))
        self.done = recorded

    def fork(self) -> None:
        """Hand the rest of the work to a child process.

        A failed fork (no process left to start) leaves the work in
        process.
        """
        self.fh.flush()  # the child must not inherit buffered text
        counts_r, counts_w = os.pipe()

        def work():
            os.close(counts_w)
            while data := os.read(counts_r, 8):
                self._write_to(int.from_bytes(data, "little"))
            self.fh.close()

        child = _fork.start(work)
        os.close(counts_r)
        if child is None:
            os.close(counts_w)
            return
        self.fh.close()  # the child writes through its own copy
        self.fh = None
        self.pid, self._errors = child
        self._counts = counts_w

    def ready(self, recorded: int) -> None:
        """Tell a forked child that rows up to ``recorded`` are recorded:
        the loop calls this at each block start, :meth:`finish` at the end."""
        if self.pid is None:
            return
        try:
            os.write(self._counts, recorded.to_bytes(8, "little"))
        except BrokenPipeError:  # the child stopped early: say why
            error = self._reap()
            if error is None:
                raise
            raise error from None

    def finish(self, recorded: int) -> None:
        """Complete the table, and the trace if any, with ``recorded`` rows."""
        if self.pid is None:
            self._write_to(recorded)
            if self.fh is not None:
                self.fh.close()
            return
        self.ready(recorded)
        error = self._reap()
        if error is not None:
            raise error

    def abandon(self) -> None:
        """Stop after the tick loop or the writer failed, and remove the
        trace, which would otherwise look like a complete one.  The first
        error is the one to report, so later failures here are dropped."""
        if self.pid is not None:
            self._reap()
        if self.fh is not None:
            try:
                self.fh.close()
            except OSError:
                pass
        if self.path is not None:
            Path(self.path).unlink(missing_ok=True)

    def _reap(self) -> BaseException | None:
        """Close the count pipe, wait for the child and return its error."""
        pid, self.pid = self.pid, None
        os.close(self._counts)
        return _fork.reap(pid, self._errors, "trace writer")[1]


def trace_path(out, run_index: int) -> Path:
    """Path of run ``run_index``'s trace CSV in directory ``out``."""
    return Path(out) / f"run_{run_index:03d}.csv"


def _run_and_write(config: SimConfig, run_index: int, out) -> RunRecord:
    """One Monte Carlo task: run ``run_index``, write its trace given ``out``,
    and return its :class:`RunRecord`; the series go no further."""
    trace = trace_path(out, run_index) if out is not None else None
    return _run_record(config, run_single(config, run_index, trace=trace))


def run_montecarlo(config: SimConfig, out=None,
                   ) -> tuple[MonteCarloSummary, list[RunRecord]]:
    """Run all configured Monte Carlo repetitions and aggregate statistics.

    Returns the summary and one :class:`RunRecord` per run, in run-index
    order; no run's series outlives its task.  Given an existing directory
    ``out``, each run's trace is written there as :func:`trace_path` names
    it; without ``out`` no trace is formatted.  The runs are split into
    contiguous chunks, one per available CPU (no more than there are
    runs), and each chunk goes to a forked worker process, which runs its
    runs in order, writes their traces and sends back only their records.
    Runs are seeded independently and collected in run-index order, so
    the traces, records and summary are byte-identical to running the runs
    one after another, as is done in-process for a single run, when only
    one CPU is available or where the ``fork`` start method does not
    exist.  On Python 3.12 and later the fork emits a
    ``DeprecationWarning`` because numpy's BLAS threads exist.  Each run
    writes its own trace (see :func:`run_single`); a run in a worker
    process formats it after its loop, and a lone run in this process may
    fork a writer that formats it while the run ticks; the bytes are the
    same.  A numerical failure (:data:`~airnav.observer.RUN_FAILURES`)
    stays inside its run, whose trace keeps the partial series.  Any other
    exception, such as an ``OSError`` from a trace that cannot be written,
    stops the runs left in its chunk; the other chunks run to their end,
    and once every worker is reaped the exception of the first failing
    chunk, the lowest failing run index, reaches the caller.
    """
    chunks = _fork.map_chunks(
        lambda runs: [_run_and_write(config, k, out) for k in runs],
        range(config.runs), "Monte Carlo worker")
    records = [record for chunk in chunks for record in chunk]
    return summarize(config, records), records


def summarize(config: SimConfig,
              records: list[RunRecord]) -> MonteCarloSummary:
    """Fold the batch's run records into across-run statistics.

    Each run's final-window means are kept, NaN for a diverged run; the
    median, minimum and maximum at each sample time inside the duration
    are taken over the runs that did not diverge.
    """
    sample_times = _sample_times(config.duration)
    final_means = {}
    median_at, min_at, max_at = {}, {}, {}
    clean = [r for r in records if not r.diverged]
    for key in METRIC_KEYS:
        final_means[key] = np.array([r.final_means[key] for r in records])
        if clean and sample_times:
            at_times = np.array([r.at_times[key] for r in clean])
            median_at[key] = np.median(at_times, axis=0)
            min_at[key] = np.min(at_times, axis=0)
            max_at[key] = np.max(at_times, axis=0)
        else:
            empty = np.full(len(sample_times), np.nan)
            median_at[key], min_at[key], max_at[key] = empty, empty, empty
    return MonteCarloSummary(
        runs=len(records),
        divergence_count=sum(r.diverged for r in records),
        unconverged_count=sum(r.status == UNCONVERGED for r in records),
        sample_times=sample_times,
        final_means=final_means,
        median_at_times=median_at,
        min_at_times=min_at,
        max_at_times=max_at,
    )


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Read a trace written by :func:`run_single` (column -> array).

    Raises ``ValueError`` for a file without the trace header or with a
    line whose field count is not that of the header.
    """
    width = len(TRACE_COLUMNS)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("not a trace file: empty")
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError("not a trace file: unexpected header")
        rows = []
        for row in reader:
            if len(row) != width:
                raise ValueError(
                    f"not a trace file: line {reader.line_num} has "
                    f"{len(row)} fields, not {width}")
            rows.append([float(x) for x in row])
    table = np.array(rows).reshape(-1, width)
    return {name: table[:, i] for i, name in enumerate(TRACE_COLUMNS)}


def write_summary_csv(path, summary: MonteCarloSummary) -> None:
    """Write aggregate Monte Carlo statistics as a long-format table."""
    def fmt(x: float) -> str:
        return FLOAT_FORMAT % x

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["stat", "metric", "label", "value"])
        writer.writerow(["runs", "", "", str(summary.runs)])
        writer.writerow(["divergences", "", "", str(summary.divergence_count)])
        for key in METRIC_KEYS:
            for k, value in enumerate(summary.final_means[key]):
                writer.writerow([f"final_mean_{FINAL_WINDOW:g}s", key,
                                 f"run_{k:03d}", fmt(value)])
        for stat, table in (("median", summary.median_at_times),
                            ("min", summary.min_at_times),
                            ("max", summary.max_at_times)):
            for key in METRIC_KEYS:
                for t, value in zip(summary.sample_times, table[key]):
                    writer.writerow([stat, key, f"t={t:g}", fmt(value)])


def write_observability_csv(path, rows) -> None:
    """Write the per-window observability table.

    No field needs quoting, so each line is :data:`_OBSERVABILITY_ROW` and
    the file has the bytes that ``csv.writer`` gives.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_OBSERVABILITY_HEADER)
        fh.writelines(_OBSERVABILITY_ROW % (
            row.t_start, row.lam_min, row.lam_max, row.mu_pi, row.mu_api,
            "true" if row.verdict else "false") for row in rows)
