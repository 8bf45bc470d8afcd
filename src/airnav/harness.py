"""Experiment drivers: single runs, Monte Carlo batches, CSV persistence.

Metrics follow the reporting conventions of the simulation study: the
attitude error is ``trace(I - R Rhat^T)`` and the velocity error is logged
both as the body-frame norm ``|Va - Vahat|`` and as the inertial-frame
mismatch ``|R Va - Rhat Vahat|`` (the two differ once attitudes disagree).
Everything is logged at the IMU rate.  All outputs are byte-deterministic
functions of (config, base_seed).

One run (:func:`run_single`) has three phases: truth on the whole tick
grid and every sensor's measurements for the whole run, drawn in one call
per sensor; the tick loop, which hands each tick's measurements, as
Python floats, to the observer's float step (what
:meth:`~airnav.observer.AirDataObserver.tick` runs) and records the float
estimate; and the vectorized metrics, whose Euler-angle columns come from
:func:`~airnav.geometry.rot_to_euler_zyx` on the whole series (NaN on rows
at gimbal lock).  A numerical failure inside the loop ends that run only:
its series is truncated and flagged with the failure's class, and
:func:`run_montecarlo` carries on with the other runs.

:func:`run_montecarlo` hands the runs to forked worker processes, one per
available CPU.  Each task runs one run, writes its trace, and reduces its
series to a :class:`RunRecord` of a few hundred bytes: the run's status
(ok, diverged or unconverged by :data:`CONVERGED_ERR_ATT` and
:data:`CONVERGED_ERR_V_BODY`), the final-window means and the values at
:data:`SUMMARY_SAMPLE_TIMES`.  Only records travel back to the parent, so
a batch holds no series and the parent's memory does not grow with the
number of runs; :func:`summarize` folds the records.  Every run draws from
its own ``(base_seed, run_index)`` substreams and the records are
collected in run-index order, so every output is byte-identical to running
the runs one after another, which is what happens in-process on a single
CPU or where the ``fork`` start method does not exist.  On Python 3.12 and
later, the fork emits a ``DeprecationWarning`` because numpy's BLAS
threads exist in the parent process.
:func:`write_trace_csv` formats each row with one ``%`` format and writes
blocks of rows.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, geometry
from .config import SimConfig
from .exceptions import (
    DegenerateMatrixError,
    DivergenceError,
    SingularInnovationError,
)
from .observer import PACKED_INDEX, AirDataObserver, ObserverState
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

# Numerical failures of one tick: they end that run, flagged, not the batch.
RUN_FAILURES = (DivergenceError, SingularInnovationError,
                DegenerateMatrixError, np.linalg.LinAlgError)

# Rows formatted per write in write_trace_csv.
TRACE_BLOCK_ROWS = 256

# Floats recorded per tick in run_single: Rhat, Vahat, hhat, packed P.
RECORD_WIDTH = 9 + 3 + 1 + 28

# Covariance rows expanded to 7x7 per eigvalsh call in run_single.
EIG_BLOCK_ROWS = 1024

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
    # Class name of the RUN_FAILURES exception that ended the run.
    divergence_cause: str | None = None

    def at_time(self, key: str, t: float) -> float:
        """Metric value at the tick closest to ``t``."""
        idx = int(np.argmin(np.abs(self.t - t)))
        return float(getattr(self, key)[idx])

    def window_mean(self, key: str, t_from: float,
                    t_to: float | None = None) -> float:
        mask = self.t >= t_from
        if t_to is not None:
            mask &= self.t <= t_to
        values = getattr(self, key)[mask]
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
    """
    rng = substream(config.base_seed, run_index, INIT_STREAM_ID)
    init = config.init
    vahat = init.va0 + init.std_v * rng.standard_normal(3)
    hhat = float(init.h0 + init.std_h * rng.standard_normal())
    roll, pitch, yaw = init.angles0
    r_mean = geometry.euler_zyx_to_rot(roll, pitch, yaw)
    rhat = r_mean @ geometry.exp_so3(init.std_angle * rng.standard_normal(3))
    state = ObserverState(Rhat=rhat, Vahat=vahat, hhat=hhat,
                          P=config.weights.P0.copy())
    state.validate()
    return state


def run_single(config: SimConfig, run_index: int = 0,
               initial_state: ObserverState | None = None) -> RunMetrics:
    """Drive the observer over the full sensor schedule of one run.

    Truth is evaluated from the closed form on the whole tick grid up
    front.  Each sensor's measurements for the whole run are then drawn in
    one call, on the ticks where it samples (``k % decimation == 0``); the
    draws equal those of one call per tick on the same substream.  The loop
    converts each tick's rows of those arrays to floats and runs the step
    behind :meth:`AirDataObserver.tick` once per tick, without building an
    :class:`~airnav.observer.ObserverState`.  The estimate is recorded, as
    floats with ``P`` packed, at every IMU tick before that tick's
    measurements are processed, so row 0 reflects the initial estimate, and
    the derived metrics are computed vectorized after the loop.  If a tick
    fails numerically (divergence floor, singular innovation, degenerate
    attitude), the series is truncated at the last valid tick and flagged
    with the failure's class name, and the caller's batch goes on.
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

    def truth_every(dec):
        sl = slice(0, steps, dec)
        return dynamics.NavState(R=r_truth[sl], Va=va_truth[sl],
                                 h=h_truth[sl], v=v_truth[sl])

    noise = config.noise
    omega_meas, a_meas = sample_imu(
        dynamics.BodyInputs(omega=omega_truth[:steps], a=a_body[:steps]),
        noise, rng(SensorKind.IMU))
    pitot_meas = sample_pitot(truth_every(dec_p), config.probes, noise,
                              rng(SensorKind.PITOT))
    mag_meas = sample_mag(truth_every(dec_m), config.mag_ref, noise,
                          rng(SensorKind.MAG))
    baro_meas = sample_baro(truth_every(dec_b), noise, rng(SensorKind.BARO))

    state0 = (initial_state if initial_state is not None
              else init_estimates(config, run_index))
    observer = AirDataObserver(
        state0, config.weights, config.probes, config.mag_ref,
        dt=config.imu_period, gravity=config.gravity,
        q_convention=config.q_convention, integrator=config.integrator,
    )
    # One record per tick: Rhat row by row, Vahat, hhat and the packed P.
    record = struct.Struct(f"{RECORD_WIDTH}d")
    hist = bytearray(record.size * n)
    diverged = False
    divergence_time = None
    divergence_cause = None
    recorded = 0
    step = observer._step
    for i in range(n):
        record.pack_into(hist, record.size * i, *observer._r, *observer._v,
                         observer._h, *observer._p)
        recorded = i + 1
        if i == steps:
            break
        try:
            step(omega_meas[i].tolist(), a_meas[i].tolist(),
                 pitot_meas[i // dec_p].tolist() if i % dec_p == 0 else None,
                 mag_meas[i // dec_m].tolist() if i % dec_m == 0 else None,
                 float(baro_meas[i // dec_b]) if i % dec_b == 0 else None)
        except RUN_FAILURES as exc:
            diverged = True
            divergence_time = float(ts[i])
            divergence_cause = type(exc).__name__
            break

    sl = slice(0, recorded)
    rows = np.frombuffer(hist).reshape(n, RECORD_WIDTH)[sl]
    r_t, r_h = r_truth[sl], rows[:, 0:9].reshape(-1, 3, 3)
    va_t, va_h = va_truth[sl], rows[:, 9:12].copy()
    h_h = rows[:, 12].copy()
    v_inertial_t = np.einsum("nij,nj->ni", r_t, va_t)
    v_inertial_h = np.einsum("nij,nj->ni", r_h, va_h)
    lam_min, lam_max = _p_extreme_eigenvalues(rows[:, 13:])
    return RunMetrics(
        run_index=run_index,
        t=ts[sl],
        euler=_euler_columns(r_t),
        euler_hat=_euler_columns(r_h),
        va=va_t,
        va_hat=va_h,
        h=h_truth[sl],
        h_hat=h_h,
        err_v_body=np.linalg.norm(va_t - va_h, axis=1),
        err_v_inertial=np.linalg.norm(v_inertial_t - v_inertial_h, axis=1),
        err_att=3.0 - np.einsum("nij,nij->n", r_t, r_h),
        err_h=np.abs(h_truth[sl] - h_h),
        lam_min_p=lam_min,
        lam_max_p=lam_max,
        diverged=diverged,
        divergence_time=divergence_time,
        divergence_cause=divergence_cause,
    )


def _p_extreme_eigenvalues(packed: np.ndarray,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of each packed ``P`` row.

    The full matrices are built ``EIG_BLOCK_ROWS`` at a time, so no
    ``(n, 7, 7)`` history is held.
    """
    lam_min = np.empty(packed.shape[0])
    lam_max = np.empty(packed.shape[0])
    for start in range(0, packed.shape[0], EIG_BLOCK_ROWS):
        block = slice(start, start + EIG_BLOCK_ROWS)
        eigs = np.linalg.eigvalsh(packed[block][:, PACKED_INDEX])
        lam_min[block] = eigs[:, 0]
        lam_max[block] = eigs[:, -1]
    return lam_min, lam_max


def _euler_columns(r: np.ndarray) -> np.ndarray:
    """ZYX Euler angles of a rotation series, NaN on gimbal-locked rows.

    A reporting column must not end a run, so rows that
    :func:`~airnav.geometry.rot_to_euler_zyx` would refuse are left NaN.
    """
    euler = np.full((r.shape[0], 3), np.nan)
    ok = np.abs(r[:, 2, 0]) < geometry.GIMBAL_LOCK_SIN_PITCH
    euler[ok] = geometry.rot_to_euler_zyx(r[ok])
    return euler


def trace_path(out, run_index: int) -> Path:
    """Path of run ``run_index``'s trace CSV in directory ``out``."""
    return Path(out) / f"run_{run_index:03d}.csv"


def _run_and_write(config: SimConfig, run_index: int, out) -> RunRecord:
    """One Monte Carlo task: run ``run_index``, write its trace given ``out``,
    and return its :class:`RunRecord`; the series go no further."""
    metrics = run_single(config, run_index)
    if out is not None:
        write_trace_csv(trace_path(out, run_index), metrics)
    return _run_record(config, metrics)


def _worker_count(runs: int) -> int:
    """Worker processes for ``runs`` runs: one per CPU this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(runs, cpus)


def _run_pooled(config: SimConfig, out, workers: int) -> list[RunRecord]:
    """Run every task in ``workers`` forked processes, in run-index order.

    Forked workers inherit the imported package, so nothing is re-imported
    and the caller's ``__main__`` is not re-run.  The pool lives only inside
    this call: on any exception the runs not yet started are cancelled, the
    workers are joined, and the run's exception reaches the caller.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_run_and_write, config, k, out)
                   for k in range(config.runs)]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_montecarlo(config: SimConfig, out=None,
                   ) -> tuple[MonteCarloSummary, list[RunRecord]]:
    """Run all configured Monte Carlo repetitions and aggregate statistics.

    Returns the summary and one :class:`RunRecord` per run, in run-index
    order; no run's series outlives its task.  Given an existing directory
    ``out``, each run's trace is written there as :func:`trace_path` names
    it; without ``out`` no trace is formatted.  The runs go to forked worker
    processes, one per available CPU (no more than there are runs), and
    each worker writes the traces of its own runs and sends back only their
    records.  Runs are seeded independently and collected in run-index
    order, so the traces, records and summary are byte-identical to running
    the runs one after another, as is done in-process when only one CPU is
    available or the ``fork`` start method does not exist.  On Python 3.12
    and later the fork emits a ``DeprecationWarning`` because numpy's BLAS
    threads exist.  A numerical failure (:data:`RUN_FAILURES`) stays inside
    its run, whose trace keeps the partial series; any other exception
    cancels the runs not yet started and reaches the caller.
    """
    workers = _worker_count(config.runs)
    if workers >= 2 and hasattr(os, "fork"):
        records = _run_pooled(config, out, workers)
    else:
        records = [_run_and_write(config, k, out)
                   for k in range(config.runs)]
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


def write_trace_csv(path, metrics: RunMetrics) -> None:
    """Write the per-tick trace with the fixed column layout."""
    table = np.column_stack((
        metrics.t, metrics.euler, metrics.euler_hat, metrics.va,
        metrics.va_hat, metrics.h, metrics.h_hat, metrics.err_v_body,
        metrics.err_v_inertial, metrics.err_att, metrics.err_h,
        metrics.lam_min_p, metrics.lam_max_p,
    ))
    row_format = ",".join([FLOAT_FORMAT] * len(TRACE_COLUMNS)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        # Blocks of rows bound the memory of the formatted text.
        for start in range(0, table.shape[0], TRACE_BLOCK_ROWS):
            block = table[start:start + TRACE_BLOCK_ROWS].tolist()
            fh.write("".join([row_format % tuple(row) for row in block]))


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Read a trace written by :func:`write_trace_csv` (column -> array)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError("not a trace file: unexpected header")
        rows = np.array([[float(x) for x in row] for row in reader])
    if rows.size == 0:
        rows = rows.reshape(0, len(TRACE_COLUMNS))
    return {name: rows[:, i] for i, name in enumerate(TRACE_COLUMNS)}


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
                writer.writerow(["final_mean_5s", key, f"run_{k:03d}",
                                 fmt(value)])
        for stat, table in (("median", summary.median_at_times),
                            ("min", summary.min_at_times),
                            ("max", summary.max_at_times)):
            for key in METRIC_KEYS:
                for t, value in zip(summary.sample_times, table[key]):
                    writer.writerow([stat, key, f"t={t:g}", fmt(value)])


def write_observability_csv(path, rows) -> None:
    """Write the per-window observability table."""
    def fmt(x: float) -> str:
        return FLOAT_FORMAT % x

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t_window_start", "lam_min_W", "lam_max_W",
                         "mu_pi", "mu_api", "verdict"])
        for row in rows:
            writer.writerow([fmt(row.t_start), fmt(row.lam_min),
                             fmt(row.lam_max), fmt(row.mu_pi),
                             fmt(row.mu_api),
                             "true" if row.verdict else "false"])
