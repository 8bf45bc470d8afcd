"""Experiment drivers: single runs, Monte Carlo batches, CSV persistence.

Metrics follow the reporting conventions of the simulation study: the
attitude error is ``trace(I - R Rhat^T)`` and the velocity error is logged
both as the body-frame norm ``|Va - Vahat|`` and as the inertial-frame
mismatch ``|R Va - Rhat Vahat|`` (the two differ once attitudes disagree).
Everything is logged at the IMU rate.  All outputs are byte-deterministic
functions of (config, base_seed).

One run (:func:`run_single`) has three phases: truth on the whole tick
grid and every sensor's measurements for the whole run, drawn in one call
per sensor; the tick loop, which hands each tick's payloads to
:meth:`~airnav.observer.AirDataObserver.tick` and records the estimate; and
the vectorized metrics.  A numerical failure inside the loop ends that run
only: its series is truncated and flagged, and :func:`run_montecarlo`
carries on with the next run.  :func:`write_trace_csv` formats each row
with one ``%`` format and writes blocks of rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import dynamics, geometry
from .config import SimConfig
from .exceptions import (
    DegenerateMatrixError,
    DivergenceError,
    GimbalLockError,
    SingularInnovationError,
)
from .observer import AirDataObserver, ObserverState
from .sensors import (
    INIT_STREAM_ID,
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

METRIC_KEYS = ("err_att", "err_v_body", "err_v_inertial", "err_h")

# Across-run statistics are reported at these times (seconds).
SUMMARY_SAMPLE_TIMES = (5.0, 15.0, 30.0)
FINAL_WINDOW = 5.0


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

    def metric(self, key: str) -> np.ndarray:
        return getattr(self, key)

    def at_time(self, key: str, t: float) -> float:
        """Metric value at the tick closest to ``t``."""
        idx = int(np.argmin(np.abs(self.t - t)))
        return float(self.metric(key)[idx])

    def window_mean(self, key: str, t_from: float,
                    t_to: float | None = None) -> float:
        mask = self.t >= t_from
        if t_to is not None:
            mask &= self.t <= t_to
        values = self.metric(key)[mask]
        return float(np.mean(values)) if values.size else float("nan")


@dataclass(eq=False)
class MonteCarloSummary:
    """Aggregate statistics of a Monte Carlo batch."""

    runs: int
    divergence_count: int
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
    builds each tick's payloads from those arrays and calls
    :meth:`AirDataObserver.tick` once per tick.  The estimate is recorded at
    every IMU tick before that tick's measurements are processed, so row 0
    reflects the initial estimate, and the derived metrics are computed
    vectorized after the loop.  If a tick fails numerically (divergence
    floor, singular innovation, degenerate attitude), the series is
    truncated at the last valid tick and flagged, and the caller's batch
    goes on.
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
    dec_p, dec_m, dec_b = (rates.decimation(kind) for kind in
                           (SensorKind.PITOT, SensorKind.MAG, SensorKind.BARO))

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

    state0 = (initial_state.copy() if initial_state is not None
              else init_estimates(config, run_index))
    observer = AirDataObserver(
        state0, config.weights, config.probes, config.mag_ref,
        dt=config.imu_period, gravity=config.gravity,
        q_convention=config.q_convention, integrator=config.integrator,
    )
    rhat_hist = np.empty((n, 3, 3))
    vahat_hist = np.empty((n, 3))
    hhat_hist = np.empty(n)
    p_hist = np.empty((n, 7, 7))
    diverged = False
    divergence_time = None
    recorded = 0
    for i in range(n):
        est = observer.state
        rhat_hist[i] = est.Rhat
        vahat_hist[i] = est.Vahat
        hhat_hist[i] = est.hhat
        p_hist[i] = est.P
        recorded = i + 1
        if i == steps:
            break
        payloads = {SensorKind.IMU: (omega_meas[i], a_meas[i])}
        if i % dec_p == 0:
            payloads[SensorKind.PITOT] = pitot_meas[i // dec_p]
        if i % dec_m == 0:
            payloads[SensorKind.MAG] = mag_meas[i // dec_m]
        if i % dec_b == 0:
            payloads[SensorKind.BARO] = baro_meas[i // dec_b]
        try:
            observer.tick(payloads)
        except RUN_FAILURES:
            diverged = True
            divergence_time = float(ts[i])
            break

    sl = slice(0, recorded)
    r_t, r_h = r_truth[sl], rhat_hist[sl]
    va_t, va_h = va_truth[sl], vahat_hist[sl]
    v_inertial_t = np.einsum("nij,nj->ni", r_t, va_t)
    v_inertial_h = np.einsum("nij,nj->ni", r_h, va_h)
    eigs = np.linalg.eigvalsh(p_hist[sl])
    return RunMetrics(
        run_index=run_index,
        t=ts[sl],
        euler=_euler_zyx_batch(r_t),
        euler_hat=_euler_zyx_batch(r_h),
        va=va_t,
        va_hat=va_h,
        h=h_truth[sl],
        h_hat=hhat_hist[sl],
        err_v_body=np.linalg.norm(va_t - va_h, axis=1),
        err_v_inertial=np.linalg.norm(v_inertial_t - v_inertial_h, axis=1),
        err_att=3.0 - np.einsum("nij,nij->n", r_t, r_h),
        err_h=np.abs(h_truth[sl] - hhat_hist[sl]),
        lam_min_p=eigs[:, 0],
        lam_max_p=eigs[:, -1],
        diverged=diverged,
        divergence_time=divergence_time,
    )


def _euler_zyx_batch(r: np.ndarray) -> np.ndarray:
    """Vectorized ZYX Euler extraction with the shared gimbal-lock guard."""
    sp = -r[:, 2, 0]
    if np.any(np.abs(sp) >= np.sin(np.pi / 2.0 - 1e-6)):
        raise GimbalLockError("pitch too close to +/-pi/2 in metric series")
    return np.stack((
        np.arctan2(r[:, 2, 1], r[:, 2, 2]),
        np.arcsin(np.clip(sp, -1.0, 1.0)),
        np.arctan2(r[:, 1, 0], r[:, 0, 0]),
    ), axis=-1)


def run_montecarlo(config: SimConfig,
                   ) -> tuple[MonteCarloSummary, list[RunMetrics]]:
    """Run all configured Monte Carlo repetitions and aggregate statistics.

    Runs are seeded independently, so the fold over run indices is
    deterministic no matter how the runs would be scheduled.  Diverged runs
    keep their partial series and are excluded from aggregate statistics.
    """
    all_metrics = [run_single(config, k) for k in range(config.runs)]
    return summarize(config, all_metrics), all_metrics


def summarize(config: SimConfig,
              all_metrics: list[RunMetrics]) -> MonteCarloSummary:
    sample_times = tuple(t for t in SUMMARY_SAMPLE_TIMES
                         if t <= config.duration)
    final_means = {}
    median_at, min_at, max_at = {}, {}, {}
    clean = [m for m in all_metrics if not m.diverged]
    for key in METRIC_KEYS:
        final_means[key] = np.array([
            m.window_mean(key, config.duration - FINAL_WINDOW)
            if not m.diverged else np.nan
            for m in all_metrics
        ])
        if clean and sample_times:
            at_times = np.array([[m.at_time(key, t) for t in sample_times]
                                 for m in clean])
            median_at[key] = np.median(at_times, axis=0)
            min_at[key] = np.min(at_times, axis=0)
            max_at[key] = np.max(at_times, axis=0)
        else:
            empty = np.full(len(sample_times), np.nan)
            median_at[key], min_at[key], max_at[key] = empty, empty, empty
    return MonteCarloSummary(
        runs=len(all_metrics),
        divergence_count=sum(m.diverged for m in all_metrics),
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
