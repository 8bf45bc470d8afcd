"""Measurement synthesis and the multirate sensor schedule.

Each sensor draws its noise from its own RNG substream, keyed by
``(base_seed, run_index, stream_id)``; the number of draws consumed by one
sensor therefore never perturbs another sensor's sequence, and Monte Carlo
runs are mutually independent.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field

import numpy as np

from .dynamics import BodyInputs, NavState
from .exceptions import MissingPayloadError, RateMismatchError

FLOAT_FORMAT = "%.17g"


class SensorKind(enum.Enum):
    IMU = "imu"
    PITOT = "pitot"
    MAG = "mag"
    BARO = "baro"

    # Members compare by identity, so the identity hash is consistent and
    # much cheaper than Enum's name-based one; payload dicts hash these
    # keys several times per tick.
    __hash__ = object.__hash__


# Substream identifiers; INIT draws the randomized initial estimates.
STREAM_IDS = {
    SensorKind.IMU: 0,
    SensorKind.PITOT: 1,
    SensorKind.MAG: 2,
    SensorKind.BARO: 3,
}
INIT_STREAM_ID = 4


def substream(base_seed: int, run_index: int, stream_id: int) -> np.random.Generator:
    """Independent generator for one (run, sensor) pair."""
    return np.random.default_rng(
        np.random.SeedSequence((int(base_seed), int(run_index), int(stream_id)))
    )


@dataclass(frozen=True, eq=False)
class ProbeSet:
    """Body-frame Pitot probe axes, stored as the 3 x m column matrix B."""

    B: np.ndarray

    def __post_init__(self):
        b = np.array(self.B, dtype=float)
        if b.ndim != 2 or b.shape[0] != 3:
            raise ValueError("B must be a 3 x m matrix of probe axes")
        m = b.shape[1]
        if not 1 <= m <= 8:
            raise ValueError(f"probe count {m} outside [1, 8]")
        norms = np.linalg.norm(b, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("every probe axis must have unit norm")
        b.flags.writeable = False
        object.__setattr__(self, "B", b)

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @classmethod
    def from_axes(cls, axes) -> ProbeSet:
        """Build from an iterable of 3-vectors (one per probe)."""
        return cls(B=np.array(axes, dtype=float).T)


@dataclass(frozen=True, eq=False)
class MagReference:
    """Unit inertial magnetic-field direction; must not be vertical."""

    m_I: np.ndarray
    allow_collinear: bool = False

    def __post_init__(self):
        m = np.array(self.m_I, dtype=float)
        if m.shape != (3,):
            raise ValueError("m_I must be a 3-vector")
        if abs(np.linalg.norm(m) - 1.0) > 1e-9:
            raise ValueError("m_I must have unit norm")
        if not self.allow_collinear and np.hypot(m[0], m[1]) <= 1e-9:
            raise ValueError("m_I must not be collinear with the vertical axis")
        m.flags.writeable = False
        object.__setattr__(self, "m_I", m)


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Per-sensor Gaussian noise standard deviations."""

    sigma_gyro: float = 0.05
    sigma_acc: float = 0.05
    sigma_p: np.ndarray = field(default_factory=lambda: np.array([0.5]))
    sigma_m: np.ndarray = field(default_factory=lambda: np.full(3, 0.01))
    sigma_b: float = 0.05

    def __post_init__(self):
        sp = np.atleast_1d(np.array(self.sigma_p, dtype=float))
        sm = np.array(self.sigma_m, dtype=float)
        if sm.shape != (3,):
            raise ValueError("sigma_m must be a 3-vector")
        values = np.concatenate((sp, sm, [self.sigma_gyro, self.sigma_acc,
                                          self.sigma_b]))
        if np.any(values < 0.0):
            raise ValueError("noise standard deviations must be non-negative")
        sp.flags.writeable = False
        sm.flags.writeable = False
        object.__setattr__(self, "sigma_p", sp)
        object.__setattr__(self, "sigma_m", sm)

    @classmethod
    def noiseless(cls, m: int = 1) -> NoiseSpec:
        return cls(sigma_gyro=0.0, sigma_acc=0.0, sigma_p=np.zeros(m),
                   sigma_m=np.zeros(3), sigma_b=0.0)


@dataclass(frozen=True)
class RateSpec:
    """Sensor sampling rates in Hz; slower rates must divide the IMU rate."""

    f_imu: float = 200.0
    f_pitot: float = 50.0
    f_mag: float = 50.0
    f_baro: float = 5.0

    def __post_init__(self):
        for name in ("f_imu", "f_pitot", "f_mag", "f_baro"):
            if getattr(self, name) <= 0.0:
                raise RateMismatchError(f"{name} must be positive")
        for name in ("f_pitot", "f_mag", "f_baro"):
            f = getattr(self, name)
            if f > self.f_imu:
                raise RateMismatchError(f"{name}={f} exceeds f_imu={self.f_imu}")
            ratio = self.f_imu / f
            if abs(ratio - round(ratio)) > 1e-9:
                raise RateMismatchError(
                    f"{name}={f} does not divide f_imu={self.f_imu} evenly"
                )

    def decimation(self, kind: SensorKind) -> int:
        """IMU ticks between consecutive samples of ``kind``."""
        f = {SensorKind.IMU: self.f_imu, SensorKind.PITOT: self.f_pitot,
             SensorKind.MAG: self.f_mag, SensorKind.BARO: self.f_baro}[kind]
        return int(round(self.f_imu / f))


@dataclass(frozen=True, eq=False)
class SensorEvent:
    """One timestamped measurement.

    ``payload`` is ``(omega, a)`` for IMU, an (m,) array for Pitot, a
    3-vector for the magnetometer and a float for the barometer.
    """

    t: float
    kind: SensorKind
    payload: object


@dataclass(frozen=True)
class ScheduleSlot:
    """One IMU tick and the set of sensors that sample on it."""

    t: float
    kinds: tuple[SensorKind, ...]


def sample_imu(inputs: BodyInputs, noise: NoiseSpec,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Gyroscope and accelerometer measurements with additive Gaussian noise.

    ``inputs.omega`` and ``inputs.a`` are (3,) for one tick or (n, 3) for n
    ticks.  Each tick draws its gyroscope triple, then its accelerometer
    triple, so one call over n ticks consumes the stream exactly as n
    single-tick calls do.
    """
    z = rng.standard_normal(np.shape(inputs.omega)[:-1] + (2, 3))
    omega = inputs.omega + noise.sigma_gyro * z[..., 0, :]
    a = inputs.a + noise.sigma_acc * z[..., 1, :]
    return omega, a


def sample_pitot(truth: NavState, probes: ProbeSet, noise: NoiseSpec,
                 rng: np.random.Generator) -> np.ndarray:
    """Per-probe projections of the body-frame air velocity, plus noise.

    ``truth.Va`` is (3,) for one tick or (n, 3) for n ticks; the result is
    (m,) or (n, m).
    """
    if noise.sigma_p.shape[0] != probes.m:
        raise ValueError("sigma_p length must equal the probe count")
    va = np.asarray(truth.Va)
    # einsum, unlike a BLAS matmul, sums each projection in the same order
    # for one tick and for many.
    return (np.einsum("...i,im->...m", va, probes.B)
            + noise.sigma_p * rng.standard_normal(va.shape[:-1] + (probes.m,)))


def sample_baro(truth: NavState, noise: NoiseSpec,
                rng: np.random.Generator) -> float | np.ndarray:
    """Barometric altitude measurement.

    A scalar ``truth.h`` gives a float; an (n,) array gives n measurements.
    """
    h = truth.h + noise.sigma_b * rng.standard_normal(np.shape(truth.h))
    return float(h) if np.ndim(h) == 0 else h


def sample_mag(truth: NavState, ref: MagReference, noise: NoiseSpec,
               rng: np.random.Generator) -> np.ndarray:
    """Body-frame magnetic field measurement (left unnormalized).

    ``truth.R`` is (3, 3) for one tick or (n, 3, 3) for n ticks.
    """
    r = np.asarray(truth.R)
    return ref.m_I @ r + noise.sigma_m * rng.standard_normal(r.shape[:-1])


def tick_times(rates: RateSpec, duration: float) -> np.ndarray:
    """IMU tick grid ``k / f_imu`` for ``k = 0 .. floor(duration * f_imu)``.

    Both endpoints are included.  A sensor of decimation ``d`` samples on
    the ticks with ``k % d == 0``.
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    n_ticks = int(np.floor(duration * rates.f_imu + 1e-9))
    return np.arange(n_ticks + 1) / rates.f_imu


def make_schedule(rates: RateSpec, duration: float) -> list[ScheduleSlot]:
    """Tick schedule at the IMU rate with slower sensors on their multiples.

    One slot per tick of :func:`tick_times`; coincident samples are merged
    into one slot.
    """
    dec = {kind: rates.decimation(kind)
           for kind in (SensorKind.PITOT, SensorKind.MAG, SensorKind.BARO)}
    slots = []
    for k, t in enumerate(tick_times(rates, duration).tolist()):
        kinds = [SensorKind.IMU]
        for kind in (SensorKind.PITOT, SensorKind.MAG, SensorKind.BARO):
            if k % dec[kind] == 0:
                kinds.append(kind)
        slots.append(ScheduleSlot(t=t, kinds=tuple(kinds)))
    return slots


_EXPORT_KINDS = {"imu_gyro", "imu_acc", "pitot", "mag", "baro"}


def export_sensor_log(path, events: list[SensorEvent]) -> None:
    """Write events as ``t,kind,v1..v3`` CSV (17 significant digits).

    IMU events become two rows (``imu_gyro`` and ``imu_acc``); Pitot rows with
    fewer than three probes pad the unused columns with empty fields.
    """
    def fmt(x: float) -> str:
        return FLOAT_FORMAT % x

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "kind", "v1", "v2", "v3"])
        for ev in events:
            ts = fmt(ev.t)
            if ev.kind is SensorKind.IMU:
                omega, a = ev.payload
                writer.writerow([ts, "imu_gyro"] + [fmt(x) for x in omega])
                writer.writerow([ts, "imu_acc"] + [fmt(x) for x in a])
            elif ev.kind is SensorKind.PITOT:
                y = np.atleast_1d(ev.payload)
                if y.shape[0] > 3:
                    raise ValueError("sensor-log format holds at most 3 probes")
                row = [fmt(x) for x in y] + [""] * (3 - y.shape[0])
                writer.writerow([ts, "pitot"] + row)
            elif ev.kind is SensorKind.MAG:
                writer.writerow([ts, "mag"] + [fmt(x) for x in ev.payload])
            else:
                writer.writerow([ts, "baro", fmt(float(ev.payload)), "", ""])


def import_sensor_log(path) -> list[SensorEvent]:
    """Rebuild the event stream written by :func:`export_sensor_log`."""
    events: list[SensorEvent] = []
    pending_gyro: tuple[float, np.ndarray] | None = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["t", "kind"]:
            raise ValueError("not a sensor log: bad header")
        for row in reader:
            t = float(row[0])
            kind = row[1]
            if kind not in _EXPORT_KINDS:
                raise ValueError(f"unknown sensor kind {kind!r}")
            vals = [float(x) for x in row[2:5] if x != ""]
            if kind == "imu_gyro":
                pending_gyro = (t, np.array(vals))
            elif kind == "imu_acc":
                if pending_gyro is None or pending_gyro[0] != t:
                    raise MissingPayloadError(
                        f"imu_acc at t={t} has no matching imu_gyro row"
                    )
                events.append(SensorEvent(
                    t=t, kind=SensorKind.IMU,
                    payload=(pending_gyro[1], np.array(vals)),
                ))
                pending_gyro = None
            elif kind == "pitot":
                events.append(SensorEvent(t=t, kind=SensorKind.PITOT,
                                          payload=np.array(vals)))
            elif kind == "mag":
                events.append(SensorEvent(t=t, kind=SensorKind.MAG,
                                          payload=np.array(vals)))
            else:
                events.append(SensorEvent(t=t, kind=SensorKind.BARO,
                                          payload=vals[0]))
    if pending_gyro is not None:
        raise MissingPayloadError("trailing imu_gyro row without imu_acc")
    return events
