"""Measurement synthesis and the multirate tick grid.

Each sensor model takes the truth series it reads, with a leading axis of
n ticks, and one tick is the same call on one row: one call over n ticks
draws from its stream exactly what n single-tick calls draw.  Each sensor
draws its noise from its own RNG substream, keyed by
``(base_seed, run_index, stream_id)``; the number of draws consumed by one
sensor therefore never perturbs another sensor's sequence, and Monte Carlo
runs are mutually independent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import RateMismatchError


class SensorKind(enum.Enum):
    IMU = "imu"
    PITOT = "pitot"
    MAG = "mag"
    BARO = "baro"


# Row order of the aiding sensors wherever their outputs are stacked.
STACK_ORDER = (SensorKind.PITOT, SensorKind.MAG, SensorKind.BARO)

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

    def __post_init__(self):
        m = np.array(self.m_I, dtype=float)
        if m.shape != (3,):
            raise ValueError("m_I must be a 3-vector")
        if abs(np.linalg.norm(m) - 1.0) > 1e-9:
            raise ValueError("m_I must have unit norm")
        if np.hypot(m[0], m[1]) <= 1e-9:
            raise ValueError("m_I must not be collinear with the vertical axis")
        m.flags.writeable = False
        object.__setattr__(self, "m_I", m)


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Per-sensor Gaussian noise standard deviations."""

    sigma_gyro: float
    sigma_acc: float
    sigma_p: np.ndarray
    sigma_m: np.ndarray
    sigma_b: float

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


@dataclass(frozen=True)
class RateSpec:
    """Sensor sampling rates in Hz; slower rates must divide the IMU rate."""

    f_imu: float
    f_pitot: float
    f_mag: float
    f_baro: float

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


def sample_imu(omega: np.ndarray, a: np.ndarray, noise: NoiseSpec,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Gyroscope and accelerometer measurements with additive Gaussian noise.

    ``omega`` and ``a`` are (3,) for one tick or (n, 3) for n ticks.  Each
    tick draws its gyroscope triple, then its accelerometer triple.
    """
    z = rng.standard_normal(np.shape(omega)[:-1] + (2, 3))
    return (omega + noise.sigma_gyro * z[..., 0, :],
            a + noise.sigma_acc * z[..., 1, :])


def sample_pitot(va: np.ndarray, probes: ProbeSet, noise: NoiseSpec,
                 rng: np.random.Generator) -> np.ndarray:
    """Per-probe projections of the body-frame air velocity, plus noise.

    ``va`` is (3,) for one tick or (n, 3) for n ticks; the result is (m,)
    or (n, m).
    """
    if noise.sigma_p.shape[0] != probes.m:
        raise ValueError("sigma_p length must equal the probe count")
    va = np.asarray(va)
    # einsum, unlike a BLAS matmul, sums each projection in the same order
    # for one tick and for many.
    return (np.einsum("...i,im->...m", va, probes.B)
            + noise.sigma_p * rng.standard_normal(va.shape[:-1] + (probes.m,)))


def sample_baro(h: np.ndarray, noise: NoiseSpec,
                rng: np.random.Generator) -> np.ndarray:
    """Barometric altitude measurement: ``h`` is () for one tick or (n,)."""
    return h + noise.sigma_b * rng.standard_normal(np.shape(h))


def sample_mag(r: np.ndarray, ref: MagReference, noise: NoiseSpec,
               rng: np.random.Generator) -> np.ndarray:
    """Body-frame magnetic field measurement (left unnormalized).

    ``r`` is (3, 3) for one tick or (n, 3, 3) for n ticks.
    """
    return ref.m_I @ r + noise.sigma_m * rng.standard_normal(np.shape(r)[:-1])


def tick_times(rates: RateSpec, duration: float) -> np.ndarray:
    """IMU tick grid ``k / f_imu`` for ``k = 0 .. floor(duration * f_imu)``.

    Both endpoints are included.  A sensor of decimation ``d`` samples on
    the ticks with ``k % d == 0``.
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    n_ticks = int(np.floor(duration * rates.f_imu + 1e-9))
    return np.arange(n_ticks + 1) / rates.f_imu
