"""Ground-truth vehicle model.

The built-in trajectory family has a fixed body-z rotation axis and
sinusoidal inertial velocity, so attitude, velocity and altitude all have
closed forms and the simulated truth carries no integration error:

    v_i(t)   = amp_i cos(freq_i t + phase_i)          (inertial velocity)
    h(t)     = h0 + integral of v_3
    omega(t) = [0, 0, yaw_amp sin(yaw_freq t)]
    R(t)     = Rz(psi(t)),  psi = integral of omega_3

The reference trajectory used by the simulation study and the degenerate
hover case are both members of this family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class TrajectorySpec:
    """Closed-form truth trajectory with a fixed body-z rotation axis."""

    duration: float = 60.0
    gravity: float = 9.81
    vel_amp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    vel_freq: np.ndarray = field(default_factory=lambda: np.zeros(3))
    vel_phase: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw_amp: float = 0.0
    yaw_freq: float = 0.0
    wind: np.ndarray = field(default_factory=lambda: np.zeros(3))
    h0: float = 0.0

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError("trajectory duration must be positive")
        # up to about 100 g; the Gramian grows as g**2 and overflows far
        # below the largest float
        if not 0.0 < self.gravity <= 1000.0:
            raise ValueError("gravity must be in (0, 1000] m/s^2")
        for name in ("vel_amp", "vel_freq", "vel_phase", "wind"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (3,):
                raise ValueError(f"{name} must have shape (3,)")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def paper(cls, duration: float = 60.0, gravity: float = 9.81) -> TrajectorySpec:
        """Yaw-only excitation reference trajectory."""
        return cls(
            duration=duration,
            gravity=gravity,
            vel_amp=np.array([1.5, 3.0, -15.0 * np.sqrt(3.0) / 4.0]),
            vel_freq=np.array([1.5, 3.0, 3.0]),
            vel_phase=np.array([np.pi / 2.0, 0.0, 0.0]),
            yaw_amp=0.7,
            yaw_freq=1.6,
        )

    @classmethod
    def hover(cls, duration: float = 60.0, gravity: float = 9.81,
              h0: float = 0.0) -> TrajectorySpec:
        """Static truth: zero velocity, constant altitude and attitude."""
        return cls(duration=duration, gravity=gravity, h0=h0)


def _per_axis(spec: TrajectorySpec, t: np.ndarray):
    """Velocity amplitude, frequency and phase shaped to broadcast against
    ``t`` with the axis index first, so each axis runs along ``t``."""
    shape = (3,) + (1,) * t.ndim
    return (spec.vel_amp.reshape(shape), spec.vel_freq.reshape(shape),
            spec.vel_phase.reshape(shape))


def velocity(spec: TrajectorySpec, t) -> np.ndarray:
    """Inertial velocity v(t); broadcasts over array-valued t (last axis 3)."""
    t = np.asarray(t, dtype=float)
    amp, freq, phase = _per_axis(spec, t)
    return np.moveaxis(amp * np.cos(freq * t + phase), 0, -1)


def displacement(spec: TrajectorySpec, t) -> np.ndarray:
    """Integral of v from 0 to t, per axis; broadcasts like :func:`velocity`."""
    t = np.asarray(t, dtype=float)
    amp, freq, phase = _per_axis(spec, t)
    still = freq == 0.0
    wave = (amp / np.where(still, 1.0, freq)
            * (np.sin(freq * t + phase) - np.sin(phase)))
    return np.moveaxis(np.where(still, amp * np.cos(phase) * t, wave), 0, -1)


def horizontal_motion(spec: TrajectorySpec, t,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal displacement from 0 and acceleration at ``t``.

    The first two axes of :func:`displacement` and :func:`velocity_dot`,
    from one sine per axis, each of shape ``(2,) + t.shape``: the axis comes
    first, so each axis runs along ``t``.
    """
    t = np.asarray(t, dtype=float)
    amp, freq, phase = (a[:2] for a in _per_axis(spec, t))
    still = freq == 0.0
    wave = np.sin(freq * t + phase)
    # a still axis has wave == sin(phase) and moves at amp cos(phase)
    p = (amp / np.where(still, 1.0, freq) * (wave - np.sin(phase))
         + np.where(still, amp * np.cos(phase), 0.0) * t)
    return p, -amp * freq * wave


def velocity_dot(spec: TrajectorySpec, t) -> np.ndarray:
    """Inertial acceleration dv/dt."""
    t = np.asarray(t, dtype=float)
    amp, freq, phase = _per_axis(spec, t)
    return np.moveaxis(-amp * freq * np.sin(freq * t + phase), 0, -1)


def altitude(spec: TrajectorySpec, t) -> np.ndarray:
    """Closed-form altitude h(t) = h0 + integral of the vertical velocity."""
    return spec.h0 + displacement(spec, t)[..., 2]


def yaw_angle(spec: TrajectorySpec, t) -> np.ndarray:
    """Closed-form yaw psi(t) = integral of the body-z angular rate."""
    t = np.asarray(t, dtype=float)
    if spec.yaw_freq == 0.0:
        return np.zeros_like(t)
    return (spec.yaw_amp / spec.yaw_freq) * (1.0 - np.cos(spec.yaw_freq * t))


def yaw_rate(spec: TrajectorySpec, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return spec.yaw_amp * np.sin(spec.yaw_freq * t)


def attitude_batch(spec: TrajectorySpec, t: np.ndarray) -> np.ndarray:
    """Truth rotations at all times in ``t``, shape ``t.shape + (3, 3)``."""
    psi = yaw_angle(spec, t)
    c, s = np.cos(psi), np.sin(psi)
    r = np.zeros(np.shape(t) + (3, 3))
    r[..., 0, 0] = c
    r[..., 0, 1] = -s
    r[..., 1, 0] = s
    r[..., 1, 1] = c
    r[..., 2, 2] = 1.0
    return r


def inertial_specific_force(spec: TrajectorySpec, t) -> np.ndarray:
    """R(t) a(t) = dv/dt - g e3, the accelerometer signal seen inertially."""
    w = velocity_dot(spec, t).copy()
    w[..., 2] -= spec.gravity
    return w
