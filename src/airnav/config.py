"""Simulation configuration: defaults, file parsing, validation.

The config file is UTF-8 text with one ``key = value`` assignment per line.
``#`` starts a comment, blank lines are ignored.  Values are numbers, bare
words (``paper_yaw_only``), bracketed vectors ``[a, b, c]`` or row-major
bracketed matrices ``[[a, b], [c, d]]``.  Unknown keys are rejected.  An
empty file yields the reference simulation setup; ``_DEFAULTS`` lists every
key with its default value, and :func:`default_config` builds that setup.
``_DEFAULTS`` is the only copy of those values: :class:`InitSpec`,
:class:`SimConfig` and the sensors' :class:`~airnav.sensors.RateSpec` and
:class:`~airnav.sensors.NoiseSpec` have no field defaults and are built
from it.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TrajectorySpec
from .exceptions import ConfigParseError, ConfigValidationError, RateMismatchError
from .observer import INTEGRATORS, Q_CONVENTIONS, RiccatiWeights
from .sensors import MagReference, NoiseSpec, ProbeSet, RateSpec


@dataclass(frozen=True, eq=False)
class InitSpec:
    """Distribution of the randomized initial estimates."""

    va0: np.ndarray
    h0: float
    angles0: np.ndarray
    std_v: float
    std_h: float
    std_angle: float

    def __post_init__(self):
        for name in ("va0", "angles0"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (3,):
                raise ConfigValidationError(f"{name} must be a 3-vector")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if min(self.std_v, self.std_h, self.std_angle) < 0.0:
            raise ConfigValidationError(
                "initial-estimate standard deviations must be non-negative")


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Full experiment description (trajectory, sensors, tuning, protocol)."""

    trajectory: TrajectorySpec
    probes: ProbeSet
    mag_ref: MagReference
    rates: RateSpec
    noise: NoiseSpec
    weights: RiccatiWeights
    init: InitSpec
    runs: int
    base_seed: int
    duration: float
    q_convention: str
    integrator: str

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigValidationError("runs must be at least 1")
        # run indices, like tick indices, must fit in an array index
        if self.runs > np.iinfo(np.intp).max:
            raise ConfigValidationError(
                "runs exceeds the largest array index")
        if self.base_seed < 0:
            raise ConfigValidationError("base_seed must be non-negative")
        if self.duration <= 0.0:
            raise ConfigValidationError("duration must be positive")
        # floor(duration * f_imu) + 1 ticks must fit in an array index
        if not self.duration * self.rates.f_imu < np.iinfo(np.intp).max:
            raise ConfigValidationError(
                "duration * f_imu exceeds the largest array index")
        if self.q_convention not in Q_CONVENTIONS:
            raise ConfigValidationError(
                f"q_convention must be one of {Q_CONVENTIONS}")
        if self.integrator not in INTEGRATORS:
            raise ConfigValidationError(
                f"integrator must be one of {tuple(INTEGRATORS)}")
        if self.noise.sigma_p.shape[0] != self.probes.m:
            raise ConfigValidationError(
                "sigma_pitot length must match the probe count")
        if self.weights.Qp.shape != (self.probes.m, self.probes.m):
            raise ConfigValidationError(
                "Qp dimension must match the probe count")

    @property
    def gravity(self) -> float:
        return self.trajectory.gravity

    @property
    def imu_period(self) -> float:
        return 1.0 / self.rates.f_imu


_DEFAULTS: dict[str, object] = {
    "trajectory": "paper_yaw_only",
    "duration": 60.0,
    "gravity": 9.81,
    "runs": 20,
    "base_seed": 14,
    "q_convention": "covariance",
    "integrator": "ab2",
    "f_imu": 200.0,
    "f_pitot": 50.0,
    "f_mag": 50.0,
    "f_baro": 5.0,
    "sigma_gyro": 0.05,
    "sigma_acc": 0.05,
    "sigma_pitot": [0.5],
    "sigma_mag": [0.01, 0.01, 0.01],
    "sigma_baro": 0.05,
    "probes": [[1.0, 0.0, 0.0]],
    "mag_reference": [1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0)],
    "q_scale": 100.0,
    "q_pitot": None,
    "q_mag": None,
    "q_baro": None,
    "s_att": 0.01,
    "s_vel": 0.1,
    "s_h": 0.01,
    "p0_att": 0.1,
    "p0_vel": 0.25,
    "p0_h": 1.0,
    "init_va": [10.0, -2.0, 8.0],
    "init_h": 10.0,
    "init_angles": [np.pi / 20.0, -np.pi / 20.0, np.pi / 6.0],
    "init_std_v": 2.0,
    "init_std_h": 1.0,
    "init_std_angle": np.pi / 12.0,
}

_STRING_KEYS = {"trajectory", "q_convention", "integrator"}
_INT_KEYS = {"runs", "base_seed"}


def _parse_value(token: str, line_no: int):
    token = token.strip()
    if not token:
        raise ConfigParseError("missing value", line_no)
    if token.startswith("["):
        try:
            value = ast.literal_eval(token)
        except (ValueError, SyntaxError):
            raise ConfigParseError(f"malformed vector/matrix {token!r}",
                                   line_no) from None
        _check_finite(value, token, line_no)
        return value
    try:
        value = float(token)
    except ValueError:
        if token.replace("_", "").isalnum():
            return token
        raise ConfigParseError(f"malformed value {token!r}", line_no) from None
    _check_finite(value, token, line_no)
    return value


def _check_finite(value, token: str, line_no: int) -> None:
    """Reject NaN, infinities and numbers beyond the float range."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_finite(item, token, line_no)
    elif isinstance(value, (int, float)):
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigParseError(f"non-finite number in {token!r}", line_no)


def parse_config_text(text: str) -> SimConfig:
    """Parse config-file content into a validated :class:`SimConfig`."""
    values = dict(_DEFAULTS)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError("expected 'key = value'", line_no)
        key, _, token = line.partition("=")
        key = key.strip()
        if key not in values:
            raise ConfigParseError(f"unknown key {key!r}", line_no)
        value = _parse_value(token, line_no)
        if key in _STRING_KEYS:
            if not isinstance(value, str):
                raise ConfigParseError(f"{key} expects a bare word", line_no)
        elif isinstance(value, str):
            raise ConfigParseError(f"{key} expects a numeric value", line_no)
        if key in _INT_KEYS:
            if not isinstance(value, float) or value != int(value):
                raise ConfigParseError(f"{key} expects an integer", line_no)
            value = int(value)
        values[key] = value
    return build_config(values)


def load_config(path) -> SimConfig:
    """Read and parse a config file.

    Raises
    ------
    ConfigParseError
        When the file cannot be opened or decoded as UTF-8, or on syntax
        errors or unknown keys (message carries the line number).
    ConfigValidationError
        When a parsed value violates an invariant.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text)


def default_config() -> SimConfig:
    """The reference simulation setup (equivalent to an empty config file)."""
    return build_config(dict(_DEFAULTS))


def build_config(values: dict) -> SimConfig:
    """Assemble and validate a :class:`SimConfig` from a flat key dict."""
    try:
        with np.errstate(over="raise"):
            return _assemble(values)
    except ConfigValidationError:
        raise
    except (ValueError, TypeError, ArithmeticError,
            RateMismatchError) as exc:
        raise ConfigValidationError(str(exc)) from exc


def _assemble(values: dict) -> SimConfig:
    gravity = float(values["gravity"])
    kind = str(values["trajectory"])
    if kind == "paper_yaw_only":
        trajectory = TrajectorySpec.paper(gravity=gravity)
    elif kind == "hover":
        trajectory = TrajectorySpec.hover(gravity=gravity)
    else:
        raise ConfigValidationError(
            f"trajectory must be paper_yaw_only or hover, got {kind!r}")
    probes = ProbeSet.from_axes(values["probes"])
    mag_ref = MagReference(m_I=np.array(values["mag_reference"],
                                        dtype=float))
    rates = RateSpec(f_imu=float(values["f_imu"]),
                     f_pitot=float(values["f_pitot"]),
                     f_mag=float(values["f_mag"]),
                     f_baro=float(values["f_baro"]))
    sigma_p = np.atleast_1d(np.array(values["sigma_pitot"], dtype=float))
    sigma_m = np.array(values["sigma_mag"], dtype=float)
    noise = NoiseSpec(sigma_gyro=float(values["sigma_gyro"]),
                      sigma_acc=float(values["sigma_acc"]),
                      sigma_p=sigma_p, sigma_m=sigma_m,
                      sigma_b=float(values["sigma_baro"]))
    q_scale = float(values["q_scale"])
    qp = (np.array(values["q_pitot"], dtype=float)
          if values["q_pitot"] is not None
          else q_scale * np.diag(sigma_p**2))
    qm = (np.array(values["q_mag"], dtype=float)
          if values["q_mag"] is not None
          else q_scale * np.diag(sigma_m**2))
    qb = (float(values["q_baro"]) if values["q_baro"] is not None
          else q_scale * float(values["sigma_baro"])**2)
    s = np.diag([float(values["s_att"])] * 3 + [float(values["s_vel"])] * 3
                + [float(values["s_h"])])
    p0 = np.diag([float(values["p0_att"])] * 3
                 + [float(values["p0_vel"])] * 3
                 + [float(values["p0_h"])])
    weights = RiccatiWeights(Qp=qp, Qm=qm, Qb=qb, S=s, P0=p0)
    init = InitSpec(va0=np.array(values["init_va"], dtype=float),
                    h0=float(values["init_h"]),
                    angles0=np.array(values["init_angles"], dtype=float),
                    std_v=float(values["init_std_v"]),
                    std_h=float(values["init_std_h"]),
                    std_angle=float(values["init_std_angle"]))
    return SimConfig(trajectory=trajectory, probes=probes,
                     mag_ref=mag_ref, rates=rates, noise=noise,
                     weights=weights, init=init,
                     runs=int(values["runs"]),
                     base_seed=int(values["base_seed"]),
                     duration=float(values["duration"]),
                     q_convention=str(values["q_convention"]),
                     integrator=str(values["integrator"]))

