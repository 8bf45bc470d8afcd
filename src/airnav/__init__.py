"""Joint attitude, air-velocity and altitude estimation from IMU, Pitot,
barometer and magnetometer measurements: a Riccati-gain nonlinear observer,
a uniform-observability toolkit, and a reproducible simulation harness."""

from .config import InitSpec, SimConfig, default_config, load_config
from .dynamics import TrajectorySpec
from .harness import (
    MonteCarloSummary,
    RunMetrics,
    init_estimates,
    run_montecarlo,
    run_single,
)
from .observability import (
    gramian,
    observability_verdict,
    pe_margins,
)
from .observer import AirDataObserver, ObserverState, RiccatiWeights
from .sensors import (
    MagReference,
    NoiseSpec,
    ProbeSet,
    RateSpec,
    SensorKind,
    sample_baro,
    sample_imu,
    sample_mag,
    sample_pitot,
)

__version__ = "0.1.0"

__all__ = [
    "AirDataObserver",
    "InitSpec",
    "MagReference",
    "MonteCarloSummary",
    "NoiseSpec",
    "ObserverState",
    "ProbeSet",
    "RateSpec",
    "RiccatiWeights",
    "RunMetrics",
    "SensorKind",
    "SimConfig",
    "TrajectorySpec",
    "default_config",
    "gramian",
    "init_estimates",
    "load_config",
    "observability_verdict",
    "pe_margins",
    "run_montecarlo",
    "run_single",
    "sample_baro",
    "sample_imu",
    "sample_mag",
    "sample_pitot",
]
