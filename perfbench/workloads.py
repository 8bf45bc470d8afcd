"""Workload table shared by the benchmark's entry point and its worker."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG_DIR = HERE / "configs"
REFERENCE_DIR = HERE / "reference"
WORK_DIR = HERE / ".work"

# base_seed of the paper's simulation study; the reference outputs use it.
REFERENCE_SEED = 14

# Timed CLI calls made in every run, however short --seconds is.
MIN_REPS = 3

# Gramian window length of the observability workload, in seconds.
GRAMIAN_WINDOW = 4.0

# Trajectory length of a --tiny run (the benchmark's self-test), per workload.
TINY_DURATION = {"mc_reference": 2.0, "single_dense": 2.0, "obs_sweep": 12.0}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str    # airnav subcommand
    seeded: bool    # whether the subcommand takes --seed

    @property
    def config(self) -> Path:
        return CONFIG_DIR / f"{self.name}.cfg"

    def argv(self, config: Path, out_dir: Path, seed: int) -> list[str]:
        argv = [self.command, "--config", str(config), "--out", str(out_dir)]
        if self.seeded:
            argv += ["--seed", str(seed)]
        else:
            argv += ["--window", str(GRAMIAN_WINDOW)]
        return argv


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("mc_reference", "montecarlo", True),
    Workload("single_dense", "simulate", True),
    Workload("obs_sweep", "observability", False),
)}


def rep_seed(seed: int, rep: int) -> int:
    """base_seed of timed repetition ``rep`` of a run seeded with ``seed``."""
    return 1000 * seed + rep
