"""Output checks, run after the measured window and never timed with it.

Two kinds of check:

* every output of every timed call is well formed and self-consistent:
  traces parse with ``airnav.harness.read_trace_csv``, have one row per IMU
  tick, hold only finite numbers, and agree with ``summary.csv``;
* the outputs on the reference seed match the reference files in
  ``reference/`` field by field within ``RTOL``/``ATOL``.  Byte identity
  with the reference is reported on its own (``traces_identical``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

# A numeric field matches the reference if |x - ref| <= ATOL + RTOL * |ref|.
# This admits float reassociation (relative changes near 1e-15 that the
# contracting observer does not amplify) and rejects any change of the
# algorithm or its inputs.
RTOL = 1e-6
ATOL = 1e-9

# Criterion-1 thresholds on the final-5-s mean errors (tests/test_acceptance).
CONVERGED_ERR_ATT = 0.05
CONVERGED_ERR_V_BODY = 0.5
FINAL_WINDOW = 5.0
SAMPLE_TIMES = (5.0, 15.0, 30.0)


class CheckError(Exception):
    """An output is missing, malformed or wrong."""


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    if not rows:
        raise CheckError(f"{path.name}: empty file")
    return rows[0], rows[1:]


class TraceReader:
    """Reads traces with the package's own reader and times every call."""

    def __init__(self, read_trace_csv):
        self._read = read_trace_csv
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, path: Path) -> dict[str, np.ndarray]:
        t0 = perf_counter()
        try:
            cols = self._read(path)
        except (OSError, ValueError) as exc:
            raise CheckError(f"{path.name}: {exc}") from None
        finally:
            self.seconds += perf_counter() - t0
            self.calls += 1
        return cols


def check_trace(cols: dict[str, np.ndarray], name: str, duration: float,
                f_imu: float) -> None:
    """One row per IMU tick on the exact tick grid, every value finite."""
    n = int(math.floor(duration * f_imu + 1e-9)) + 1
    t = cols["t"]
    if t.shape[0] != n:
        raise CheckError(f"{name}: {t.shape[0]} rows, expected {n}")
    for key, values in cols.items():
        if not np.all(np.isfinite(values)):
            raise CheckError(f"{name}: non-finite value in column {key}")
    if np.max(np.abs(t - np.arange(n) / f_imu)) > 1e-9:
        raise CheckError(f"{name}: t column is not the IMU tick grid")


def final_mean(cols: dict[str, np.ndarray], key: str,
               duration: float) -> float:
    return float(np.mean(cols[key][cols["t"] >= duration - FINAL_WINDOW]))


def converged(cols: dict[str, np.ndarray], duration: float) -> bool:
    return (final_mean(cols, "err_att", duration) <= CONVERGED_ERR_ATT
            and final_mean(cols, "err_v_body", duration)
            <= CONVERGED_ERR_V_BODY)


def parse_summary(path: Path) -> dict[tuple[str, str, str], float]:
    header, rows = read_csv(path)
    if header != ["stat", "metric", "label", "value"]:
        raise CheckError(f"{path.name}: unexpected header")
    try:
        return {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    except (IndexError, ValueError):
        raise CheckError(f"{path.name}: malformed row") from None


def check_summary(summary: dict, traces: list[dict[str, np.ndarray]],
                  duration: float) -> None:
    """summary.csv agrees with the traces it summarises."""
    if summary.get(("runs", "", "")) != len(traces):
        raise CheckError("summary.csv: run count disagrees with the traces")
    if summary.get(("divergences", "", "")) != 0:
        raise CheckError("summary.csv: divergences reported")
    for key in ("err_att", "err_v_body", "err_v_inertial", "err_h"):
        for k, cols in enumerate(traces):
            got = summary.get(("final_mean_5s", key, f"run_{k:03d}"))
            want = final_mean(cols, key, duration)
            if got is None or not _close(got, want, 1e-9, 0.0):
                raise CheckError(f"summary.csv: final_mean_5s {key} run {k} "
                                 f"is {got}, traces give {want}")
        for t in (t for t in SAMPLE_TIMES if t <= duration):
            idx = [int(np.argmin(np.abs(c["t"] - t))) for c in traces]
            want = float(np.median([c[key][i] for c, i in zip(traces, idx)]))
            got = summary.get(("median", key, f"t={t:g}"))
            if got is None or not _close(got, want, 1e-9, 0.0):
                raise CheckError(f"summary.csv: median {key} at t={t:g} is "
                                 f"{got}, traces give {want}")


def criterion_1(summary: dict, runs: int) -> list[str]:
    """Criterion-1 gates of the acceptance suite, read from summary.csv."""
    failures = []
    if summary[("divergences", "", "")] != 0:
        failures.append("divergences")
    ok = sum(
        summary[("final_mean_5s", "err_att", f"run_{k:03d}")]
        <= CONVERGED_ERR_ATT
        and summary[("final_mean_5s", "err_v_body", f"run_{k:03d}")]
        <= CONVERGED_ERR_V_BODY
        for k in range(runs))
    if ok < math.ceil(0.95 * runs):
        failures.append(f"converged {ok}/{runs} < 95%")
    for key in ("err_att", "err_v_body"):
        med = [summary[("median", key, f"t={t:g}")] for t in SAMPLE_TIMES]
        if not med[0] > med[1] > med[2]:
            failures.append(f"median {key} not falling at 5/15/30 s: {med}")
    return failures


def expected_windows(duration: float, delta: float) -> int:
    return int(math.floor((duration - delta) / (delta / 2.0) + 1e-9)) + 1


def check_observability(path: Path, duration: float, delta: float) -> int:
    """Every window present and observable; returns the window count."""
    header, rows = read_csv(path)
    if (header[:2] != ["t_window_start", "lam_min_W"]
            or header[-1] != "verdict"):
        raise CheckError(f"{path.name}: unexpected header")
    n = expected_windows(duration, delta)
    if len(rows) != n:
        raise CheckError(f"{path.name}: {len(rows)} windows, expected {n}")
    if any(r[-1] != "true" for r in rows):
        raise CheckError(f"{path.name}: a window is not observable")
    return n


def _close(x: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(x - ref) <= atol + rtol * abs(ref)


def _field_matches(got: str, want: str) -> bool:
    try:
        x, ref = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(ref):
        return math.isnan(x)
    return _close(x, ref, RTOL, ATOL)


def reference_sample(path: Path, stride: int) -> dict:
    """What a reference file keeps of one output: hash, size, sampled rows."""
    header, rows = read_csv(path)
    index = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    return {"sha256": sha256(path), "rows": len(rows), "header": header,
            "index": index, "sample": [rows[i] for i in index]}


def compare_reference(out_dir: Path, reference: dict) -> bool:
    """Compare every referenced file of ``out_dir`` with the reference.

    Raises CheckError on a mismatch beyond the tolerance; returns whether
    every file is byte-identical to the reference.
    """
    identical = True
    for name, ref in reference["files"].items():
        path = out_dir / name
        header, rows = read_csv(path)
        if header != ref["header"] or len(rows) != ref["rows"]:
            raise CheckError(f"{name}: layout differs from the reference")
        for i, want in zip(ref["index"], ref["sample"]):
            got = rows[i]
            if len(got) != len(want) or not all(
                    _field_matches(g, w) for g, w in zip(got, want)):
                raise CheckError(f"{name}: row {i} differs from the "
                                 f"reference beyond rtol={RTOL} atol={ATOL}")
        identical &= sha256(path) == ref["sha256"]
    return identical


def load_reference(path: Path) -> dict:
    return json.loads(Path(path).read_text())
