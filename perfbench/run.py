"""Benchmark of the airnav CLI on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_reference --seed 1 \
        --seconds 20 --trace 0

One run: set-up probes, then one fresh worker process (worker.py) that
calls ``airnav.cli.main`` repeatedly for ``--seconds`` seconds, then the
output checks (checks.py), untimed.  ``--trace 1`` runs every other call
under the span tracer (tracer.py) and reports per-layer metrics instead of
end-to-end ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric by name and unit, the checks and the environment.  Details go
to ``perfbench/.work/<workload>/result.json``.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the benchmark cannot run
(no ``src/airnav`` beside it, or the worker crashed).

End-to-end metrics: ``setup_s`` is ``import airnav`` plus ``load_config``
in a fresh process (median of five processes); ``wall_s`` is one
``cli.main`` call including its CSV writes and ``items_per_s`` the observer
ticks (summed over runs) or Gramian windows it completes per second, both
medians over the untraced calls; ``peak_rss_mb`` is the worker's peak
resident memory.  Every time is normalized to the host's nominal speed
(calibrate.py); the report prints the raw median wall time as well.

Workloads (configs in ``configs/``): ``mc_reference``, ``single_dense`` and
``obs_sweep``; BENCHMARK.json says why each exists.  Timed calls use seeds
derived from ``--seed`` (default 14, the paper's base_seed); seeded
workloads also replay the reference seed once, untimed, for the reference
comparison.  ``--tiny`` shortens every trajectory for the benchmark's own
tests and skips the reference comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S
from workloads import (
    GRAMIAN_WINDOW,
    HERE,
    MIN_REPS,
    REFERENCE_DIR,
    ROOT,
    SRC,
    TINY_DURATION,
    WORK_DIR,
    WORKLOADS,
)

SETUP_PROBES = 4        # plus the worker's own set-up: five samples
WORKER_TIMEOUT = 170.0  # seconds, measured from the start of this run

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("observer.tick.calls", "count", "ticks per CLI call"),
    ("observer.tick.us_per_call", "us", "items_per_s, filter workloads"),
    ("observer.tick.self_us_per_call", "us",
     "items_per_s, mc_reference (AB2 step, _check_floor)"),
    ("observer.state_matrix_dt.us_per_call", "us",
     "items_per_s, mc_reference"),
    ("observer.riccati_predict.us_per_call", "us",
     "items_per_s, mc_reference"),
    ("observer.riccati_update.pitot.calls", "count", "mc_reference"),
    ("observer.riccati_update.pitot.us_per_call", "us",
     "items_per_s, mc_reference"),
    ("observer.riccati_update.mag.calls", "count", "mc_reference"),
    ("observer.riccati_update.mag.us_per_call", "us",
     "items_per_s, mc_reference"),
    ("observer.riccati_update.baro.calls", "count", "mc_reference"),
    ("observer.riccati_update.baro.us_per_call", "us",
     "items_per_s, mc_reference"),
    ("observer.riccati_update.stacked.calls", "count", "single_dense"),
    ("observer.riccati_update.stacked.us_per_call", "us",
     "items_per_s, single_dense"),
    ("observer.output_matrix.us_per_call", "us", "items_per_s, single_dense"),
    ("observer.residual.us_per_call", "us", "items_per_s, single_dense"),
    ("observer.innovation_from_gain.us_per_call", "us",
     "items_per_s, single_dense"),
    ("observer.observer_step_state.us_per_call", "us",
     "items_per_s, single_dense"),
    ("observer.riccati.flops_computed", "flop",
     "none: computed from matrix shapes, per CLI call"),
    ("observer.riccati.gflop_per_s", "GFLOP/s",
     "items_per_s, filter workloads"),
    ("observer.err_att_final_p50", "1", "none: accuracy guard"),
    ("observer.err_v_body_final_p50", "m/s", "none: accuracy guard"),
    ("sensors.make_schedule.s_per_call", "s",
     "items_per_s and peak_rss_mb, mc_reference"),
    ("sensors.sample_imu.calls", "count", "filter workloads"),
    ("sensors.sample_imu.us_per_call", "us", "items_per_s, filter workloads"),
    ("sensors.sample_pitot.calls", "count", "filter workloads"),
    ("sensors.sample_pitot.us_per_call", "us",
     "items_per_s, filter workloads"),
    ("sensors.sample_mag.calls", "count", "filter workloads"),
    ("sensors.sample_mag.us_per_call", "us", "items_per_s, filter workloads"),
    ("sensors.sample_baro.calls", "count", "filter workloads"),
    ("sensors.sample_baro.us_per_call", "us", "items_per_s, filter workloads"),
    ("sensors.substream.calls", "count", "filter workloads"),
    ("dynamics.attitude_batch.self_s", "s",
     "wall_s, mc_reference and obs_sweep"),
    ("dynamics.inertial_specific_force.self_s", "s",
     "wall_s, mc_reference and obs_sweep"),
    ("geometry.exp_so3.calls", "count", "filter workloads"),
    ("geometry.project_to_so3.calls", "count", "filter workloads"),
    ("geometry.reprojection_ratio", "1",
     "wasted work: re-projections per exp"),
    ("harness.init_estimates.us_per_call", "us", "filter workloads"),
    ("harness.run_single.s_per_call", "s", "wall_s, filter workloads"),
    ("harness.run_single.self_s_per_call", "s", "wall_s, filter workloads"),
    ("harness.summarize.s", "s", "wall_s, mc_reference"),
    ("harness.write_trace_csv.s_per_call", "s", "wall_s, mc_reference"),
    ("harness.write_trace_csv.mb_per_s", "MB/s", "wall_s, mc_reference"),
    ("harness.trace_mb", "MB", "wall_s, mc_reference"),
    ("harness.write_summary_csv.s", "s", "wall_s, mc_reference"),
    ("harness.read_trace_csv.s_per_call", "s", "none: check step"),
    ("harness.runs_diverged", "count", "failed runs"),
    ("harness.runs_unconverged", "count", "none: estimator outcome"),
    ("observability.gramian.calls", "count", "obs_sweep"),
    ("observability.gramian.ms_per_call", "ms", "items_per_s, obs_sweep"),
    ("observability.pe_margins.ms_per_call", "ms", "items_per_s, obs_sweep"),
    ("observability.observability_verdict.self_s", "s", "wall_s, obs_sweep"),
    ("harness.write_observability_csv.s", "s", "wall_s, obs_sweep"),
    ("config.load_config.s", "s", "setup_s, every workload"),
    ("cli.main.self_s", "s", "wall_s, every workload"),
    ("trace.spans", "count", "none: spans per CLI call"),
    ("trace.overhead_frac", "1", "none: traced over untraced wall_s, minus 1"),
    ("trace.self_time_coverage", "1",
     "none: sum of self times over traced wall_s"),
)

# Floating-point operations of the dense kernels, counted from shapes.
N_STATE = 7
PREDICT_FLOPS = 2 * 2 * N_STATE**3 + 2 * N_STATE**2   # A P A^T, + S T


def update_flops(r: int, n: int = N_STATE) -> float:
    """riccati_update with an r-row output matrix."""
    return (2 * r * n * n + 2 * r * r * n + 3 * r * r   # S = C P C^T + Q
            + r**3 / 3 + 2 * r * r * n                  # Cholesky, solve
            + 2 * n * r * n + n * n + 2 * n**3          # (I - K C) P
            + 2 * n * n)                                # symmetrize


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=14)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="short trajectories, no reference comparison")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(_blas_threads())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict[str, object]:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": _blas_threads(), "commit": commit}


def _run_worker(args: list[str], result: Path, deadline: float,
                log: Path) -> dict:
    with open(log, "a") as fh:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args,
             "--result", str(result)],
            env=_worker_env(), stdout=fh, stderr=subprocess.STDOUT,
            timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}; "
                           f"see {log}")
    return json.loads(result.read_text())


class Outcome:
    """What the checks found, plus the figures read from the outputs."""

    def __init__(self, reader):
        self.reader = reader
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.items: dict[int, int] = {}       # rep -> ticks or windows
        self.final_err: dict[str, list[float]] = {"err_att": [],
                                                  "err_v_body": []}
        self.runs_diverged = 0
        self.runs_unconverged = 0
        self.traces_identical: bool | None = None
        self.trace_bytes: list[int] = []

    def fail(self, runs: int, message: str) -> None:
        self.failed += runs
        self.errors.append(message)


def check_outputs(workload, config, result: dict, tiny: bool) -> Outcome:
    import checks
    from airnav.harness import read_trace_csv

    out = Outcome(checks.TraceReader(read_trace_csv))
    reader = out.reader
    runs = config.runs if workload.command == "montecarlo" else 1
    duration, f_imu = config.duration, config.rates.f_imu
    reference = None
    if not tiny:
        try:
            reference = checks.load_reference(
                REFERENCE_DIR / f"{workload.name}.json")
        except OSError as exc:
            out.fail(0, f"no reference: {exc}")

    for rec in result["reps"]:
        rep, rep_dir = rec["rep"], Path(rec["out"])
        out.attempted += runs
        if rec["error"] is not None or rec["rc"] != 0:
            out.fail(runs, f"rep {rep}: exit {rec['rc']} {rec['error'] or ''}")
            if rec["rc"] == 3:   # the CLI's exit code for a diverged run
                out.runs_diverged += _divergences(rep_dir, runs)
            continue
        try:
            if workload.command == "observability":
                out.items[rep] = checks.check_observability(
                    rep_dir / "observability.csv", duration, GRAMIAN_WINDOW)
                if reference is not None:
                    identical = checks.compare_reference(rep_dir, reference)
                    out.traces_identical = (identical and out.traces_identical
                                            is not False)
                continue
            traces = []
            for k in range(runs):
                path = rep_dir / f"run_{k:03d}.csv"
                cols = reader(path)
                checks.check_trace(cols, path.name, duration, f_imu)
                traces.append(cols)
                out.trace_bytes.append(path.stat().st_size)
            if workload.command == "montecarlo":
                checks.check_summary(
                    checks.parse_summary(rep_dir / "summary.csv"), traces,
                    duration)
        except checks.CheckError as exc:
            out.fail(runs, f"rep {rep}: {exc}")
            continue
        out.items[rep] = sum(c["t"].shape[0] - 1 for c in traces)
        for cols in traces:
            out.runs_unconverged += not checks.converged(cols, duration)
            if rep < MIN_REPS:  # so the same calls count in every run
                for key in out.final_err:
                    out.final_err[key].append(
                        checks.final_mean(cols, key, duration))

    replay = result.get("replay")
    if replay is not None and reference is not None:
        out.attempted += runs
        rep_dir = Path(replay["out"])
        try:
            if replay["error"] is not None or replay["rc"] != 0:
                raise checks.CheckError(
                    f"exit {replay['rc']} {replay['error'] or ''}")
            out.traces_identical = checks.compare_reference(rep_dir,
                                                            reference)
            if workload.command == "montecarlo":
                gates = checks.criterion_1(
                    checks.parse_summary(rep_dir / "summary.csv"), runs)
                if gates:
                    raise checks.CheckError("criterion 1: " + "; ".join(gates))
            else:
                cols = reader(rep_dir / "run_000.csv")
                if not checks.converged(cols, duration):
                    raise checks.CheckError("reference run did not converge")
        except checks.CheckError as exc:
            out.fail(runs, f"reference seed: {exc}")
    return out


def _divergences(rep_dir: Path, runs: int) -> int:
    import checks
    if runs == 1:
        return 1
    try:
        return int(checks.parse_summary(rep_dir / "summary.csv")[
            ("divergences", "", "")])
    except (checks.CheckError, KeyError):
        return runs


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def normalized(seconds: float, cal_s: float) -> float:
    """``seconds`` scaled to the host's nominal speed (see calibrate.py)."""
    return seconds * NOMINAL_S / cal_s


def end_to_end(result: dict, outcome: Outcome, setup: list[float]) -> dict:
    untraced = [r for r in result["reps"] if not r["traced"]]
    walls = [normalized(r["wall_s"], r["cal_s"]) for r in untraced]
    rates = [outcome.items[r["rep"]] / w for r, w in zip(untraced, walls)
             if r["rep"] in outcome.items]
    return {"setup_s": (_median(setup), setup),
            "wall_s": (_median(walls), walls),
            "items_per_s": (_median(rates), rates),
            "peak_rss_mb": (result["peak_rss_mb"], [result["peak_rss_mb"]])}


def per_layer(result: dict, outcome: Outcome) -> dict[str, float]:
    trace = result["trace"]
    spans, counts, rows = trace["spans"], trace["counts"], trace["rows"]
    traced = [r for r in result["reps"] if r["traced"]]
    untraced = [r for r in result["reps"] if not r["traced"]]
    n = max(len(traced), 1)
    traced_wall = _median([normalized(r["wall_s"], r["cal_s"])
                           for r in traced])
    m: dict[str, float] = {}

    def calls(label):
        return spans.get(label, {}).get("calls", 0)

    def total(label, key="total_s"):
        return spans.get(label, {}).get(key, 0.0)

    def per_call(label, scale, key="total_s"):
        c = calls(label)
        return total(label, key) / c * scale if c else 0.0

    m["observer.tick.calls"] = calls("observer.tick") / n
    m["observer.tick.us_per_call"] = per_call("observer.tick", 1e6)
    m["observer.tick.self_us_per_call"] = per_call("observer.tick", 1e6,
                                                   "self_s")
    for fn in ("state_matrix_dt", "riccati_predict", "output_matrix",
               "residual", "innovation_from_gain", "observer_step_state"):
        m[f"observer.{fn}.us_per_call"] = per_call(f"observer.{fn}", 1e6)
    flops = calls("observer.riccati_predict") * PREDICT_FLOPS
    kernel_s = total("observer.riccati_predict")
    for kind in ("pitot", "mag", "baro", "stacked"):
        label = f"observer.riccati_update.{kind}"
        m[f"{label}.calls"] = calls(label) / n
        m[f"{label}.us_per_call"] = per_call(label, 1e6)
        if calls(label):
            flops += calls(label) * update_flops(rows[label])
            kernel_s += total(label)
    m["observer.riccati.flops_computed"] = flops / n
    m["observer.riccati.gflop_per_s"] = (flops / kernel_s / 1e9
                                         if kernel_s else 0.0)
    for key in ("err_att", "err_v_body"):
        m[f"observer.{key}_final_p50"] = (
            _median(outcome.final_err[key]) if outcome.final_err[key] else 0.0)

    m["sensors.make_schedule.s_per_call"] = per_call(
        "sensors.make_schedule", 1)
    for kind in ("imu", "pitot", "mag", "baro"):
        label = f"sensors.sample_{kind}"
        m[f"{label}.calls"] = calls(label) / n
        m[f"{label}.us_per_call"] = per_call(label, 1e6)
    m["sensors.substream.calls"] = counts.get("sensors.substream", 0) / n
    for fn in ("attitude_batch", "inertial_specific_force"):
        m[f"dynamics.{fn}.self_s"] = total(f"dynamics.{fn}", "self_s") / n
    exp_calls = counts.get("geometry.exp_so3", 0)
    proj_calls = counts.get("geometry.project_to_so3", 0)
    m["geometry.exp_so3.calls"] = exp_calls / n
    m["geometry.project_to_so3.calls"] = proj_calls / n
    m["geometry.reprojection_ratio"] = (proj_calls / exp_calls
                                        if exp_calls else 0.0)

    m["harness.init_estimates.us_per_call"] = per_call(
        "harness.init_estimates", 1e6)
    m["harness.run_single.s_per_call"] = per_call("harness.run_single", 1)
    m["harness.run_single.self_s_per_call"] = per_call("harness.run_single", 1,
                                                       "self_s")
    m["harness.summarize.s"] = total("harness.summarize") / n
    write_s = per_call("harness.write_trace_csv", 1)
    trace_mb = (statistics.fmean(outcome.trace_bytes) / 1e6
                if outcome.trace_bytes else 0.0)
    m["harness.write_trace_csv.s_per_call"] = write_s
    m["harness.write_trace_csv.mb_per_s"] = (trace_mb / write_s
                                             if write_s else 0.0)
    m["harness.trace_mb"] = trace_mb
    m["harness.write_summary_csv.s"] = total("harness.write_summary_csv") / n
    reader = outcome.reader
    m["harness.read_trace_csv.s_per_call"] = (reader.seconds / reader.calls
                                              if reader.calls else 0.0)
    m["harness.runs_diverged"] = float(outcome.runs_diverged)
    m["harness.runs_unconverged"] = float(outcome.runs_unconverged)

    m["observability.gramian.calls"] = calls("observability.gramian") / n
    m["observability.gramian.ms_per_call"] = per_call("observability.gramian",
                                                      1e3)
    m["observability.pe_margins.ms_per_call"] = per_call(
        "observability.pe_margins", 1e3)
    m["observability.observability_verdict.self_s"] = total(
        "observability.observability_verdict", "self_s") / n
    m["harness.write_observability_csv.s"] = total(
        "harness.write_observability_csv") / n
    m["config.load_config.s"] = per_call("config.load_config", 1)
    m["cli.main.self_s"] = total("cli.main", "self_s") / n
    m["trace.spans"] = trace["span_count"] / n
    untraced_wall = _median([normalized(r["wall_s"], r["cal_s"])
                             for r in untraced])
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    m["trace.self_time_coverage"] = (
        sum(s["self_s"] for s in spans.values())
        / sum(r["wall_s"] for r in traced))
    return m


def main(argv=None) -> int:
    args = _parse_args(argv)
    deadline = time.monotonic() + WORKER_TIMEOUT
    workload = WORKLOADS[args.workload]
    if not (SRC / "airnav" / "__init__.py").is_file():
        print(f"no airnav package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from airnav.config import load_config

    work = WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = workload.config
    if args.tiny:
        config_path = work / "tiny.cfg"
        duration = TINY_DURATION[workload.name]
        config_path.write_text(workload.config.read_text()
                               + f"\nduration = {duration}\n")
    config = load_config(config_path)
    log = work / "worker.log"
    common = ["--workload", workload.name, "--config", str(config_path)]

    setup: list[float] = []
    try:
        if not args.trace:
            for i in range(SETUP_PROBES + 1):   # the first one warms caches
                res = _run_worker(common + ["--setup-only"],
                                  work / f"setup_{i}.json", deadline, log)
                if i:
                    setup.append(normalized(res["setup_s"],
                                            res["setup_cal_s"]))
        result = _run_worker(
            common + ["--out", str(work / "out"), "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--replay", "0" if args.tiny else "1"],
            work / "worker.json", deadline, log)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 2
    setup.append(normalized(result["setup_s"], result["setup_cal_s"]))

    outcome = check_outputs(workload, config, result, args.tiny)
    shutil.rmtree(work / "out", ignore_errors=True)
    env = environment()
    correct = outcome.failed == 0 and not outcome.errors
    if args.trace:
        values = per_layer(result, outcome)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        samples = {}
    else:
        e2e = end_to_end(result, outcome, setup)
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END}
        samples = {name: e2e[name][1] for name, _ in END_TO_END}

    item = "windows" if workload.command == "observability" else "ticks"
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"calls={len(result['reps'])} window_s={result['window_s']:.2f}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in metrics.items():
        line = f"metric {name} = {metric['value']:.6g} {metric['unit']}"
        if len(samples.get(name, ())) > 1:
            q1, _, q3 = statistics.quantiles(samples[name], n=4)
            line += (f" (median of {len(samples[name])}, p25 {q1:.6g}, "
                     f"p75 {q3:.6g})")
        print(line)
    if not args.trace:
        rate = metrics["items_per_s"]["value"]
        print(f"metric {item}_per_s = {rate:.6g} 1/s")
        raw = [r["wall_s"] for r in result["reps"] if not r["traced"]]
        speed = [NOMINAL_S / r["cal_s"] for r in result["reps"]]
        print(f"raw wall_s = {_median(raw):.6g} s (not normalized), "
              f"host speed = {_median(speed):.4g} x nominal")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"metric runs_failed_frac = {failed_frac:.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    if item == "ticks" and not args.trace:
        for key, values in outcome.final_err.items():
            print(f"metric {key}_final_p50 = {_median(values):.6g} "
                  f"(runs {len(values)})")
        print(f"runs_unconverged {outcome.runs_unconverged}")
    print(f"traces_identical {outcome.traces_identical}")
    for name in result.get("trace", {}).get("absent", []):
        print(f"absent {name}")
    for error in outcome.errors:
        print(f"CHECK FAILED {error}")
    (work / "result.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace,
         "env": env, "correct": correct, "errors": outcome.errors,
         "traces_identical": outcome.traces_identical, "metrics": metrics,
         "samples": samples, "worker": result}, indent=1))
    for metric in metrics.values():   # no figure (every call failed)
        if metric["value"] != metric["value"]:
            metric["value"] = None
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
