"""Benchmark worker: one workload's airnav CLI calls in a fresh process.

Started by run.py, never by hand.  It imports airnav from the checkout's
``src/``, loads the workload config (that is the set-up it times), then
calls ``airnav.cli.main`` repeatedly until ``--seconds`` have passed, each
call with its own seed and output directory and followed by a run of the
calibration kernel (calibrate.py); a call's ``cal_s`` is the median kernel
time over the runs just before and just after it.  With ``--trace 1`` every
other call runs under the span tracer.  Seeded workloads finish with one
untimed call on the reference seed, whose outputs run.py compares with the
stored reference.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import MIN_REPS, REFERENCE_SEED, SRC, WORKLOADS, rep_seed


def _parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--out", type=Path)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=int, choices=(0, 1), default=1)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _call(main, argv, tracer=None) -> dict:
    """One CLI call; an exception is recorded as a failed call."""
    wall0 = time.perf_counter()
    try:
        if tracer is None:
            rc = main(argv)
        else:
            rc = tracer.call("cli.main", main, argv)
        error = None
    except Exception:  # a crash of one call is a failed run, not a crash here
        rc, error = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - wall0
    return {"rc": rc, "error": error, "wall_s": wall}


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import airnav
    import airnav.cli
    airnav.load_config(args.config)
    setup_s = time.perf_counter() - t0
    airnav_dir = Path(airnav.__file__).resolve().parent
    if airnav_dir != SRC / "airnav":
        print(f"imported airnav from {airnav_dir}, not from {SRC}",
              file=sys.stderr)
        return 2
    import calibrate
    cal = calibrate.kernel_times(3 if args.setup_only else calibrate.REPEATS)
    result = {"setup_s": setup_s, "setup_cal_s": statistics.median(cal)}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    reps = []
    gc.collect()
    start = time.perf_counter()
    while (len(reps) < MIN_REPS
           or time.perf_counter() - start < args.seconds):
        j = len(reps)
        traced = tracer is not None and j % 2 == 1
        seed = rep_seed(args.seed, j)
        out = args.out / f"rep_{j:03d}"
        if traced:
            tracer.install()
        rec = _call(airnav.cli.main, workload.argv(args.config, out, seed),
                    tracer if traced else None)
        if traced:
            tracer.restore()
        gc.collect()
        cal_after = calibrate.kernel_times()
        rec.update(rep=j, seed=seed, out=str(out), traced=traced,
                   cal_s=statistics.median(cal + cal_after),
                   cal_samples=cal + cal_after)
        cal = cal_after
        reps.append(rec)
    result["window_s"] = time.perf_counter() - start
    result["reps"] = reps

    if workload.seeded and args.replay:
        out = args.out / "replay"
        rec = _call(airnav.cli.main,
                    workload.argv(args.config, out, REFERENCE_SEED))
        rec.update(seed=REFERENCE_SEED, out=str(out), traced=False)
        result["replay"] = rec

    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    if tracer is not None:
        result["trace"] = {"spans": tracer.summary(), "counts": tracer.counts,
                           "rows": tracer.rows, "absent": tracer.absent,
                           "span_count": len(tracer.end)}
        tracer.save(args.result.with_name("spans.npz"))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
