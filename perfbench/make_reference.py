"""Regenerate the reference outputs in ``reference/``.

Run from the root of a checkout: ``python3 perfbench/make_reference.py``.
For each workload it calls the airnav CLI on the reference seed and keeps,
per output file, its sha256, row count, header and a sample of rows: every
``TRACE_STRIDE``-th row of a trace (plus the last), every row of the
summary and observability tables.  Only rerun this when a change to the
program is meant to change its outputs, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import reference_sample
from workloads import REFERENCE_DIR, REFERENCE_SEED, SRC, WORK_DIR, WORKLOADS

TRACE_STRIDE = 300


def main() -> int:
    sys.path.insert(0, str(SRC))
    from airnav import cli
    from airnav.config import load_config

    for workload in WORKLOADS.values():
        out = WORK_DIR / "reference" / workload.name
        shutil.rmtree(out, ignore_errors=True)
        rc = cli.main(workload.argv(workload.config, out, REFERENCE_SEED))
        if rc != 0:
            print(f"{workload.name}: airnav exited with {rc}", file=sys.stderr)
            return 1
        config = load_config(workload.config)
        if workload.command == "observability":
            names = ["observability.csv"]
        else:
            runs = config.runs if workload.command == "montecarlo" else 1
            names = [f"run_{k:03d}.csv" for k in range(runs)]
            if workload.command == "montecarlo":
                names.append("summary.csv")
        files = {name: reference_sample(
                     out / name,
                     TRACE_STRIDE if name.startswith("run_") else 1)
                 for name in names}
        reference = {"workload": workload.name,
                     "seed": REFERENCE_SEED if workload.seeded else None,
                     "files": files}
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(reference, indent=0) + "\n")
        shutil.rmtree(out)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
