"""The benchmark's own tests.

Run from the root of a checkout: ``python3 -m pytest perfbench/selftest.py``.
(The file name keeps it out of the package's default test collection.)
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REFERENCE_SEED, ROOT, SRC, WORKLOADS  # noqa: E402

sys.path.insert(0, str(SRC))

from airnav import cli  # noqa: E402
from airnav.harness import read_trace_csv  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} = ")
                   and f" {m['unit']}" in line for line in lines)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "obs_sweep"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def dense_reference_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dense")
    workload = WORKLOADS["single_dense"]
    assert cli.main(workload.argv(workload.config, out, REFERENCE_SEED)) == 0
    return out, checks.load_reference(
        HERE / "reference" / "single_dense.json")


def _edit_row(path: Path, row: int, column: int, value: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[row + 1].rstrip("\n").split(",")
    fields[column] = value
    lines[row + 1] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def test_reference_run_matches_and_is_identical(dense_reference_run):
    out, reference = dense_reference_run
    assert checks.compare_reference(out, reference) is True


@pytest.mark.parametrize("edit", ["sampled_value", "nan", "truncated",
                                  "header"])
def test_check_rejects_corrupted_trace(dense_reference_run, tmp_path, edit):
    out, reference = dense_reference_run
    path = tmp_path / "run_000.csv"
    path.write_bytes((out / "run_000.csv").read_bytes())
    if edit == "sampled_value":      # hat estimate at a referenced row
        row = reference["files"]["run_000.csv"]["index"][5]
        _edit_row(path, row, 4, "0.123")
    elif edit == "nan":
        _edit_row(path, 4321, 12, "nan")
    elif edit == "truncated":
        path.write_text("".join(path.read_text().splitlines(True)[:-10]))
    else:
        text = path.read_text()
        path.write_text(text.replace("roll_hat", "roll_est", 1))
    with pytest.raises(checks.CheckError):
        cols = checks.TraceReader(read_trace_csv)(path)
        checks.check_trace(cols, path.name, 60.0, 200.0)
        checks.compare_reference(tmp_path, reference)


def test_summary_check_rejects_a_trace_that_disagrees(tmp_path):
    config = tmp_path / "short.cfg"
    config.write_text(WORKLOADS["mc_reference"].config.read_text()
                      + "\nduration = 6\n")
    out = tmp_path / "out"
    assert cli.main(["montecarlo", "--config", str(config), "--out",
                     str(out), "--seed", "5"]) == 0
    summary = checks.parse_summary(out / "summary.csv")
    read = checks.TraceReader(read_trace_csv)
    traces = [read(out / f"run_{k:03d}.csv") for k in range(2)]
    checks.check_summary(summary, traces, 6.0)
    _edit_row(out / "run_001.csv", 1150, 17, "0.5")   # err_att at t = 5.75
    traces[1] = read(out / "run_001.csv")
    with pytest.raises(checks.CheckError):
        checks.check_summary(summary, traces, 6.0)


def test_self_time_is_span_time_minus_child_time():
    tracer = Tracer()

    def outer():
        time.sleep(0.01)
        tracer.call("inner", time.sleep, 0.02)

    tracer.call("outer", outer)
    spans = tracer.summary()
    assert spans["inner"]["self_s"] == spans["inner"]["total_s"] >= 0.02
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["total_s"] - spans["inner"]["total_s"])
    assert 0.01 <= spans["outer"]["self_s"] < spans["outer"]["total_s"]


def test_missing_target_is_absent_and_restore_undoes_install():
    import airnav.observer as observer
    original = observer.riccati_update
    tracer = Tracer()
    tracer.install((("airnav.observer", "riccati_update",
                     "observer.riccati_update", "update"),
                    ("airnav.observer", "no_such_function", "x", "span"),
                    ("airnav.no_such_module", "f", "y", "span")))
    assert observer.riccati_update is not original
    assert tracer.absent == ["airnav.observer.no_such_function",
                             "airnav.no_such_module.f"]
    tracer.restore()
    assert observer.riccati_update is original
