import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import airnav


def test_every_exported_name_resolves():
    missing = [name for name in airnav.__all__ if not hasattr(airnav, name)]
    assert missing == []


# Validation code kept in tests/oracles.py, and names deleted outright.
ORACLE_NAMES = (
    "BodyInputs", "ErrorState", "MissingPayloadError", "NavState",
    "NotSkewSymmetricError",
    "E3", "OutOfRangeError", "ScheduleSlot",
    "_batch_skew", "_check_time", "_subset_in_stack_order", "additive_weight",
    "attitude", "cre_rhs", "error_state", "integrate_cre", "integrate_phi",
    "make_schedule", "output_matrix", "propagate_truth", "quat_to_rot",
    "residual", "riccati_predict", "rot_from_small_angle", "rot_to_quat",
    "rotation_defect", "small_angle", "state_matrix_ct", "state_matrix_dt", "truth_inputs",
    "truth_state", "unskew",
)
DELETED_NAMES = ("E1", "E2", "TransitionBlocks", "TrajectoryKind",
                 "write_trace_csv", "_run_pooled", "_become_pool_worker",
                 "_pool_worker", "_spare_cpu", "_worker_count", "_evaluate",
                 "DEFAULT_QUAD_STEP", "_HALF", "_grid", "_cumulative_simpson",
                 "_integrated_force", "_simpson_weights", "_half_window",
                 "_half", "_compose", "_window", "_plan", "is_rotation",
                 "GramianReport")


def test_dense_forms_are_not_exported():
    assert not {"output_matrix", "riccati_predict", "riccati_update",
                "state_matrix_dt", "TrajectoryKind"} & set(airnav.__all__)


def _after_import(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter after ``import airnav,
    airnav.cli``, with ``src/`` and ``tests/`` on the path."""
    src = Path(airnav.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), str(tests), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, airnav, airnav.cli; " + code],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the package runs on numpy alone
    assert _after_import(
        "print(sorted(m for m in sys.modules if m.split('.')[0] == "
        "'scipy'))") == "[]"


def test_import_loads_no_numpy_polynomial():
    # the observability rule computes its nodes on first use, not on import
    assert _after_import(
        "print('numpy.polynomial' in sys.modules)") == "False"


def test_batch_loads_no_process_pool():
    # a batch forks its workers through airnav._fork; two CPUs are shown to
    # it, so it forks wherever fork exists
    assert _after_import(
        "from airnav import _fork, config, harness; "
        "_fork.cpu_count = lambda: 2; "
        "harness.run_montecarlo(config.parse_config_text("
        "'duration = 2\\nruns = 2\\n')); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))") == "[]"


def test_package_carries_no_oracle_code():
    names = ORACLE_NAMES + DELETED_NAMES
    found = _after_import(
        f"names = {names!r}; "
        "mods = [m for k, m in sys.modules.items() "
        "if k.split('.')[0] == 'airnav']; "
        "print(sorted(f'{m.__name__}.{n}' for m in mods for n in names "
        "if hasattr(m, n)), 'oracles' in sys.modules)")
    assert found == "[] False"
    assert not hasattr(airnav.RunMetrics, "metric")
    assert not hasattr(airnav.AirDataObserver, "tick")
    assert not hasattr(airnav.ObserverState, "validate")


def test_one_copy_of_the_run_length_and_the_reference_setup():
    # SimConfig.duration is the run length; config._DEFAULTS holds the
    # reference rates and noise
    assert "duration" not in {
        f.name for f in dataclasses.fields(airnav.TrajectorySpec)}
    assert "sensors" not in inspect.signature(
        airnav.observability_verdict).parameters
    for spec in (airnav.RateSpec, airnav.NoiseSpec):
        assert all(f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING
                   for f in dataclasses.fields(spec)), spec


def test_sensor_specs_carry_no_test_only_knobs():
    assert not hasattr(airnav.NoiseSpec, "noiseless")
    assert "allow_collinear" not in {
        f.name for f in dataclasses.fields(airnav.MagReference)}


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ count as used
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    # no linter is a dependency; __init__.py imports exist to re-export
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src").rglob("*.py")) + sorted(
        (root / "tests").glob("*.py"))
    unused = [entry for path in files if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []
