import ast
import os
import subprocess
import sys
from pathlib import Path

import airnav


def test_every_exported_name_resolves():
    missing = [name for name in airnav.__all__ if not hasattr(airnav, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the package runs on numpy alone
    src = Path(airnav.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, airnav, airnav.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
