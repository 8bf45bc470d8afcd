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
