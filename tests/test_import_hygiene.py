"""Every process entry point starts without loading scipy.

scipy is a test-only dependency: the runtime needs numpy alone.  Each
console script in ``pyproject.toml`` ``[project.scripts]``, and the spawn
pool worker's entry point, is imported in a fresh interpreter, which must
not end with ``scipy`` in ``sys.modules``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
#: The spawn pool worker imports this module before its first job.
POOL_WORKER = "repro.exec.pool"


def script_modules() -> list[str]:
    """Modules named by the ``[project.scripts]`` table, in file order."""
    text = PYPROJECT.read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                      re.MULTILINE | re.DOTALL)
    return re.findall(r'^[\w-]+\s*=\s*"([\w.]+):\w+"', table.group(1),
                      re.MULTILINE)


def test_script_table_is_read():
    """Guards the parametrization below against an empty table."""
    modules = script_modules()
    assert "repro.experiments.runner" in modules
    assert "repro.serve.app" in modules


@pytest.mark.parametrize("module", [*script_modules(), POOL_WORKER])
def test_entry_point_imports_without_scipy(module):
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path if path else src)
    code = (f"import sys, {module}; "
            "sys.exit(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy') or 0)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
