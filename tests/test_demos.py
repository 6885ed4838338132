"""Every demo in ``demos/`` runs to completion on the checkout under test.

Each script runs in a fresh process with this checkout's ``src`` first on
PYTHONPATH and ``FROBCY_CACHE_DIR`` in a temporary directory, so no demo
reads or writes the user's cache.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["FROBCY_CACHE_DIR"] = str(tmp_path / "cache")
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
