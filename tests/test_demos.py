"""Every demo in ``demos/`` runs to completion on the checkout under test.

Each script runs in a fresh process on the checkout under test, with
``FROBCY_CACHE_DIR`` in a temporary directory, so no demo reads or writes
the user's cache.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    env = checkout_env(FROBCY_CACHE_DIR=str(tmp_path / "cache"))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
