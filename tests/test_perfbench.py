"""Smoke test of the benchmark's traced runner: a change that breaks the
layer spans (for example a layer function no longer bound where
``perfbench/spans.py`` looks for it) fails here, not only in a benchmark
run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_runner_writes_series_spans(tmp_path):
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "runner.py"),
         "--spans", str(spans_file), "table", "--operator", "A*a",
         "--primes", "3", "--no-cache"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans_file.read_text("utf-8"))["spans"]
    assert any(span[0] == "diffop.solve_series" for span in spans)
