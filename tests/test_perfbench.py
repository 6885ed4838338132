"""Smoke tests of the benchmark's traced runner and of its environment
probe: a change that breaks the layer spans (for example a layer function no
longer bound where ``perfbench/spans.py`` looks for it) or a name the probe
reads fails here, not only in a benchmark run.  Also the record of
``tools/bench_pairs.py`` names the trees it measured."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """The environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_traced_runner_writes_series_spans(tmp_path):
    spans_file = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "runner.py"),
         "--spans", str(spans_file), "table", "--operator", "A*a",
         "--primes", "3", "--no-cache"],
        capture_output=True, text=True, env=src_env(), cwd=tmp_path,
        timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans_file.read_text("utf-8"))["spans"]
    assert any(span[0] == "diffop.solve_series" for span in spans)


def test_environment_probe_runs(tmp_path):
    # PROBE is read from run.py's source, so run.py itself is not imported
    pytest.importorskip("numpy")
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text("utf-8"))
    probe, = (node.value.value for node in tree.body
              if isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "PROBE"
                      for target in node.targets))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=src_env(), cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert Path(report["frobcy_file"]).resolve().parent == ROOT / "src" / "frobcy"


def test_bench_pairs_names_the_trees_it_measured(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    specs = {"parent": str(tmp_path), "change": str(ROOT)}

    def run(side, digest):
        env = {"src_sha256": digest, "git_rev": "not the tree measured"}
        return {"side": side, "record": {"perfbench": {"environment": env}}}

    runs = [run("parent", "aa"), run("change", "bb"), run("parent", "aa")]
    assert bench_pairs._sides(specs, runs) == {
        "parent": {"spec": str(tmp_path), "revision": None, "src_sha256": "aa"},
        "change": {"spec": str(ROOT), "revision": None, "src_sha256": "bb"}}
    with pytest.raises(SystemExit, match="change runs report 2 src_sha256"):
        bench_pairs._sides(specs, runs + [run("change", "cc")])
