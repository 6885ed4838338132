"""Smoke tests of the benchmark's traced runner and of its environment
probe: a change that breaks the layer spans (for example a layer function no
longer bound where ``perfbench/spans.py`` looks for it) or a name the probe
reads fails here, not only in a benchmark run.  Also the record of
``tools/bench_pairs.py`` names the trees it measured, states a
no-regression verdict per metric and adds an A/A run to a claim, and a
``bench_pairs.py`` stopped by SIGTERM leaves no process or directory
behind."""

import ast
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import checkout_env, load_module

ROOT = Path(__file__).resolve().parent.parent


def test_two_traced_commands_record_every_layer(tmp_path):
    # a catalog product (stored square, factor route) and an operator file
    # that is no product (built square, exact runs) between them reach
    # every layer, so a moved call cannot empty a per-layer metric unseen
    spans_module = load_module(ROOT / "perfbench" / "spans.py")
    recorded = set()
    for i, operator in enumerate(["A*a", str(ROOT / "tests" / "data"
                                             / "aa_pullback.json")]):
        spans_file = tmp_path / f"spans{i}.json"
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "runner.py"),
             "--spans", str(spans_file), "table", "--operator", operator,
             "--primes", "5", "--no-cache"],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env=checkout_env(PYTHONDONTWRITEBYTECODE="1"))
        assert done.returncode == 0, done.stderr
        recorded |= {span[0] for span in
                     json.loads(spans_file.read_text("utf-8"))["spans"]}
    layers = {f"{module}.{name}" for module, name in spans_module.LAYERS}
    assert "diffop.solve_series" in layers
    assert layers - recorded == set()


def test_environment_probe_runs(tmp_path):
    # PROBE is read from run.py's source, so run.py itself is not imported
    pytest.importorskip("numpy")
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text("utf-8"))
    probe, = (node.value.value for node in tree.body
              if isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "PROBE"
                      for target in node.targets))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=tmp_path, timeout=60,
                          env=checkout_env(PYTHONDONTWRITEBYTECODE="1"))
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert Path(report["frobcy_file"]).resolve().parent == ROOT / "src" / "frobcy"


@pytest.fixture(scope="module")
def bench_pairs():
    return load_module(ROOT / "tools" / "bench_pairs.py")


def test_bench_pairs_names_the_trees_it_measured(bench_pairs, tmp_path):
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


@pytest.mark.parametrize("better, parent, change, verdict", [
    # within the bound of 0.2, on a parent spread of 0.1 / 1.0
    ("lower", [0.95, 1.0, 1.05], [1.1, 1.15, 1.19], "ok"),
    ("lower", [0.95, 1.0, 1.05], [1.2, 1.25, 1.3], "regressed"),
    ("higher", [0.95, 1.0, 1.05], [0.7, 0.75, 0.8], "regressed"),
    ("higher", [0.95, 1.0, 1.05], [1.2, 1.3, 1.4], "ok"),
    # a parent spread of 0.4 / 1.0, wider than the bound
    ("lower", [0.6, 1.0, 1.4], [0.9, 1.0, 1.1], "unresolved"),
    ("lower", [0.6, 1.0, 1.4], [0.5, 0.55, 0.58], "ok"),  # beats every run
    ("higher", [0.6, 1.0, 1.4], [1.5, 1.6, 1.7], "ok"),
    ("higher", [0.6, 1.0, 1.4], [1.0, 1.5, 2.0], "unresolved"),
    ("lower", [0.6, 1.0, 1.4], [1.3, 1.5, 1.6], "regressed"),
])
def test_bench_pairs_verdict(bench_pairs, better, parent, change, verdict):
    def runs(side, values):
        return [{"side": side, "pair": i, "record": {"perfbench": {
                    "stdout_sha256": "same"}},
                 "result": {"correct": True, "failed": 0,
                            "metrics": {"wall_s": {"value": v}}}}
                for i, v in enumerate(values)]

    metric = {"name": "wall_s", "better": better, "bound": 0.2}
    summary = bench_pairs._summary(runs("parent", parent) + runs("change", change),
                                   [metric])
    assert summary["metrics"]["wall_s"]["verdict"] == verdict


def test_bench_pairs_claim_adds_an_aa_run(bench_pairs, tmp_path, monkeypatch):
    # synthetic runs that vary with the seed: the change side is 10 %
    # faster, and the parent's two exports time alike, so the claim is met
    # and the A/A run's is not
    spec = {"run_seconds": 1, "workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [{"name": "wall_s", "better": "lower",
                            "bound": 0.2}],
            "per_layer": []}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec), "utf-8")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
        (tree / "marker").write_text(tree.name, "utf-8")
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        side = (tree / "marker").read_text("utf-8")
        calls.append((tree, workload, seed))
        value = (0.9 if side == "change" else 1.0) + (seed * 7 % 5) / 1000
        return {"returncode": 0, "elapsed_s": 0.0,
                "record": {"perfbench": {"stdout_sha256": "same",
                                         "environment": {"src_sha256": side}}},
                "result": {"correct": True, "failed": 0,
                           "metrics": {"wall_s": {"value": value}}}}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    argv = ["--parent", str(parent), "--change", str(change), "--label", "t",
            "--seed-base", "100"]
    assert bench_pairs.main(argv + ["--claim", "w2:wall_s"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text("utf-8"))
    assert record["claim_met"] is True
    aa = record["aa_run"]
    assert aa["metric"] == "wall_s" and aa["claim_met"] is False
    assert (aa["change_wins"], aa["median_change_frac"]) == ("0/10", 0)
    assert aa["parent_iqr"] > 0
    # the A/A runs: w2 only, seeds 150-161, the parent and a copy of it
    aa_calls = [c for c in calls if c[2] >= 150]
    assert len(aa_calls) == len(aa["runs"]) == 24
    assert {c[1] for c in aa_calls} == {"w2"}
    assert {c[2] for c in aa_calls} == set(range(150, 162))
    trees = {c[0] for c in aa_calls}
    assert parent in trees and len(trees) == 2 and change not in trees
    calls.clear()
    assert bench_pairs.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text("utf-8"))
    assert record["aa_run"] is None and max(c[2] for c in calls) == 111


def _ended(pid: int) -> bool:
    """No process has the pid, or a zombie has it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text("utf-8")
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def test_bench_pairs_stops_cleanly_on_sigterm(tmp_path):
    # each side's perfbench/run.py starts one sleeping child, writes both
    # pids and never prints a result, so its run is going when SIGTERM comes
    sleep = "import time; time.sleep(300)"
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            "import os, pathlib, subprocess, sys\n"
            f"child = subprocess.Popen([sys.executable, '-c', {sleep!r}])\n"
            "pathlib.Path('pids.tmp').write_text(f'{os.getpid()} {child.pid}')\n"
            f"os.replace('pids.tmp', '../pids')\n{sleep}\n", "utf-8")
    bench = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--label", "x",
         "--parent", str(tmp_path / "parent"), "--change",
         str(tmp_path / "change"), "--seed-base", "0"],
        env=checkout_env(TMPDIR=str(tmp_path)))
    pids, pid_file = [], tmp_path / "pids"
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert bench.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        pids = [int(word) for word in pid_file.read_text("utf-8").split()]
        bench.send_signal(signal.SIGTERM)
        assert bench.wait(timeout=60) != 0
        deadline = time.monotonic() + 10
        while not all(map(_ended, pids)):
            assert time.monotonic() < deadline, pids
            time.sleep(0.05)
        assert list(tmp_path.glob("bench-pairs-*")) == []
    finally:
        bench.kill()
        bench.wait()
        for pid in pids:
            if not _ended(pid):
                os.kill(pid, signal.SIGKILL)
