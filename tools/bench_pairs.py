"""Paired benchmark record: a parent tree against a changed tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --change . \\
        --label pr15_residue_phase --seed-base 1500 --claim table_deep:wall_s

Each side runs ``perfbench/run.py`` from its own tree, so each side times
its own sources.  A side that names a directory is used as it is (``.`` is
the working tree); any other value is a git revision of this repository,
exported with ``git archive`` into a temporary directory.

The protocol, per workload of ``BENCHMARK.json``:

- one untimed pair (seed ``--seed-base``, listed with pair -1);
- ten pairs with ``--trace 0`` and seeds ``--seed-base + 1`` on, one seed
  per pair, alternating which side runs first (pair 0: the parent);
- one pair with ``--trace 1`` (the next seed, parent first).

Every end-to-end metric is summarised per side by its median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``) together with the
number of pairs the change wins.  A claim ``WORKLOAD:METRIC`` is met when
every run is correct, no more operations fail on the change's side than on
the parent's, the change wins at least nine of the ten pairs, and the
medians differ, in the better direction, by more than the parent's
interquartile range.  Each end-to-end metric also gets a no-regression
``verdict`` against its ``bound`` of ``BENCHMARK.json``, a fraction of the
parent's median: ``regressed`` when the change's median is worse than the
parent's by more than the bound, else ``unresolved`` when the parent's
interquartile range is wider than the bound, unless every change run beats
every parent run, else ``ok``.  The record's ``regressions`` lists every
``WORKLOAD:METRIC`` that regressed.  The traced pair gives each per-layer
metric once per side.

With ``--claim``, the record also holds ``aa_run``: the parent against a
second export of itself, on the claimed workload under the same protocol
from seed ``--seed-base + 50``, with the claimed metric's wins, median
change, parent interquartile range and ``claim_met``, and its runs.  It
shows how close noise alone comes to meeting the claim.

Runs last the ``run_seconds`` of ``BENCHMARK.json``.  The record is written
to ``BENCH_<label>.json`` at the root of the repository.  Its ``sides`` entry
names each tree measured: the spec given, the commit it resolves to (null
for a directory) and the ``src_sha256`` its runs reported, which must be one
value per side.  ``--extra``
merges the top-level keys of a JSON file into it, for measurements taken
outside perfbench (full-table wall times, in-process layer timings).

Each ``perfbench/run.py`` runs in a session of its own, and its process
group is killed whenever the run ends, so a run stopped early leaves no
query behind.  SIGTERM raises ``SystemExit``, so the temporary directory is
removed too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
WINS_NEEDED = 9
AA_SEED_OFFSET = 50


def _tree(spec: str, workdir: Path, name: str, copy: bool = False) -> Path:
    """The directory of one side: ``spec`` itself (with ``copy``, a copy of
    it under ``workdir``), or ``git archive`` of the revision ``spec``
    unpacked under ``workdir``."""
    out = workdir / name
    if Path(spec).is_dir():
        if not copy:
            return Path(spec).resolve()
        shutil.copytree(spec, out, ignore=shutil.ignore_patterns(".git"))
        return out
    out.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", spec],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)
    return out


def _revision(spec: str) -> Optional[str]:
    """The commit a revision side names; None for a directory side."""
    if Path(spec).is_dir():
        return None
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", f"{spec}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def _sides(specs: Dict[str, str], runs: List[dict]) -> dict:
    """Each side's spec, its revision and the ``src_sha256`` that all its
    runs reported: what tells the measured trees apart, a directory side
    included.  Runs of one side that disagree on it stop the record."""
    out = {}
    for side, spec in specs.items():
        digests = {r["record"]["perfbench"]["environment"]["src_sha256"]
                   for r in runs if r["side"] == side}
        if len(digests) != 1:
            raise SystemExit(f"bench_pairs: the {side} runs report "
                             f"{len(digests)} src_sha256 values: {sorted(digests)}")
        out[side] = {"spec": spec, "revision": _revision(spec),
                     "src_sha256": digests.pop()}
    return out


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its record, its result and its wall."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    elapsed = time.perf_counter() - t0
    lines = stdout.strip().splitlines()
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} gave no "
                         f"result (exit {proc.returncode}): {stderr.strip()}")
    return {"returncode": proc.returncode, "record": record, "result": result,
            "elapsed_s": elapsed}


def exit_on_sigterm() -> None:
    """Make SIGTERM raise ``SystemExit``, so that ``finally`` blocks and
    context managers clean up before the process ends."""
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def _verdict(entry: dict) -> str:
    """The no-regression verdict of one metric's summary entry: ``regressed``,
    ``unresolved`` or ``ok``."""
    parent, change, bound = entry["parent"], entry["change"], entry["bound"]
    lower = entry["better"] == "lower"
    worse = change["median"] - parent["median"] if lower \
        else parent["median"] - change["median"]
    if worse > bound * parent["median"]:
        return "regressed"
    beats_all = change["max"] < parent["min"] if lower \
        else change["min"] > parent["max"]
    if parent["q3"] - parent["q1"] > bound * parent["median"] and not beats_all:
        return "unresolved"
    return "ok"


def _summary(runs: List[dict], metrics: List[dict]) -> dict:
    """The comparison of one workload's untraced pairs."""
    pairs = sorted({r["pair"] for r in runs if r["pair"] >= 0})
    side = {name: {r["pair"]: r for r in runs if r["side"] == name and r["pair"] >= 0}
            for name in ("parent", "change")}
    out = {
        "pairs": len(pairs),
        "all_correct": all(r["result"]["correct"] for r in runs),
        "failed": {name: sum(side[name][i]["result"]["failed"] for i in pairs)
                   for name in side},
        "stdout_sha256_equal": all(
            side["parent"][i]["record"]["perfbench"]["stdout_sha256"]
            == side["change"][i]["record"]["perfbench"]["stdout_sha256"]
            for i in pairs),
        "metrics": {},
    }
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {s: [side[s][i]["result"]["metrics"][name]["value"] for i in pairs]
                  for s in side}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        parent, change = _quartiles(values["parent"]), _quartiles(values["change"])
        out["metrics"][name] = {
            "better": m["better"], "parent": parent, "change": change,
            "change_wins": f"{wins}/{len(pairs)}",
            "median_change_frac": change["median"] / parent["median"] - 1
            if parent["median"] else None,
            "parent_iqr": parent["q3"] - parent["q1"],
            "bound": m["bound"],
        }
        out["metrics"][name]["verdict"] = _verdict(out["metrics"][name])
    return out


def _claim_met(summary: dict, workload: str, metric: str) -> bool:
    work = summary[workload]
    entry = work["metrics"][metric]
    wins = int(entry["change_wins"].split("/")[0])
    gap = entry["parent"]["median"] - entry["change"]["median"]
    if entry["better"] == "higher":
        gap = -gap
    return (work["all_correct"] and work["failed"]["change"] <= work["failed"]["parent"]
            and wins >= WINS_NEEDED and gap > entry["parent_iqr"])


def _pairs(trees: Dict[str, Path], workload: str, base: int,
           seconds: float) -> List[dict]:
    """The runs of one workload under the protocol, from seed ``base``."""
    plan = [(-1, base, 0, "change")]
    plan += [(i, base + 1 + i, 0, "parent" if i % 2 == 0 else "change")
             for i in range(PAIRS)]
    plan.append((PAIRS, base + 1 + PAIRS, 1, "parent"))
    runs = []
    for pair, seed, trace, first in plan:
        for side in [first, "change" if first == "parent" else "parent"]:
            run = _run(trees[side], workload, seed, seconds, trace)
            runs.append({"workload": workload, "seed": seed, "pair": pair,
                         "side": side, "ran_first": first, "trace": trace,
                         **run})
            print(f"{workload} pair {pair} {side} ({trees[side].name}): "
                  f"correct {run['result']['correct']}, "
                  f"{run['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
    return runs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="directory or git revision")
    parser.add_argument("--change", default=".", help="directory or git revision")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--change-note", default="", help="what the change does")
    parser.add_argument("--extra", help="JSON file whose keys join the record")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    claim = args.claim.split(":") if args.claim else None
    base = args.seed_base
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": _tree(args.parent, Path(tmp), "parent"),
                 "change": _tree(args.change, Path(tmp), "change")}
        runs = [run for workload in workloads
                for run in _pairs(trees, workload, base, seconds)]
        if claim:
            aa_trees = {"parent": trees["parent"],
                        "change": _tree(args.parent, Path(tmp), "parent_aa",
                                        copy=True)}
            aa_runs = _pairs(aa_trees, claim[0], base + AA_SEED_OFFSET, seconds)

    untraced = {w: [r for r in runs if r["workload"] == w and r["trace"] == 0]
                for w in workloads}
    summary = {w: _summary(untraced[w], bench["end_to_end"]) for w in workloads}
    trace_summary = {
        w: {m["name"]: {side: [r["result"]["metrics"].get(m["name"], {}).get("value")
                               for r in runs if r["workload"] == w
                               and r["trace"] == 1 and r["side"] == side]
                        for side in ("parent", "change")}
            for m in bench["per_layer"]}
        for w in workloads}
    env = runs[0]["record"]["perfbench"]["environment"]
    record = {
        "label": args.label,
        "change": args.change_note,
        "sides": _sides({"parent": args.parent, "change": args.change}, runs),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "machine": f"{env.get('nproc')} cores, CPython {env.get('python')}, "
                   f"{'gmpy2' if env.get('gmpy2') else 'no gmpy2'}; times are at "
                   "perfbench's nominal speed",
        "protocol": f"{PAIRS} pairs per workload with --trace 0, seeds "
                    f"{base + 1}-{base + PAIRS}, alternating which side runs "
                    f"first (pair 0 parent first); one --trace 1 pair per workload "
                    f"(seed {base + 1 + PAIRS}, pair {PAIRS}). Each side "
                    "ran from its own directory holding the files of its tree. "
                    f"One untimed pair per workload (seed {base}) preceded the "
                    "record and is not part of the comparison; its runs are listed "
                    "with pair -1. Quartiles are statistics.quantiles(n=4, "
                    "method='inclusive').",
        "claim": None,
        "claim_met": None,
        "aa_run": None,
    }
    if claim:
        better = summary[claim[0]]["metrics"][claim[1]]["better"]
        record["claim"] = (f"{claim[0]} {claim[1]} {better} than the parent's: all "
                           "runs correct, no more failed operations than the "
                           f"parent's, change wins >= {WINS_NEEDED}/{PAIRS} pairs "
                           "and the medians differ by more than the parent's "
                           "interquartile range")
        record["claim_met"] = _claim_met(summary, *claim)
        aa = {claim[0]: _summary([r for r in aa_runs if r["trace"] == 0],
                                 bench["end_to_end"])}
        entry = aa[claim[0]]["metrics"][claim[1]]
        record["aa_run"] = {
            "what": "the parent against a second export of itself, "
                    f"{claim[0]} only, same protocol, seeds "
                    f"{base + AA_SEED_OFFSET}-{base + AA_SEED_OFFSET + 1 + PAIRS}",
            "metric": claim[1],
            "change_wins": entry["change_wins"],
            "median_change_frac": entry["median_change_frac"],
            "parent_iqr": entry["parent_iqr"],
            "claim_met": _claim_met(aa, *claim),
            "runs": aa_runs,
        }
    record["regressions"] = [f"{w}:{name}" for w in workloads
                             for name, m in summary[w]["metrics"].items()
                             if m["verdict"] == "regressed"]
    record["summary"] = summary
    record["trace_summary"] = trace_summary
    if args.extra:
        record.update(json.loads(Path(args.extra).read_text("utf-8")))
    record["runs"] = runs
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for w in workloads:
        for name, m in summary[w]["metrics"].items():
            print(f"{w:11s} {name:12s} parent {m['parent']['median']:.4g} "
                  f"change {m['change']['median']:.4g} wins {m['change_wins']} "
                  f"iqr {m['parent_iqr']:.3g} {m['verdict']}")
    print(f"regressions: {', '.join(record['regressions']) or 'none'}")
    if claim:
        print(f"claim {':'.join(claim)} met: {record['claim_met']}; A/A run: "
              f"wins {record['aa_run']['change_wins']}, met "
              f"{record['aa_run']['claim_met']}")
    return 0


if __name__ == "__main__":
    exit_on_sigterm()
    sys.exit(main())
