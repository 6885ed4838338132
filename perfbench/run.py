#!/usr/bin/env python3
"""The frobcy benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed command is the real ``frobcy`` CLI (``frobcy.cli.main``) in a
fresh interpreter started by ``perfbench/runner.py``, one at a time, with
``--jobs 1``.  The program is taken from ``src/`` of the checkout this file
sits in; nothing under ``src/`` is written.  Every emitted cell is checked
against the stored appendix tables with the recorded errata applied.

The benchmark and its commands share one CPU.  Each command is stopped after
every SLICE_S of its run while a reference computation is timed, and its
times are reported at the nominal speed of the machine (README.md, "Speed
normalisation").

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` the timed phase runs twice, once plain and once with every
layer wrapped (see spans.py), and the last line carries the per-layer
metrics.  The line before it is a JSON record of the environment, the
inputs, the stdout hashes, the correctness tally and every raw number.
See README.md in this directory for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import spans  # noqa: E402  (perfbench/spans.py)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "frobcy" / "data"
WORK = ROOT / ".perfbench"

# Children are killed past this point, so the run ends within 180 s.
RUN_DEADLINE_S = 170.0
IMPORT_PROBES = 3     # setup_s of the table workloads is their median
FILL_REPEATS = 3      # setup_s of frob_warm is the median cache fill
WARM_PRIMES = (5, 7)  # frob_warm: two drawn operators at each of these
MIN_QUERIES = 40      # so that ten query latencies lie beyond the 75th percentile
# table_wide takes the first three operators of each family, A to D: half of
# the catalog, because all 24 (72 rows, 31 s at the nominal speed) do not fit
# the time budget of a benchmark check; see README.md.
WIDE_OPERATORS = ("A*a", "A*b", "A*c", "B*a", "B*b", "B*c",
                  "C*a", "C*b", "C*c", "D*a", "D*b", "D*c")
DEEP_PRIME = 13
# table_deep draws from these four: each has a leading-symbol root mod 13 (so
# s = 4, N = 28560), and their rows cost within 5 % of each other, so the draw
# varies the input without widening the spread.  B*f costs 8 % less than
# they do, and the other fifteen rooted operators 0.8x to 1.6x as much.
DEEP_OPERATORS = ("B*a", "B*c", "B*d", "B*g")
DEEP_ROW_S = 20       # one table_deep row per this many --seconds, at least one
SLICE_S = 0.02        # a sliced child runs this long between reference timings

# Metric names and units, in the order they are reported.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]

# A fresh interpreter imports frobcy.cli and reports where it came from and
# what it runs on.  Setup times it; the first probe of a run also warms the
# pycache and is not timed.
PROBE = """
import json, sys
import numpy
import frobcy.cli, frobcy.diffop
print(json.dumps({
    "frobcy_file": frobcy.cli.__file__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "gmpy2": frobcy.diffop.mpz is not int,
}))
"""


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong cell)."""


def _fraction_work() -> None:
    """Shaped like the wedge, the imports and the per-cell layers: an exact
    recurrence on integers of up to 1000 bits (the Apery numbers) and a
    product of Fraction polynomials."""
    u0, u1 = 1, 5
    for n in range(2, 400):
        u0, u1 = u1, ((34 * n**3 - 51 * n**2 + 27 * n - 5) * u1 - (n - 1)**3 * u0) // n**3
    poly = [Fraction(1, k) for k in range(1, 14)]
    out = [Fraction(0)] * (2 * len(poly) - 1)
    for i, a in enumerate(poly):
        for j, b in enumerate(poly):
            out[i + j] += a * b


_BIG = 3**80000  # 16 KB, the mean size of a series coefficient at p = 13, s = 4


def _series_work() -> None:
    """Shaped like solve_series at N = 28560: linear passes over 16 KB
    integers, each a product with a small integer and a division."""
    x = _BIG
    for k in range(8):
        x = (x * (1000003 + k) + _BIG * 99991) // 999999999989


@dataclass(frozen=True)
class Reference:
    """A fixed slice of work and its time at the nominal speed.

    Its ``slowness`` is the time it took now over that nominal time.  On
    one CPU, the slowness of work of the same shape, timed right beside a
    command, tracks how fast the shared machine is running that command.
    """

    work: Callable[[], None]
    nominal_s: float

    def slowness(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return (time.perf_counter() - t0) / self.nominal_s


FRACTION_REF = Reference(_fraction_work, 1.0e-3)
SERIES_REF = Reference(_series_work, 0.85e-3)


@dataclass
class Proc:
    """One finished child process."""

    rc: int
    wall: float      # seconds it ran, not counting the time it was stopped
    slowness: float  # mean Reference.slowness() timed beside it
    rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def seconds(self) -> float:
        """The wall time at the nominal speed."""
        return self.wall / self.slowness


class Bench:
    """Child-process plumbing shared by the workloads of one run.

    The benchmark and its children share one CPU.  Every child is stopped
    after each SLICE_S of its run while the benchmark times a reference of
    the command's shape on that CPU, so each command's wall time can be put
    at the nominal speed (see README.md, "Speed normalisation").
    """

    def __init__(self, tmp: Path, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self._count = 0
        self.nproc = len(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        env = dict(os.environ)
        env.pop("FROBCY_FORMS_DIR", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # children fill the pycache
        env.update(
            PYTHONPATH=str(SRC),
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
            FROBCY_CACHE_DIR=str(tmp / "default-cache"),
            XDG_CACHE_HOME=str(tmp / "xdg-cache"),
        )
        self.env = env
        self.report = self.probe()  # warms the pycache; not timed
        if not Path(self.report["frobcy_file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"frobcy imported from {self.report['frobcy_file']}")

    def path(self, stem: str) -> Path:
        self._count += 1
        return self.tmp / f"{self._count:04d}-{stem}"

    def spawn(self, args: List[str], reference: Reference) -> Proc:
        """Run a command to completion; time it and read its rusage."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        refs = [reference.slowness()]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env,
                                    cwd=self.tmp)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                    _kill, (proc.pid,))
            timer.start()
            try:
                status, usage, stopped = self._wait(proc.pid, reference, refs)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0 - stopped
        refs.append(reference.slowness())
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, statistics.fmean(refs),
                    usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes())

    @staticmethod
    def _wait(pid: int, reference: Reference, refs: List[float]) -> tuple:
        """Reap the child: (wait status, rusage, seconds it was stopped)."""
        stopped = 0.0
        fd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            while not poller.poll(SLICE_S * 1000):
                os.kill(pid, signal.SIGSTOP)
                _pid, status, usage = os.wait4(pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    return status, usage, stopped
                t0 = time.perf_counter()
                refs.append(reference.slowness())
                os.kill(pid, signal.SIGCONT)
                stopped += time.perf_counter() - t0
        finally:
            os.close(fd)
        _pid, status, usage = os.wait4(pid, 0)
        return status, usage, stopped

    def frobcy(self, argv: List[str], reference: Reference,
               spans_file: Optional[Path] = None) -> Proc:
        cmd = [sys.executable, str(BENCH / "runner.py")]
        if spans_file is not None:
            cmd += ["--spans", str(spans_file)]
        return self.spawn(cmd + argv, reference)

    def probe(self) -> dict:
        """Run PROBE in a fresh interpreter; return its report and its time."""
        proc = self.spawn([sys.executable, "-c", PROBE], FRACTION_REF)
        if proc.rc != 0:
            raise BenchError(f"probe failed: {proc.stderr.decode(errors='replace')}")
        return dict(json.loads(proc.stdout), seconds=proc.seconds)


def _kill(pid: int) -> None:
    """SIGKILL a child past the deadline; a stopped child dies too."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # reaped just before the deadline


def expected_tables() -> Dict[str, Dict[str, Dict[str, str]]]:
    """Stored tables with every recorded erratum applied (read-only)."""
    tables = json.loads((DATA / "appendix_tables.json").read_text("utf-8"))["tables"]
    errata = json.loads((DATA / "appendix_errata.json").read_text("utf-8"))
    for e in errata["entries"]:
        tables[e["operator"]][str(e["p"])][str(e["z"])] = e["corrected"]
    return tables


def environment(probe: dict, nproc: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": nproc,
        "python": probe["python"],
        "numpy": probe["numpy"],
        "gmpy2": probe["gmpy2"],
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


class Tally:
    """Cells attempted, wrong and missing against the corrected tables."""

    def __init__(self) -> None:
        self.attempted = self.emitted = self.wrong = self.missing = 0
        self.bad_exits = 0

    def table(self, proc: Proc, rows: List[tuple], expected) -> None:
        self.bad_exits += proc.rc != 0
        try:
            got = json.loads(proc.stdout)
        except ValueError:
            got = {}
        for name, p in rows:
            want = expected[name][str(p)]
            have = got.get(name, {}).get(str(p), {})
            self.attempted += len(want)
            self.emitted += len(have)
            self.missing += sum(1 for z in want if z not in have)
            self.wrong += sum(1 for z, cell in have.items() if want.get(z) != cell)

    def frob(self, proc: Proc, want: str) -> None:
        self.attempted += 1
        self.bad_exits += proc.rc != 0
        try:
            cell = json.loads(proc.stdout)["cell"] if proc.rc == 0 else None
        except (ValueError, KeyError):
            cell = None
        if cell is None:
            self.missing += 1
            return
        self.emitted += 1
        self.wrong += cell != want

    @property
    def failed(self) -> int:
        return self.wrong + self.missing


def table_argv(names: List[str], primes: List[int], flags: List[str]) -> List[str]:
    argv = ["table"]
    for name in names:
        argv += ["--operator", name]
    return argv + ["--primes", ",".join(map(str, primes)), "--format", "json",
                   "--jobs", "1"] + flags


# -- workloads --------------------------------------------------------------------------
#
# Each workload draws its inputs from the seed, has an untimed setup that
# returns its setup_s samples, and a timed phase that returns the commands it
# ran.  The work of a phase is fixed by the seed and --seconds, never by how
# fast the machine happens to be, so parent and change do the same work.


class TableWide:
    """WIDE_OPERATORS at p = 3, 5, 7 into a fresh, empty cache, as one
    ``frobcy table`` command.  The seed only orders the ``--operator`` flags."""

    primes = [3, 5, 7]

    def __init__(self, _names: List[str], rng: random.Random, _seconds: float) -> None:
        self.names = list(WIDE_OPERATORS)
        rng.shuffle(self.names)
        self.rows = [(n, p) for n in self.names for p in self.primes]

    def setup(self, bench: Bench) -> List[float]:
        return [bench.probe()["seconds"] for _ in range(IMPORT_PROBES)]

    def phase(self, bench: Bench, tally: Tally, expected, spans_dir=None) -> List[Proc]:
        flags = ["--cache-dir", str(bench.path("cache"))]
        proc = bench.frobcy(table_argv(self.names, self.primes, flags), FRACTION_REF,
                            spans_dir and spans_dir / "table.json")
        tally.table(proc, self.rows, expected)
        return [proc]

    def first_cell(self) -> tuple:
        name, p = self.rows[0]
        return name, p, "1"

    def inputs(self) -> dict:
        return {"operators": self.names, "primes": self.primes}


class TableDeep:
    """Series-bound rows: drawn B-family operators at p = 13 with ``--no-cache``,
    one ``frobcy table`` command per row."""

    def __init__(self, _names: List[str], rng: random.Random, seconds: float) -> None:
        count = max(1, int(seconds) // DEEP_ROW_S)
        self.names = [rng.choice(DEEP_OPERATORS) for _ in range(count)]
        self.rows = [(n, DEEP_PRIME) for n in self.names]

    setup = TableWide.setup
    first_cell = TableWide.first_cell

    def phase(self, bench: Bench, tally: Tally, expected, spans_dir=None) -> List[Proc]:
        procs = []
        for i, name in enumerate(self.names):
            proc = bench.frobcy(table_argv([name], [DEEP_PRIME], ["--no-cache"]),
                                SERIES_REF, spans_dir and spans_dir / f"row{i:03d}.json")
            tally.table(proc, [(name, DEEP_PRIME)], expected)
            procs.append(proc)
        return procs

    def inputs(self) -> dict:
        return {"operators": self.names, "primes": [DEEP_PRIME]}


class FrobWarm:
    """A closed-loop stream of one-cell ``frob`` queries on a filled cache."""

    def __init__(self, names: List[str], rng: random.Random, seconds: float) -> None:
        self.names = rng.sample(sorted(names), 2)
        self.rows = [(n, p) for n in self.names for p in WARM_PRIMES]
        rng.shuffle(self.rows)
        self.queries = []
        for i in range(max(MIN_QUERIES, int(seconds))):
            name, p = self.rows[i % len(self.rows)]
            self.queries.append((name, p, rng.randrange(1, p)))
        self.cache: Optional[Path] = None

    def setup(self, bench: Bench) -> List[float]:
        """Fill a fresh cache with exactly the queried rows, FILL_REPEATS
        times; the queries use the last one."""
        walls = []
        for _ in range(FILL_REPEATS):
            self.cache = bench.path("cache")
            proc = bench.frobcy(table_argv(self.names, list(WARM_PRIMES),
                                           ["--cache-dir", str(self.cache)]),
                                FRACTION_REF)
            if proc.rc != 0:
                raise BenchError(f"cache fill failed: {proc.stderr.decode(errors='replace')}")
            walls.append(proc.seconds)
        return walls

    def phase(self, bench: Bench, tally: Tally, expected, spans_dir=None) -> List[Proc]:
        procs = []
        for i, (name, p, z) in enumerate(self.queries):
            argv = ["frob", "--operator", name, "--prime", str(p), "--point", str(z),
                    "--cache-dir", str(self.cache)]
            proc = bench.frobcy(argv, FRACTION_REF,
                                spans_dir and spans_dir / f"q{i:04d}.json")
            tally.frob(proc, expected[name][str(p)][str(z)])
            procs.append(proc)
        return procs

    def first_cell(self) -> tuple:
        name, p, z = self.queries[0]
        return name, p, str(z)

    def inputs(self) -> dict:
        return {"rows": self.rows, "queries": self.queries}


WORKLOADS = {"table_wide": TableWide, "table_deep": TableDeep, "frob_warm": FrobWarm}


# -- metrics ----------------------------------------------------------------------------


def p75(values: List[float]) -> float:
    """The 75th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(procs: List[Proc], tally: Tally, setup: List[float]) -> Dict[str, float]:
    wall = sum(p.seconds for p in procs)
    return {
        "wall_s": wall,
        "cells_per_s": tally.emitted / wall,
        "query_p50_s": statistics.median(p.seconds for p in procs),
        "query_p75_s": p75([p.seconds for p in procs]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p.rss_mb for p in procs),
        "raw_wall_s": sum(p.wall for p in procs),
        "slowness": statistics.fmean(p.slowness for p in procs),
    }


def per_layer(procs: List[Proc], spans_dir: Path, plain_wall: float) -> Dict[str, float]:
    files = sorted(spans_dir.glob("*.json"))
    if len(files) != len(procs):
        raise BenchError(f"{len(procs)} traced commands left {len(files)} span files")
    loaded = []
    for proc, path in zip(procs, files):
        data = json.loads(path.read_text("utf-8"))
        data["scale"] = 1.0 / proc.slowness
        loaded.append(data)
    m = spans.summarize(loaded)
    wall = sum(p.seconds for p in procs)
    m["cli.import_s"] = m.get("cli.import.s", 0.0)
    m["catalog.import_s"] = m.get("catalog.import.s", 0.0)
    # cli.main's self time is what no named layer explains.
    named = m["python.startup_s"] + sum(
        v for k, v in m.items() if k.endswith(".self_s") and k != "cli.main.self_s")
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - plain_wall
    m["trace.coverage"] = named / wall
    return m


def run(args: argparse.Namespace, tmp: Path) -> dict:
    expected = expected_tables()
    workload = WORKLOADS[args.workload](list(expected), random.Random(args.seed),
                                        args.seconds)
    bench = Bench(tmp, time.monotonic() + RUN_DEADLINE_S)
    if args.alter_expected:
        name, p, z = workload.first_cell()
        row = expected[name][str(p)]
        row[z] = "(0,0)" if row[z] != "(0,0)" else "-"

    setup = workload.setup(bench)
    tally = Tally()
    procs = workload.phase(bench, tally, expected)
    metrics = end_to_end(procs, tally, setup)
    units = END_TO_END
    if args.trace:
        spans_dir = bench.path("spans")
        spans_dir.mkdir()
        traced = workload.phase(bench, tally, expected, spans_dir)
        metrics = dict(per_layer(traced, spans_dir, metrics["wall_s"]),
                       plain=metrics)
        procs += traced
        units = PER_LAYER
    for proc in procs:
        if proc.rc != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(bench.report, bench.nproc),
        "inputs": workload.inputs(),
        "stdout_sha256": [hashlib.sha256(p.stdout).hexdigest() for p in procs]
                         if not isinstance(workload, FrobWarm) else None,
        "commands": len(procs),
        "exit_codes": sorted({p.rc for p in procs}),
        "setup_samples_s": setup,
        "attempted": tally.attempted, "emitted": tally.emitted,
        "wrong": tally.wrong, "missing": tally.missing,
        "bad_exits": tally.bad_exits,
        "failed_frac": tally.failed / tally.attempted,
        "metrics": metrics,
    }}))
    return {
        "correct": tally.failed == 0 and tally.bad_exits == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes frob_warm (one query per second, at least "
                             f"{MIN_QUERIES}) and table_deep (one row per "
                             f"{DEEP_ROW_S} s, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--alter-expected", action="store_true",
                        help="negative control: change one expected cell, "
                             "so the run must report a failure")
    args = parser.parse_args(argv)
    if not (SRC / "frobcy" / "cli.py").is_file():
        print(f"perfbench: no frobcy sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK, prefix="run-") as tmp:
            result = run(args, Path(tmp))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
