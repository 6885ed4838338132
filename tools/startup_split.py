"""Per-process start-up split of one or more trees.

    python3 tools/startup_split.py --rounds 41 57630bb . > split.json
    python3 tools/bench_pairs.py ... --extra split.json

Each tree is a directory (``.`` is the working tree) or a git revision of
this repository, exported as ``tools/bench_pairs.py`` exports its sides.
For each tree five measures are taken, each in a fresh interpreter:

- ``pass``: ``python -c pass``, the bare interpreter;
- ``stdlib``: ``python -c "import argparse, json"``;
- ``import_cli``: ``python -c "import frobcy.cli"``;
- ``warm_frob``: one ``frob`` query (``FROB_QUERY``) through the tree's
  ``perfbench/runner.py``, on a cache that the tree fills first;
- ``warm_frob_teardown``: the same query run by ``frobcy.cli.main`` in a
  ``-c`` wrapper, which writes ``time.monotonic()`` to stderr when ``main``
  returns; the measure is the time from then to the reap of the process,
  its exit and teardown, which lie outside every span of perfbench's trace.

The tool and its children are pinned to one CPU.  Each tree gets its own
pycache, filled by one untimed run of every command.  Then ``--rounds``
rounds run every command of every tree once, command by command, the order
of the trees alternating from round to round.  Times are wall seconds of
the whole process, start-up and teardown included, except for
``warm_frob_teardown``.  The JSON printed holds, per tree and command, the
median and quartiles (``statistics.quantiles(n=4, method="inclusive")``)
under the one key ``startup_split``, so it can be passed to
``bench_pairs.py --extra``.  SIGTERM raises ``SystemExit``, so the
temporary directory is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import (_quartiles, _revision, _tree,  # noqa: E402
                         exit_on_sigterm)

FROB_QUERY = ["frob", "--operator", "A*a", "--prime", "7", "--point", "2"]
COMMANDS = {
    "pass": ["-c", "pass"],
    "stdlib": ["-c", "import argparse, json"],
    "import_cli": ["-c", "import frobcy.cli"],
    "warm_frob": ["perfbench/runner.py", *FROB_QUERY, "--cache-dir", "{cache}"],
    "warm_frob_teardown": ["-c", "import sys, time, frobcy.cli\n"
                           "code = frobcy.cli.main(sys.argv[1:])\n"
                           "print(time.monotonic(), file=sys.stderr)\n"
                           "sys.exit(code)",
                           *FROB_QUERY, "--cache-dir", "{cache}"],
}
# the measure whose command stamps the time its work ends on stderr
TEARDOWN = "warm_frob_teardown"


def _env(tree: Path, pycache: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("FROBCY_FORMS_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=str(pycache))
    return env


def _time(tree: Path, env: Dict[str, str], args: List[str],
          teardown: bool = False) -> float:
    """The wall seconds of one command of ``tree``, which must succeed; with
    ``teardown``, the seconds from the ``time.monotonic()`` that ends its
    stderr to its reap."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    reaped = time.monotonic()
    if done.returncode != 0:
        raise SystemExit(f"startup_split: {args} in {tree} exited "
                         f"{done.returncode}: {done.stderr.decode().strip()}")
    return reaped - (float(done.stderr.split()[-1]) if teardown else t0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", help="directory or git revision")
    parser.add_argument("--rounds", type=int, default=41)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, not {args.rounds}")

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the children inherit it
    with tempfile.TemporaryDirectory(prefix="startup-split-") as tmp:
        work = Path(tmp)
        sides = []
        for i, spec in enumerate(args.trees):
            tree = _tree(spec, work, f"tree{i}")
            env = _env(tree, work / f"pycache{i}")
            cache = work / f"cache{i}"
            _time(tree, env, ["perfbench/runner.py", "table", "--operator",
                              FROB_QUERY[2], "--primes", FROB_QUERY[4],
                              "--cache-dir", str(cache)])
            cmds = {name: [a.format(cache=cache) for a in cmd]
                    for name, cmd in COMMANDS.items()}
            for cmd in cmds.values():
                _time(tree, env, cmd)  # untimed: fills the pycache
            sides.append((tree, env, cmds, {name: [] for name in cmds}))
        for r in range(args.rounds):
            for name in COMMANDS:
                for tree, env, cmds, times in sides[::1 if r % 2 == 0 else -1]:
                    times[name].append(_time(tree, env, cmds[name],
                                             name == TEARDOWN))

    out = {
        "protocol": f"{args.rounds} rounds pinned to CPU {cpu}, trees in "
                    "alternating order; wall seconds per process, after one "
                    "untimed run of each command; warm_frob is "
                    f"'{' '.join(FROB_QUERY)}' through perfbench/runner.py, "
                    "warm_frob_teardown the seconds from the return of "
                    "frobcy.cli.main on that query to the reap",
        "python": sys.version.split()[0],
        "trees": {},
    }
    for spec, (_dir, _env_, _cmds, times) in zip(args.trees, sides):
        out["trees"][spec] = {"revision": _revision(spec)}
        for name, t in times.items():  # one round: every quartile is its time
            out["trees"][spec][name] = _quartiles(t if len(t) > 1 else t * 2)
    print(json.dumps({"startup_split": out}, indent=1))
    return 0


if __name__ == "__main__":
    exit_on_sigterm()
    sys.exit(main())
