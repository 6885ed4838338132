"""Outside-in layer spans for the frobcy benchmark.

``Recorder.install`` replaces each function in ``LAYERS`` by a timing wrapper
in every ``frobcy.*`` module namespace where that function object is bound.
That covers ``from .wedge import wedge_square`` in ``cli`` as well as the
imports that ``classify`` and ``frobenius`` make inside function bodies, which
read the defining module's attribute at call time.  The program itself is not
edited.

Spans stay in memory and are written as JSON when the command ends.  Each span
is ``[name, start, end, parent, N, order]``: ``parent`` is the index of the
enclosing span (-1 for none); ``N`` and ``order`` are the truncation order and
the operator order of a ``solve_series`` call (-1 for other spans).
``summarize`` turns the span files of one timed phase into per-layer metrics.

Times are read from the process's CPU clock.  The benchmark stops a traced
command now and then to time its reference (see run.py); the CPU clock does
not advance while the command is stopped, and otherwise, for this CPU-bound
program, it advances as the wall clock does.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, Iterable, List

# (module, function) pairs wrapped by the traced run; the span name is
# "<module>.<function>".
LAYERS = (
    ("cli", "main"),
    ("cli", "cache_series"),
    ("wedge", "wedge_square"),
    ("diffop", "check_cy5"),
    ("polyrat", "solve_linear_system"),
    ("diffop", "solve_series"),
    ("diffop", "symbol_roots_mod_p"),
    ("congruence", "dwork_ratio"),
    ("padic", "teichmueller_residue"),
    ("frobenius", "unit_roots"),
    ("frobenius", "assemble_frobenius"),
    ("frobenius", "weil_verify"),
    ("classify", "classify_operator"),
    ("classify", "classify_ab"),
    ("classify", "match_singular_ap"),
)

clock = time.process_time


class Recorder:
    """In-memory span log of one process."""

    def __init__(self) -> None:
        self.started = clock()  # the CPU time of interpreter start
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _open(self, name: str, n: int = -1, order: int = -1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, n, order])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    def timed_import(self, name: str, module: str) -> None:
        idx = self._open(name)
        try:
            __import__(module)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        series = name == "diffop.solve_series"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if series:
                n = kwargs["N"] if "N" in kwargs else args[1]
                idx = self._open(name, n, args[0].theta_order)
            else:
                idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def install(self) -> None:
        """Rebind every layer function in every loaded frobcy module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and key.split(".")[0] == "frobcy"]
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"frobcy.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write(self, path: str) -> None:
        data = {"started": self.started, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


# -- aggregation, in the benchmark's parent process --------------------------------------


def summarize(processes: Iterable[dict]) -> Dict[str, float]:
    """Per-layer totals over the span files of one timed phase.

    Each item is a loaded span file plus ``scale``, the factor that puts
    that command's times at the nominal speed.  For every span name this
    gives ``.calls``, ``.s`` (time inside outermost spans of that name) and
    ``.self_s`` (duration minus the time covered by child spans).
    """
    m: Dict[str, float] = defaultdict(float)
    m["diffop.solve_series.max_n"] = 0
    for proc in processes:
        spans, scale = proc["spans"], proc["scale"]
        m["python.startup_s"] += proc["started"] * scale
        covered = [0.0] * len(spans)
        series_child = [False] * len(spans)
        for name, start, end, parent, _n, _order in spans:
            if parent >= 0:
                covered[parent] += end - start
                if name == "diffop.solve_series":
                    series_child[parent] = True
        for i, (name, start, end, parent, n, order) in enumerate(spans):
            dur = (end - start) * scale
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += dur - covered[i] * scale
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                m[f"{name}.s"] += dur
            if name == "diffop.solve_series":
                m["diffop.solve_series.terms"] += n + 1
                m["diffop.solve_series.max_n"] = max(m["diffop.solve_series.max_n"], n)
                m["diffop.solve_series.wedge_s" if order == 5
                  else "diffop.solve_series.op_s"] += dur
            elif name == "cli.cache_series" and not series_child[i]:
                m["cli.cache_series.hits"] += 1
    return dict(m)
