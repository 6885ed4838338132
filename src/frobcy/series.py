"""The one source of series: ``cache_series``.

Each cell at a prime p needs the residues mod p^s, to degree p^s - 1, of two
series: the normalized solution of the operator (role ``op``) and that of
its exterior square (role ``wedge``).  ``cache_series`` returns one role of
one operator at a batch of (p, s) targets, each series as the plain list of
its residues; every other module asks it.

Series are memoized on disk, written atomically (temp file + rename): a file
is one JSON header line, then c_0 .. c_N mod p^K, N = p^K - 1, as the raw
bytes of an ``array("I")``: K <= ``box_precision(p, True)``, which is 3 from
p = 29 on, keeps p^K below 2^32 for every p < 1625.  The loader rebuilds the header from the body read (operator hash,
role, p, K, N, byte order, the body's sha256) and compares it byte for byte,
then checks the length, c_0 = 1 and every residue < p^K.  The file name
hashes the *source* operator's JSON, the role and (p, K, N), as it did for
earlier formats, whose files read as misses.  A damaged or mismatched file
is detected (``CorruptCache``), silently recomputed, and overwritten.
Computations never depend on cache state, only their wall time does.
Without a cache directory every target is solved afresh.

The misses of one call are solved in one ``operator_series`` batch to the
largest degree among them, reduced into each target's p^K: one recurrence
run, or for a catalog operator's own series one run of its second-order right
factor times its left factor stepped mod p^K, both shared through
per-process memos by the operators of a sweep.  A catalog product's runs
leave exact integers for residues once these are the narrower; an operator
file's run stays exact and fully checked.  The exterior square is needed
only when a wedge target misses, so a query on a warm cache needs none: a
catalog product's is loaded from the stored data and checked, an operator
file's is built by ``wedge_square``, each at most once per process.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from array import array
from typing import List, Optional, Sequence, Tuple

from . import FrobcyError
from .catalog import operator_series
from .diffop import ThetaOperator


class CorruptCache(FrobcyError):
    """A cache file failed validation (damaged, truncated, or mismatched)."""


def _operator_hash(op: ThetaOperator) -> str:
    return hashlib.sha256(op.to_json().encode("utf-8")).hexdigest()


def _cache_path(cache_dir: str, op_hash: str, role: str, p: int, K: int) -> str:
    key = f"{op_hash}:{role}:{p}:{K}:{p**K - 1}"
    key = hashlib.sha256(key.encode("ascii")).hexdigest()
    return os.path.join(cache_dir, f"series-{key[:40]}.json")


def _header(op_hash: str, role: str, p: int, K: int, body: bytes) -> bytes:
    """The header line of a file holding ``body`` as one role's residues
    mod p^K: the only header its loader accepts."""
    return json.dumps({
        "operator_hash": op_hash, "role": role, "p": p, "K": K, "N": p**K - 1,
        "byteorder": sys.byteorder, "sha256": hashlib.sha256(body).hexdigest(),
    }).encode("ascii")


def _cache_load(path: str, op_hash: str, role: str, p: int, K: int) -> list:
    """The residues of a validated reload; raises CorruptCache on any defect,
    FileNotFoundError on a clean miss."""
    with open(path, "rb") as fh:
        header, _, body = fh.read().partition(b"\n")
    if header != _header(op_hash, role, p, K, body):
        raise CorruptCache(f"header mismatch in {path}")
    pK = p**K
    coeffs = array("I")
    if len(body) != coeffs.itemsize * pK:
        raise CorruptCache(f"bad body length in {path}")
    coeffs.frombytes(body)
    if coeffs[0] != 1 or max(coeffs) >= pK:
        raise CorruptCache(f"residue out of range in {path}")
    return coeffs.tolist()


def _cache_store(path: str, op_hash: str, role: str, p: int, K: int,
                 series: list) -> None:
    """Atomic write: temp file in the same directory, then rename."""
    body = array("I", series).tobytes()
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_header(op_hash, role, p, K, body) + b"\n" + body)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_series(op: ThetaOperator, wedge: bool,
                 targets: Sequence[Tuple[int, int]],
                 cache_dir: Optional[str] = None) -> list:
    """Residues c_0 .. c_N mod p^s, N = p^s - 1, of the normalized solution
    of ``op``, or of its exterior square when ``wedge`` is true, at every
    (p, s) target: a list aligned with ``targets`` holding each list of
    residues or the exception that its computation raises.

    With a ``cache_dir`` the valid files are reloaded without recomputation
    (and without building the exterior square), and each solved target is
    stored under its own key; a directory that cannot be used at all is
    ignored.  With none, every target is solved.
    """
    role = "wedge" if wedge else "op"
    out: list = [None] * len(targets)
    paths: List[Optional[str]] = [None] * len(targets)
    if cache_dir is not None:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError:
            cache_dir = None  # unusable: solve everything, store nothing
    if cache_dir is not None:
        op_hash = _operator_hash(op)
        for i, (p, s) in enumerate(targets):
            paths[i] = _cache_path(cache_dir, op_hash, role, p, s)
            try:
                out[i] = _cache_load(paths[i], op_hash, role, p, s)
            except (CorruptCache, OSError):
                pass  # a miss; a corrupt file is replaced by the fresh write
    misses = [i for i, got in enumerate(out) if got is None]
    if not misses:
        return out
    try:
        solved = operator_series(op, [targets[i] for i in misses], wedge)
    except Exception as exc:  # noqa: BLE001 - shared by every miss
        solved = [exc] * len(misses)
    for i, got in zip(misses, solved):
        out[i] = got
        if paths[i] is not None and not isinstance(got, Exception):
            try:
                _cache_store(paths[i], op_hash, role, *targets[i], got)
            except OSError:
                pass  # caching is best-effort; the result is still correct
    return out
