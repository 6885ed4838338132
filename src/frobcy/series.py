"""The one source of series: ``cache_series``.

Each cell at a prime p needs the residues mod p^s, to degree p^s - 1, of two
series of its row (p, s): that of the exterior square's normalized solution,
F0, and that of the operator's own, f0.  ``cache_series`` returns both, as
plain lists of residues, for one operator at a batch of (p, s) targets;
every cell asks it; ``congruence`` and ``legendre`` ask ``sequence_residues``.

Series are memoized on disk, one file per row, written atomically: a temp
file ``<path>.<pid>.tmp``, created exclusively with mode 0600 (so no
symlink is followed), then renamed over the row's path.  A temp file left
behind by an earlier process of the same pid makes that store a skip.  The
row's key is the *source* operator's coefficient table, p, K and the byte
order, so every spec and name of one operator shares its rows; the file is
named by the key's sha256 in hex.  It holds the sha256 of
key + body (32 bytes), then the body: c_0 .. c_N of F0 and then of f0, mod
p^K, N = p^K - 1, as the raw bytes of one ``array("I")``: K <=
``box_precision(p, True)``, which is 3 from p = 29 on, keeps p^K below 2^32
for every p < 1625.  The loader checks the digest against the key and the
body read, then the length, c_0 = 1 in both halves and every residue < p^K.
Files of earlier formats are named ``series-*.json`` and read as misses.  A
damaged or mismatched file is detected (``CorruptCache``), silently
recomputed, and overwritten.  Computations never depend on cache state, only
their wall time does.  Without a cache directory every target is solved
afresh.  The digests come from CPython's built-in ``_sha256`` module
(``_sha2`` from 3.12 on), and from ``hashlib`` only where both are missing:
``hashlib`` loads OpenSSL's libcrypto, a few milliseconds of every process's
start-up.

The misses of one call are solved in two ``operator_series`` batches, the
wedge first and then, for the rows whose wedge succeeded, the operator's own
series, each to the largest degree among its rows, reduced into each
target's p^K: one recurrence run, or for a catalog operator's own series one
run of its second-order right factor times its left factor stepped mod p^K,
both shared through one per-process memo by the operators of a sweep.  A
catalog product, known by its coefficients whatever its name, runs leaving
exact integers for residues once these are the narrower; any other
operator's run stays exact and fully checked.  The
exterior square is needed only on a miss, so a query on a warm cache needs
none.  A call with misses fetches it once, from ``catalog.exterior_square``:
a catalog product's is loaded from the stored data and checked, any other
operator's is built by ``wedge_square``, on every such call (no memo).
"""

from __future__ import annotations

import os
import sys
from array import array
from typing import List, Optional, Sequence, Tuple

from . import FrobcyError
from .catalog import operator_series
from .diffop import ThetaOperator

try:  # hashlib loads OpenSSL's libcrypto; the built-in modules are lean
    from _sha256 import sha256
except ImportError:
    try:  # CPython 3.12 renamed _sha256 to _sha2
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256


class CorruptCache(FrobcyError):
    """A cache file failed validation (damaged, truncated, or mismatched)."""


def _cache_load(path: str, key: bytes, p: int, K: int) -> tuple:
    """(F0, f0) of a validated reload; raises CorruptCache on any defect,
    FileNotFoundError on a clean miss."""
    with open(path, "rb") as fh:
        raw = fh.read()
    body = raw[32:]
    if raw[:32] != sha256(key + body).digest():
        raise CorruptCache(f"digest mismatch in {path}")
    pK = p**K
    coeffs = array("I")
    if len(body) != 2 * coeffs.itemsize * pK:
        raise CorruptCache(f"bad body length in {path}")
    coeffs.frombytes(body)
    if coeffs[0] != 1 or coeffs[pK] != 1 or max(coeffs) >= pK:
        raise CorruptCache(f"residue out of range in {path}")
    return coeffs[:pK].tolist(), coeffs[pK:].tolist()


def _cache_store(path: str, key: bytes, row: tuple) -> None:
    """Atomic write: an exclusive temp file beside ``path``, then rename."""
    body = array("I", row[0] + row[1]).tobytes()
    tmp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        try:
            data = memoryview(sha256(key + body).digest() + body)
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_series(op: ThetaOperator, targets: Sequence[Tuple[int, int]],
                 cache_dir: Optional[str] = None) -> list:
    """Residues c_0 .. c_N mod p^s, N = p^s - 1, of the normalized solutions
    of the exterior square of ``op`` and of ``op`` itself at every (p, s)
    target: a list aligned with ``targets`` holding each row's (F0, f0) or
    the error of its own series; no exception is shared across rows.  A row
    whose exterior square's series fails solves no series of its own.

    With a ``cache_dir`` the valid files are reloaded without recomputation
    (and without building the exterior square), and each solved row is
    stored in its own file; a directory that cannot be used at all is
    ignored.  With none, every target is solved.
    """
    out: list = [None] * len(targets)
    files: List[Optional[tuple]] = [None] * len(targets)
    if cache_dir is not None:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError:
            cache_dir = None  # unusable: solve everything, store nothing
    if cache_dir is not None:
        for i, (p, s) in enumerate(targets):
            key = f"{op.coeffs}:{p}:{s}:{sys.byteorder}".encode("utf-8")
            files[i] = (os.path.join(cache_dir, sha256(key).hexdigest()),
                        key)
            try:
                out[i] = _cache_load(*files[i], p, s)
            except (CorruptCache, OSError):
                pass  # a miss; a corrupt file is replaced by the fresh write
    # the wedge first: a row whose wedge series fails solves none of its own
    misses = [i for i, got in enumerate(out) if got is None]
    for wedge in (True, False):
        if not misses:
            break
        solved = operator_series(op, [targets[i] for i in misses], wedge)
        for i, got in zip(misses, solved):
            out[i] = (got if wedge or isinstance(got, Exception)
                      else (out[i], got))
        misses = [i for i in misses if not isinstance(out[i], Exception)]
    for i in misses:  # solved in both roles
        if files[i] is not None:
            try:
                _cache_store(*files[i], out[i])
            except OSError:
                pass  # caching is best-effort; the result is still correct
    return out
