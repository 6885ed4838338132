"""The one source of series, ``cache_series``, and the row cache.

Each cell at a prime p needs the residues mod p^s, to degree p^s - 1, of two
series of its row (p, s): that of the exterior square's normalized solution,
F0, and that of the operator's own, f0.  ``cache_series`` returns both, as
plain lists of residues, for one operator at a batch of (p, s) targets;
every computed cell asks it; ``congruence`` and ``legendre`` ask
``sequence_residues``.

The disk cache holds certified rows, not series: ``classify_operator``
reads and writes one file per row, holding the row's cells as JSON lists of
``PointClass`` fields, with no cell for a point that raised.  The row's key
is the *source* operator's coefficient table, p, the explicit precision (or
None) and the sha256 of the package's own source and data files, so every
spec and name of one operator shares its rows, and any change to the
method makes every stored row a miss; the file is named by the key's sha256
in hex.  It holds the sha256 of key + body (32 bytes), then the body.  A
file whose digest does not match its key and body, or that cannot be read,
is a miss, recomputed and overwritten; files of earlier formats have other
names and are never opened.  Computations never depend on cache state, only
their wall time does.  A row is written atomically: a temp file
``<path>.<pid>.tmp``, created exclusively with mode 0600 (so no symlink is
followed), then renamed over the row's path.  A temp file left behind by an
earlier process of the same pid makes that store a skip, and so does any
other ``OSError``.  The digests come from CPython's built-in ``_sha256``
module (``_sha2`` from 3.12 on), and from ``hashlib`` only where both are
missing: ``hashlib`` loads OpenSSL's libcrypto, a few milliseconds of every
process's start-up.  The package's digest is taken once per process, and
only by a run with a cache directory.

``cache_series`` solves its targets in two ``operator_series`` batches, the
wedge first and then, for the rows whose wedge succeeded, the operator's own
series, each to the largest degree among its rows, reduced into each
target's p^K: one recurrence run, or for a catalog operator's own series one
run of its second-order right factor times its left factor stepped mod p^K,
both shared through one per-process memo by the operators of a sweep.  A
catalog product, known by its coefficients whatever its name, runs leaving
exact integers for residues once these are the narrower; any other
operator's run stays exact and fully checked.  Each call fetches the
exterior square once, from ``catalog.exterior_square``: a catalog product's
is loaded from the stored data and checked, any other operator's is built
by ``wedge_square``, on every such call (no memo).  A query on a warm cache
calls none of this.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .catalog import operator_series
from .diffop import ThetaOperator

try:  # hashlib loads OpenSSL's libcrypto; the built-in modules are lean
    from _sha256 import sha256
except ImportError:
    try:  # CPython 3.12 renamed _sha256 to _sha2
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256


@lru_cache(maxsize=None)
def _package_digest() -> str:
    """The sha256 of the package's source and data files, in the order of
    their relative names, each by its name and its own sha256
    (``__pycache__`` is never read)."""
    root = os.path.dirname(__file__)
    digest = sha256()
    data = [f"data/{name}" for name in os.listdir(os.path.join(root, "data"))]
    for name in sorted(os.listdir(root) + data):
        if name.endswith((".py", ".json")):
            digest.update(name.encode("utf-8")
                          + sha256(Path(root, name).read_bytes()).digest())
    return digest.hexdigest()


def row_file(cache_dir: str, op: ThetaOperator, p: int,
             precision: Optional[int]) -> Tuple[str, bytes]:
    """(path, key) of the row file of ``op`` at p and ``precision``."""
    key = f"{op.coeffs}:{p}:{precision}:{_package_digest()}".encode("utf-8")
    return os.path.join(cache_dir, sha256(key).hexdigest()), key


def load_row(path: str, key: bytes) -> list:
    """The cells stored at ``path`` as JSON lists; none on a miss: no file,
    or one that cannot be read or fails its digest."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return []
    body = raw[32:]
    return json.loads(body) if raw[:32] == sha256(key + body).digest() else []


def store_row(path: str, key: bytes, cells: list) -> None:
    """Atomic write of ``cells``: an exclusive temp file beside ``path``,
    then rename.  Best-effort: an ``OSError`` skips the store."""
    body = json.dumps(cells).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
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
    except OSError:
        pass  # caching is best-effort; the result is still correct


def cache_series(op: ThetaOperator,
                 targets: Sequence[Tuple[int, int]]) -> list:
    """Residues c_0 .. c_N mod p^s, N = p^s - 1, of the normalized solutions
    of the exterior square of ``op`` and of ``op`` itself at every (p, s)
    target: a list aligned with ``targets`` holding each row's (F0, f0) or
    the error of its own series; no exception is shared across rows.  A row
    whose exterior square's series fails solves no series of its own."""
    out: list = [None] * len(targets)
    todo = list(range(len(targets)))
    for wedge in (True, False):
        if not todo:
            break
        solved = operator_series(op, [targets[i] for i in todo], wedge)
        for i, got in zip(todo, solved):
            out[i] = (got if wedge or isinstance(got, Exception)
                      else (out[i], got))
        todo = [i for i in todo if not isinstance(out[i], Exception)]
    return out
