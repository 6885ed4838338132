"""Command-line front end.

Subcommands: ``table`` (full (a,b) tables per operator and prime, with
markdown/csv/json emission and an optional worker pool), ``frob`` (one cell
as JSON), ``wedge`` (exterior-square operator as JSON), ``congruence``
(ratio-congruence sweeps for the catalog sequences), ``classify`` (CSV sweep
over a prime range), ``legendre`` (elliptic baseline), and ``catalog``
(operator export).

Series are memoized on disk: ``cache_series`` stores the residues
c_0 .. c_N mod p^K with a sha256 of the coefficient list, written atomically
(temp file + rename).  The key is a content hash of the *source* operator's
JSON plus a role: ``op`` for the operator's own solution, ``wedge`` for the
solution of its exterior square.  A damaged or mismatched file is detected
(``CorruptCache``), silently recomputed, and overwritten.  The cache
directory comes from $FROBCY_CACHE_DIR, defaulting to the platform user
cache path; computations never depend on cache state, only their wall time
does.

Each process builds the exterior square of an operator at most once
(``wedge_square`` is memoized), and only when the wedge series misses the
cache or ``--no-cache`` is given; a query on a warm cache builds none.

A table sweep runs one task per operator, over all its primes.  Per role
(the wedge first, then the operator's own series) the task loads the cache
hits and solves every miss in one ``operator_series`` batch to the largest N
among them, reduced into each row's p^s: one exact recurrence run, or for a
catalog operator's own series one run of its second-order right factor times
its left factor stepped mod p^s.  Each row then classifies from those series.
``--jobs k`` parallelizes over operators, so a single operator gets no
speed-up from it.  Each worker keeps its own wedge memo, and results are
emitted in task order, so output is byte-identical to a serial run for every
k.

Every cell goes through ``classify_operator`` from ``required_precision``:
a ``table`` or ``classify`` row classifies the points 1 .. p-1, a ``frob``
query only its point, with the same per-cell escalation (through the cache);
``frob --precision s`` classifies the point once at s.
``classify`` is the ``table`` sweep of one operator in CSV.

``main`` alone turns errors into exit codes: a ``UsageError`` (bad
argument, operator file, point, ``--output`` path or forms fixture) exits 2
and any other ``FrobcyError`` exits 1, each as one ``error: ...`` line on
stderr.  A table row that fails
is reported as data: one line naming the operator and p, exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from . import FrobcyError, UsageError
from .catalog import (CATALOG, SECOND_ORDER, catalog, get_entry,
                      operator_series, sequence_terms_via_recurrence)
from .classify import (PointClass, SeriesSource, classify_operator,
                       classify_point, results_to_csv, row_series)
from .congruence import CongruenceReport, OutsideUnitDisk, check_dwork_congruence
from .diffop import ThetaOperator, TruncatedSeries, solve_series, symbol_roots_mod_p
from .frobenius import (decode_frobenius, frobenius_quartic, legendre_frobenius,
                        legendre_precision, legendre_unit_root,
                        required_precision)
from .padic import is_odd_prime
from .wedge import wedge_square

__all__ = ["CorruptCache", "cache_series", "main"]


# -- series cache -------------------------------------------------------------------


class CorruptCache(FrobcyError):
    """A cache file failed validation (damaged, truncated, or mismatched)."""


def _default_cache_dir() -> str:
    base = os.environ.get("FROBCY_CACHE_DIR")
    if base:
        return base
    xdg = os.environ.get("XDG_CACHE_HOME")
    if not xdg:
        xdg = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "frobcy")


def _operator_hash(op: ThetaOperator) -> str:
    return hashlib.sha256(op.to_json().encode("utf-8")).hexdigest()


def _coeffs_digest(coeffs: Sequence[int]) -> str:
    return hashlib.sha256(",".join(map(str, coeffs)).encode("ascii")).hexdigest()


def _cache_path(cache_dir: str, op_hash: str, role: str, p: int, K: int,
                N: int) -> str:
    key = hashlib.sha256(f"{op_hash}:{role}:{p}:{K}:{N}".encode("ascii")).hexdigest()
    return os.path.join(cache_dir, f"series-{key[:40]}.json")


def _cache_load(path: str, op_hash: str, role: str, p: int, K: int,
                N: int) -> TruncatedSeries:
    """Validated reload; raises CorruptCache on any defect, FileNotFoundError
    on a clean miss."""
    with open(path, "rb") as fh:  # json.loads decodes: bad bytes are a defect
        raw = fh.read()
    try:
        data = json.loads(raw)
        if (data["operator_hash"] != op_hash or data["role"] != role
                or data["p"] != p or data["K"] != K or data["N"] != N):
            raise CorruptCache(f"header mismatch in {path}")
        coeffs = [int(c) for c in data["coeffs"]]
        if len(coeffs) != N + 1 or coeffs[0] != 1:
            raise CorruptCache(f"bad coefficient array in {path}")
        pK = p**K
        if any(not 0 <= c < pK for c in coeffs):
            raise CorruptCache(f"residue out of range in {path}")
        if _coeffs_digest(coeffs) != data["sha256"]:
            raise CorruptCache(f"checksum mismatch in {path}")
    except CorruptCache:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptCache(f"unreadable cache file {path}: {exc}") from None
    return TruncatedSeries(coeffs, prime=p, cap=K)


def _cache_store(path: str, op_hash: str, role: str, p: int, K: int, N: int,
                 series: TruncatedSeries) -> None:
    """Atomic write: temp file in the same directory, then rename."""
    payload = {
        "operator_hash": op_hash, "role": role, "p": p, "K": K, "N": N,
        "sha256": _coeffs_digest(series.coeffs),
        "coeffs": [str(c) for c in series.coeffs],
    }
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_series(op: ThetaOperator, p: int, K: int, N: int,
                 cache_dir: Optional[str] = None,
                 wedge: bool = False) -> TruncatedSeries:
    """Residues c_0 .. c_N mod p^K of the normalized solution of ``op``, or
    of its exterior square when ``wedge`` is true, memoized.

    The key is a content hash of the JSON of ``op`` (the source operator
    also for the wedge series), the role ``op`` / ``wedge``, and (p, K, N);
    changing any operator coefficient changes the key.  A valid cache file is
    reloaded without recomputation, and without building the exterior square;
    a corrupt one is silently recomputed and overwritten.  If the cache
    directory cannot be used at all, the series is simply computed and
    returned uncached.
    """
    directory = cache_dir if cache_dir is not None else _default_cache_dir()
    got, = _role_series(op, wedge, [(p, K, N)], directory, _operator_hash(op))
    if isinstance(got, Exception):
        raise got
    return got


def _role_series(op: ThetaOperator, wedge: bool,
                 targets: Sequence[Tuple[int, int, int]],
                 directory: Optional[str], op_hash: Optional[str]) -> list:
    """The series of ``op``, or of its exterior square, at every (p, K, N)
    target, as a list aligned with ``targets`` holding each series or the
    exception that its separate computation raises.

    With a cache ``directory`` the hits are loaded (see ``cache_series``);
    the misses are solved in one ``operator_series`` batch (one exact run, or
    for a catalog operator's own series one run of its right factor) to the
    largest N among them, each stored under its own key.  Without one, every
    target is solved in that one batch.
    """
    role = "wedge" if wedge else "op"
    out: list = [None] * len(targets)
    paths: List[Optional[str]] = [None] * len(targets)
    if directory is not None:
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError:
            directory = None  # unusable: solve everything, store nothing
    if directory is not None:
        for i, (p, K, N) in enumerate(targets):
            paths[i] = _cache_path(directory, op_hash, role, p, K, N)
            try:
                out[i] = _cache_load(paths[i], op_hash, role, p, K, N)
            except (CorruptCache, OSError):
                pass  # a miss; a corrupt file is replaced by the fresh write
    misses = [i for i, got in enumerate(out) if got is None]
    if not misses:
        return out
    try:
        source = wedge_square(op) if wedge else op
        solved = operator_series(source, max(targets[i][2] for i in misses),
                                 [targets[i] for i in misses])
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


# -- shared computation helpers --------------------------------------------------


def _check_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise UsageError(f"{p} is not an odd prime")
    return p


def _parse_primes(text: str) -> List[int]:
    """Accept '3..17' (all odd primes in the range) or '3,5,7' / '7'."""
    text = text.strip()
    lo_s, is_range, hi_s = text.partition("..")
    try:
        if is_range:
            lo, hi = int(lo_s), int(hi_s)
        else:
            listed = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"not a prime range or list: {text!r}") from None
    if is_range:
        primes = [p for p in range(max(lo, 3), hi + 1) if is_odd_prime(p)]
        if not primes:
            raise UsageError(f"no odd primes in range {text!r}")
        return primes
    if not listed:
        raise UsageError(f"no primes in list {text!r}")
    return [_check_prime(p) for p in listed]


def _load_operator(spec: str) -> ThetaOperator:
    """Catalog name, or path to a JSON operator file."""
    if spec in CATALOG:
        return get_entry(spec).operator
    if not os.path.exists(spec):
        raise UsageError(
            f"unknown operator {spec!r}: not a catalog name and not a file")
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return ThetaOperator.from_json(fh.read())
    except KeyError as exc:
        raise UsageError(f"operator file {spec!r} has no field {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"operator file {spec!r}: {exc}") from None


def _series_source(use_cache: bool, cache_dir: Optional[str]) -> SeriesSource:
    """Series at precision s, through the disk cache unless ``use_cache`` is
    false."""
    if not use_cache:
        return row_series

    def series(op: ThetaOperator, p: int, s: int, wedge: bool) -> TruncatedSeries:
        return cache_series(op, p, s, p**s - 1, cache_dir, wedge)
    return series


def _table_task(arg: Tuple[str, Sequence[int], bool, Optional[str]]
                ) -> List[Tuple[List[PointClass], Optional[str]]]:
    """Worker: every row (one per prime) of one operator; a row's failure is
    data, one diagnostic per row.

    Each row starts at ``required_precision(p)``.  Per role, the wedge
    first, the series of all rows come from one ``_role_series`` batch: one
    run for the rows the cache misses.  ``classify_operator`` then
    runs per row on a source that answers from the batch and falls back to
    the per-series source, cache included, for an escalated cell.
    """
    op_json, primes, use_cache, cache_dir = arg
    op = ThetaOperator.from_json(op_json)
    directory = op_hash = None
    if use_cache:
        directory = cache_dir if cache_dir is not None else _default_cache_dir()
        op_hash = _operator_hash(op)
    start = {p: required_precision(p) for p in primes}
    batch: Dict[Tuple[int, int, bool], object] = {}
    for wedge in (True, False):
        # a row whose wedge failed never asks for its own series
        rows = [(p, s, p**s - 1) for p, s in start.items()
                if not isinstance(batch.get((p, s, True)), Exception)]
        got = _role_series(op, wedge, rows, directory, op_hash)
        batch.update(((p, s, wedge), g) for (p, s, _N), g in zip(rows, got))
    fallback = _series_source(use_cache, cache_dir)

    def series(op: ThetaOperator, p: int, s: int, wedge: bool) -> TruncatedSeries:
        got = batch.get((p, s, wedge))
        if got is None:
            return fallback(op, p, s, wedge)
        if isinstance(got, Exception):
            raise got
        return got

    outcomes = []
    for p in primes:
        try:
            outcomes.append((classify_operator(op, p, s=start[p], series=series),
                             None))
        except Exception as exc:  # noqa: BLE001 - reported as a diagnostic
            label = op.name or "operator"
            outcomes.append(([], f"{label} p={p}: {type(exc).__name__}: {exc}"))
    return outcomes


def _padic_json(p: int, s: int, residue: int) -> Dict[str, int]:
    return {"prime": p, "precision": s, "residue": residue}


# -- emission -----------------------------------------------------------------------


def _markdown_tables(groups: Sequence[Tuple[str, int, List[PointClass]]]) -> str:
    lines: List[str] = []
    for name, p, rows in groups:
        lines.append(f"## {name}, p = {p}")
        lines.append("")
        lines.append("| z | " + " | ".join(str(r.z0) for r in rows) + " |")
        lines.append("|---" * (len(rows) + 1) + "|")
        lines.append("| (a,b) | " + " | ".join(r.cell() for r in rows) + " |")
        lines.append("")
    return "\n".join(lines)


def _json_tables(groups: Sequence[Tuple[str, int, List[PointClass]]]) -> str:
    out: Dict[str, Dict[str, Dict[str, str]]] = {}
    for name, p, rows in groups:
        out.setdefault(name, {})[str(p)] = {str(r.z0): r.cell() for r in rows}
    return json.dumps(out, indent=1)


def _emit(text: str, output: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {output!r}: "
                             f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# -- subcommands --------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, not {args.jobs}")
    names = args.operator or list(CATALOG)
    if names == ["all"]:
        names = list(CATALOG)
    return _sweep(names, args.format, args.jobs, args)


def cmd_classify(args: argparse.Namespace) -> int:
    """The ``table`` sweep of one operator, in CSV."""
    return _sweep([args.operator], "csv", 1, args)


def _sweep(names: Sequence[str], fmt: str, jobs: int,
           args: argparse.Namespace) -> int:
    """Classify every (operator, prime) row, emit the rows that succeed, and
    report each failed row as one stderr line (exit 1)."""
    ops = [(n, _load_operator(n)) for n in names]
    primes = _parse_primes(args.primes)
    cache_dir = args.cache_dir
    use_cache = not args.no_cache
    tasks = [(op.to_json(), primes, use_cache, cache_dir) for _n, op in ops]

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_table_task, tasks))
    else:
        outcomes = [_table_task(t) for t in tasks]

    groups: List[Tuple[str, int, List[PointClass]]] = []
    errors: List[str] = []
    for (name, _op), task_rows in zip(ops, outcomes):
        for p, (rows, err) in zip(primes, task_rows):
            if err is not None:
                errors.append(err)
            else:
                groups.append((name, p, rows))

    if fmt == "markdown":
        text = _markdown_tables(groups)
    elif fmt == "json":
        text = _json_tables(groups)
    else:
        text = results_to_csv([r for _n, _p, rows in groups for r in rows])
    _emit(text, args.output)

    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if errors else 0


def cmd_frob(args: argparse.Namespace) -> int:
    """One cell, certified as in its table row (``classify_operator`` on the
    one point, escalating as needed); an explicit --precision is used as
    given and never escalates."""
    op = _load_operator(args.operator)
    p = _check_prime(args.prime)
    if args.precision is not None and args.precision < 1:
        raise UsageError(f"--precision must be >= 1, not {args.precision}")
    z0 = args.point % p
    if z0 == 0:
        raise UsageError("the point must be nonzero mod p")
    series = _series_source(not args.no_cache, args.cache_dir)
    if args.precision is None:
        pc = classify_operator(op, p, series=series, points=[z0])[0]
    else:
        s = args.precision
        F0 = series(op, p, s, True)  # the wedge first, as in a row
        pc = classify_point(op, p, z0, s, series(op, p, s, False), F0,
                            z0 in symbol_roots_mod_p(op, p))
    result: Dict[str, object] = {
        "operator": op.name or args.operator, "p": p, "z": z0,
        "precision": pc.s,
    }
    if pc.status == "undefined":
        result.update(status="undefined", a=None, b=None, r1=None, rh=None,
                      cell="-")
        candidates = 0
    else:
        result.update(
            status=pc.status, a=pc.a, b=pc.b,
            alpha=pc.alpha, beta=pc.beta, chi=pc.chi, ap=pc.ap, form=pc.form,
            quartic=frobenius_quartic(pc.a, pc.b, p), cell=pc.cell(),
            r1=_padic_json(p, pc.s, pc.r1), rh=_padic_json(p, pc.s, pc.rh),
        )
        candidates = len(decode_frobenius(pc.a, pc.b, p, pc.s,
                                          pc.at_singular_fiber))
    result["certificate"] = {"fiber": pc.at_singular_fiber,
                             "candidates": candidates,
                             "escalated": pc.escalated}
    print(json.dumps(result, indent=1))
    return 0


def cmd_wedge(args: argparse.Namespace) -> int:
    print(wedge_square(_load_operator(args.operator)).to_json())
    return 0


def _report_json(r: CongruenceReport) -> Dict[str, object]:
    return {
        "power": r.power, "n_max": r.n_max, "checked": r.checked,
        "skipped": r.skipped,
        "failures": [{"n": n, "got": got, "expected": want}
                     for n, got, want in r.failures],
        "ok": r.ok, "summary": r.summary(),
    }


def cmd_congruence(args: argparse.Namespace) -> int:
    name = args.sequence
    p = _check_prime(args.prime)
    if args.nmax < 0:
        raise UsageError(f"--nmax must be >= 0, not {args.nmax}")
    if args.smax < 1:
        raise UsageError(f"--smax must be >= 1, not {args.smax}")
    if name in CATALOG:
        coeffs: Sequence[int] = solve_series(get_entry(name).operator,
                                             args.nmax).coeffs
    elif name in SECOND_ORDER:
        coeffs = sequence_terms_via_recurrence(name, args.nmax)
    else:
        raise UsageError(f"unknown sequence {name!r}")
    reports = [check_dwork_congruence(coeffs, p, s, args.nmax)
               for s in range(1, args.smax + 1)]
    payload = {
        "sequence": name, "prime": p, "n_max": args.nmax,
        "reports": [_report_json(r) for r in reports],
        "ok": all(r.ok for r in reports),
    }
    print(json.dumps(payload, indent=1))
    return 0 if payload["ok"] else 1


def cmd_legendre(args: argparse.Namespace) -> int:
    p = _check_prime(args.prime)
    result: Dict[str, object] = {"p": p, "s0": args.point % p}
    try:
        root = legendre_unit_root(p, args.point)
    except OutsideUnitDisk:
        result.update(status="supersingular", pi=None, ap=None,
                      zeta_numerator=None)
    else:
        ap = legendre_frobenius(p, args.point)
        result.update(status="ordinary",
                      pi=_padic_json(p, legendre_precision(p), root), ap=ap,
                      zeta_numerator=[1, -ap, p])
    print(json.dumps(result, indent=1))
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.list:
        entries = [json.loads(e.operator.to_json()) for e in catalog()]
        print(json.dumps(entries, indent=1))
        return 0
    for e in catalog():
        points = ", ".join(str(x) for x in e.singular_points) or "none"
        special = "".join(f"  [{pt}: {label}]"
                          for pt, label in sorted(e.special_points.items()))
        print(f"{e.name}  #{e.aesz}  order {e.operator.theta_order} "
              f"degree {e.operator.z_degree}  symbol roots: {points}{special}")
    return 0


# -- argument parsing ----------------------------------------------------------------


def _add_cache_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--no-cache", action="store_true",
                    help="recompute series without touching the disk cache")
    sp.add_argument("--cache-dir", default=None,
                    help="cache directory (default: $FROBCY_CACHE_DIR or the "
                         "user cache path)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobcy",
        description="Degree-four Frobenius polynomials of fourth-order "
                    "Calabi-Yau operators by the p-adic unit-root method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", help="full (a,b) tables per operator and prime")
    sp.add_argument("--operator", action="append",
                    help="catalog name or operator JSON file (repeatable; "
                         "default: every catalog operator)")
    sp.add_argument("--primes", default="3..17",
                    help="prime range '3..17' or list '3,5,7' (default 3..17)")
    sp.add_argument("--format", choices=("markdown", "csv", "json"),
                    default="markdown")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes (output independent of the value)")
    sp.add_argument("--output", default=None, help="write to file, not stdout")
    _add_cache_flags(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("frob", help="one Frobenius cell as JSON")
    sp.add_argument("--operator", required=True)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--point", type=int, required=True)
    sp.add_argument("--precision", type=int, default=None)
    _add_cache_flags(sp)
    sp.set_defaults(func=cmd_frob)

    sp = sub.add_parser("wedge", help="exterior-square operator as JSON")
    sp.add_argument("--operator", required=True)
    sp.set_defaults(func=cmd_wedge)

    sp = sub.add_parser("congruence", help="ratio-congruence sweep as JSON")
    sp.add_argument("--sequence", required=True,
                    help="sequence name (A-D, a-j) or catalog operator")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--nmax", type=int, default=2000)
    sp.add_argument("--smax", type=int, default=3)
    sp.set_defaults(func=cmd_congruence)

    sp = sub.add_parser("classify", help="CSV classification sweep")
    sp.add_argument("--operator", required=True)
    sp.add_argument("--primes", default="3..17")
    sp.add_argument("--output", default=None)
    _add_cache_flags(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("legendre", help="elliptic baseline a_p as JSON")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--point", type=int, required=True)
    sp.set_defaults(func=cmd_legendre)

    sp = sub.add_parser("catalog", help="operator catalog")
    sp.add_argument("--list", action="store_true",
                    help="emit every operator in the JSON interchange format")
    sp.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; the one place where errors become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except FrobcyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's closing flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
