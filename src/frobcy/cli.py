"""Command-line front end.

Subcommands: ``table`` (full (a,b) tables per operator and prime, in one
of the ``FORMATS`` markdown, csv and json, with an optional worker pool),
``frob`` (one cell as JSON), ``wedge`` (exterior-square operator as JSON,
from ``catalog.exterior_square``: the stored square of a catalog product,
the one built by ``wedge_square`` for any other operator), ``congruence``
(ratio-congruence sweeps for the catalog sequences), ``legendre`` (elliptic
baseline), and ``catalog`` (operator export).  Every command prints to
stdout.

``table``, ``frob`` and ``wedge`` take operators through one admission
point, ``_load_operator``: a catalog name, or an operator file named by its
path, refused by ``check_operator`` before any series.

Every cell goes through one row pipeline, ``classify_operator``: a
``table`` row asks for the points 1 .. p-1, a ``frob`` query only for its
point, from ``required_precision`` with the same per-cell escalation, or at
its ``--precision s`` alone.  It reads and writes certified rows in the
disk cache unless ``--no-cache`` is given, and takes the series of the rows
it computes from ``series.cache_series`` (re-exported here).  The cache
directory is ``--cache-dir``, else $FROBCY_CACHE_DIR, else
$XDG_CACHE_HOME/frobcy, else ~/.cache/frobcy.

A table sweep maps ``classify_operator`` over the operators: one call per
operator over all its primes, so one ``cache_series`` call for all its rows
that miss the cache and one more per escalation round.  ``--jobs k`` maps
it in a worker pool, so a single operator gets no speed-up from it.  Each
worker keeps its own memo of factor lists (``catalog.sequence_residues``),
fetches an operator's exterior square once per round of rows that miss the
cache, and returns its rows pickled, cells and exceptions alike.  Results are emitted in ``--operator``
order, so output is byte-identical to a serial run for every k.

``main`` builds the argparse parser of the subcommand named first alone,
from the one ``COMMANDS`` table of (help, filler, handler) that
``build_parser`` reads; help, a missing or unknown command, and arguments
left over are parsed by the full parser, so every usage line lists all six
commands.

``main`` alone turns errors into exit codes: a ``UsageError`` (bad
argument, prime above its command's ceiling, operator file, point, or an
operator that ``check_operator`` refuses, each before any row) exits 2 and
any other ``FrobcyError`` exits 1, each as one ``error: ...`` line on
stderr.  A table row that fails is reported as data: the exception of its
own series or cells, in place of its cells, becomes one line naming the
operator, as given to ``--operator``, and p, and the run exits 1.

``main`` registers one exit hook, ``gc.freeze``, once per process however
often it runs; importing this module registers none.  At interpreter exit
CPython runs its exit hooks, flushes stdout and stderr, and then collects
and tears down the modules: with the heap frozen, that collection skips the
cyclic garbage (classes, functions, module dicts) that would be freed one
by one, and the OS takes the memory back: a warm ``frob`` spent about 11 ms
from the return of ``main`` to its exit, and now spends 3 (2 cores, CPython
3.11).  No output byte or exit code changes: CPython does not promise
``__del__`` at exit, frobcy has no ``__del__``, weakref or finalizer, a
row file is closed and renamed inside ``series.store_row``, and the
``--jobs`` pool is shut down by its ``with`` block.  A hook fires only
at exit, so a caller that runs ``main`` in process keeps a normal collector
while it runs.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from . import FrobcyError, UsageError, read_input
from .catalog import (CATALOG, SECOND_ORDER, SPECIAL_POINTS, exterior_square,
                      sequence_residues)
from .classify import PointClass, check_operator, classify_operator
from .congruence import OutsideUnitDisk, check_dwork_congruence
from .diffop import ThetaOperator, leading_symbol
from .frobenius import (box_precision, frobenius_quartic, legendre_frobenius,
                        legendre_precision)
from .padic import is_odd_prime
from .polyrat import rational_roots
from .series import cache_series

__all__ = ["cache_series", "main"]


# -- shared computation helpers --------------------------------------------------

# The largest prime that ``table`` and ``frob`` take: a row solves series of
# p^3 terms, and the slowest catalog row, D*g with --no-cache, took 45 s at
# p = 61 and 76 s at p = 67 (2 cores, CPython 3.11).
PRIME_CEILING = 61
# The largest prime ``legendre`` takes: from p = 17 on its series has p terms,
# and an ordinary point took 23 s at p = 7 000 009 and 26 s at 8 000 009
# (2 cores, CPython 3.11).
LEGENDRE_CEILING = 8_000_009
# The largest --nmax and --smax that ``congruence`` takes.  Above s = 9 no
# two n <= NMAX_CEILING < 3^10 share a class mod p^s, so no ratio is checked.
# j, the slowest sequence, took 2.4 s at --nmax 50 000 --smax 9, p = 3 (70 MB
# peak; 2 cores, CPython 3.11).  A prime above --nmax is refused: it leaves
# every n <= --nmax in a class of its own at every s.
NMAX_CEILING = 50_000
SMAX_CEILING = 9


def _check_ceiling(n: int, ceiling: int) -> None:
    if n > ceiling:
        raise UsageError(f"{n} is above the prime ceiling {ceiling}")


def _check_prime(p: int, ceiling: Optional[int] = None) -> int:
    """p, if it is an odd prime no larger than ``ceiling`` (None: any)."""
    if not is_odd_prime(p):
        raise UsageError(f"{p} is not an odd prime")
    if ceiling is not None:
        _check_ceiling(p, ceiling)
    return p


def _parse_primes(text: str) -> List[int]:
    """Accept '3..17' (all odd primes in the range) or '3,5,7' / '7', each
    prime at most PRIME_CEILING, checked before anything is enumerated."""
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
        is_odd_prime(hi)  # an end beyond the prime check is named as such
        _check_ceiling(hi, PRIME_CEILING)
        primes = [p for p in range(max(lo, 3), hi + 1) if is_odd_prime(p)]
        if not primes:
            raise UsageError(f"no odd primes in range {text!r}")
        return primes
    if not listed:
        raise UsageError(f"no primes in list {text!r}")
    return [_check_prime(p, PRIME_CEILING)
            for p in dict.fromkeys(listed)]  # once each


def _load_operator(spec: str) -> ThetaOperator:
    """The operator of a catalog name, or of a JSON operator file named by
    its path, whatever its ``name`` field, once ``check_operator`` admits it."""
    if spec in CATALOG:
        op = CATALOG[spec]
    elif not os.path.exists(spec):
        raise UsageError(
            f"unknown operator {spec!r}: not a catalog name and not a file")
    else:
        op = read_input(spec, "operator file", ThetaOperator.from_json)
        op.name = spec
    check_operator(op)
    return op


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """The row cache directory of a command: None under --no-cache, else
    --cache-dir, $FROBCY_CACHE_DIR or $XDG_CACHE_HOME (~/.cache)/frobcy."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return os.environ.get("FROBCY_CACHE_DIR") or os.path.join(xdg, "frobcy")


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


CSV_COLUMNS = ("operator", "p", "z", "status", "a", "b",
               "alpha", "beta", "chi", "ap", "form")


def _csv_tables(groups: Sequence[Tuple[str, int, List[PointClass]]]) -> str:
    """CSV text (header + one line per point, empty fields where N/A,
    quoted where a field holds a comma or a quote)."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # writes None as ""
    writer.writerow(CSV_COLUMNS)
    writer.writerows([name, p, r.z0, r.status, r.a, r.b, r.alpha, r.beta,
                      r.chi, r.ap, r.form]
                     for name, p, rows in groups for r in rows)
    return buf.getvalue()


# The table formats, by their --format name, in the order of its choices.
FORMATS = {"markdown": _markdown_tables, "csv": _csv_tables,
           "json": _json_tables}


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# -- subcommands --------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    """Classify every (operator, prime) row, emit the rows that succeed, and
    report each failed row as one stderr line (exit 1)."""
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, not {args.jobs}")
    names = dict.fromkeys(name for spec in args.operator or ["all"]
                          for name in (CATALOG if spec == "all" else [spec]))
    ops = [_load_operator(n) for n in names]  # once each, in order
    primes = _parse_primes(args.primes)
    cache_dir = _cache_dir(args)
    # bound at call time: perfbench's traced run rebinds classify_operator
    task = partial(classify_operator, primes=primes, cache_dir=cache_dir)

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(ops))) as pool:
            outcomes = list(pool.map(task, ops))
    else:
        outcomes = list(map(task, ops))

    groups: List[Tuple[str, int, List[PointClass]]] = []
    errors: List[str] = []
    for name, op_rows in zip(names, outcomes):
        for p, rows in zip(primes, op_rows):
            if isinstance(rows, Exception):
                errors.append(f"{name} p={p}: {type(rows).__name__}: {rows}")
            else:
                groups.append((name, p, rows))

    if groups:
        _emit(FORMATS[args.format](groups))

    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if errors else 0


def cmd_frob(args: argparse.Namespace) -> int:
    """One cell, certified as in its table row (``classify_operator`` on the
    one point, escalating as needed); an explicit --precision is used as
    given and never escalates: a cell it does not settle is an error."""
    op = _load_operator(args.operator)
    p = _check_prime(args.prime, PRIME_CEILING)
    if args.precision is not None and args.precision < 1:
        raise UsageError(f"--precision must be >= 1, not {args.precision}")
    if args.precision is not None and args.precision > box_precision(p, True):
        raise UsageError(f"--precision must be <= {box_precision(p, True)} "
                         f"at p = {p}, not {args.precision}")
    z0 = args.point % p
    if z0 == 0:
        raise UsageError("the point must be nonzero mod p")
    row, = classify_operator(op, [p], points=[z0], cache_dir=_cache_dir(args),
                             precision=args.precision)
    if isinstance(row, Exception):
        raise row
    pc, = row
    result: Dict[str, object] = {
        "operator": args.operator, "p": p, "z": z0,
        "precision": pc.s,
    }
    if pc.status == "undefined":
        result.update(status="undefined", a=None, b=None, r1=None, rh=None,
                      cell="-")
    else:
        result.update(
            status=pc.status, a=pc.a, b=pc.b,
            alpha=pc.alpha, beta=pc.beta, chi=pc.chi, ap=pc.ap, form=pc.form,
            quartic=frobenius_quartic(pc.a, pc.b, p), cell=pc.cell(),
            r1=_padic_json(p, pc.s, pc.r1), rh=_padic_json(p, pc.s, pc.rh),
        )
    # a settled cell fits one admissible pair; "-" and "!" cells fit none
    result["certificate"] = {"fiber": pc.at_singular_fiber,
                             "candidates": 0 if pc.status in (
                                 "undefined", "inconsistent") else 1,
                             "escalated": pc.escalated}
    print(json.dumps(result, indent=1))
    return 0


def cmd_wedge(args: argparse.Namespace) -> int:
    print(exterior_square(_load_operator(args.operator)).to_json())
    return 0


def cmd_congruence(args: argparse.Namespace) -> int:
    name = args.sequence
    p = _check_prime(args.prime)
    for flag, value, lo, hi in (("--nmax", args.nmax, 0, NMAX_CEILING),
                                ("--smax", args.smax, 1, SMAX_CEILING)):
        if value < lo:
            raise UsageError(f"{flag} must be >= {lo}, not {value}")
        if value > hi:
            raise UsageError(f"{flag} must be <= {hi}, not {value}")
    if p > args.nmax:
        raise UsageError(f"--prime {p} is above --nmax {args.nmax}, so no "
                         f"two n <= {args.nmax} share a class mod p")
    if name not in CATALOG and name not in SECOND_ORDER:
        raise UsageError(f"unknown sequence {name!r}")
    coeffs, = sequence_residues(name, ((p, args.smax, args.nmax),))
    reports = [check_dwork_congruence(coeffs, p, s, args.nmax)
               for s in range(1, args.smax + 1)]
    payload = {"sequence": name, "prime": p, "n_max": args.nmax,
               "reports": reports, "ok": all(r["ok"] for r in reports)}
    print(json.dumps(payload, indent=1))
    return 0 if payload["ok"] else 1


def cmd_legendre(args: argparse.Namespace) -> int:
    p = _check_prime(args.prime, LEGENDRE_CEILING)
    result: Dict[str, object] = {"p": p, "s0": args.point % p}
    try:
        root, ap = legendre_frobenius(p, args.point)
    except OutsideUnitDisk:
        result.update(status="supersingular", pi=None, ap=None,
                      zeta_numerator=None)
    else:
        result.update(status="ordinary",
                      pi=_padic_json(p, legendre_precision(p), root), ap=ap,
                      zeta_numerator=[1, -ap, p])
    print(json.dumps(result, indent=1))
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.list:
        entries = [json.loads(op.to_json()) for op in CATALOG.values()]
        print(json.dumps(entries, indent=1))
        return 0
    for name, op in CATALOG.items():
        roots, _ = rational_roots(leading_symbol(op))
        points = ", ".join(str(r) for r, _m in sorted(roots)) or "none"
        special = "".join(f"  [{pt}: {label}]"
                          for pt, label in SPECIAL_POINTS.get(name, {}).items())
        print(f"{name}  #{op.aesz}  order {op.theta_order} "
              f"degree {op.z_degree}  symbol roots: {points}{special}")
    return 0


# -- argument parsing ----------------------------------------------------------------


def _add_cache_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--no-cache", action="store_true",
                    help="compute rows without reading or writing the cache")
    sp.add_argument("--cache-dir", default=None,
                    help="cache directory (default: $FROBCY_CACHE_DIR or the "
                         "user cache path)")


def _fill_table(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--operator", action="append",
                    help="catalog name, operator JSON file, or 'all' for "
                         "every catalog operator (repeatable; default: all)")
    sp.add_argument("--primes", default="3..17",
                    help="prime range '3..17' or list '3,5,7' (default 3..17)")
    sp.add_argument("--format", choices=FORMATS, default="markdown")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes (output independent of the value)")
    _add_cache_flags(sp)


def _fill_frob(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--operator", required=True)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--point", type=int, required=True)
    sp.add_argument("--precision", type=int, default=None)
    _add_cache_flags(sp)


def _fill_wedge(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--operator", required=True)


def _fill_congruence(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--sequence", required=True,
                    help="sequence name (A-D, a-j) or catalog operator")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--nmax", type=int, default=2000)
    sp.add_argument("--smax", type=int, default=3)


def _fill_legendre(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--point", type=int, required=True)


def _fill_catalog(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--list", action="store_true",
                    help="emit every operator in the JSON interchange format")


# The subcommands, in the order of the help: name -> (help, filler, handler).
COMMANDS = {
    "table": ("full (a,b) tables per operator and prime", _fill_table, cmd_table),
    "frob": ("one Frobenius cell as JSON", _fill_frob, cmd_frob),
    "wedge": ("exterior-square operator as JSON", _fill_wedge, cmd_wedge),
    "congruence": ("ratio-congruence sweep as JSON", _fill_congruence, cmd_congruence),
    "legendre": ("elliptic baseline a_p as JSON", _fill_legendre, cmd_legendre),
    "catalog": ("operator catalog", _fill_catalog, cmd_catalog),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every subcommand when
    ``command`` is None or not one of ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="frobcy",
        description="Degree-four Frobenius polynomials of fourth-order "
                    "Calabi-Yau operators by the p-adic unit-root method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fill, handler) in COMMANDS.items():
        if command not in COMMANDS or name == command:
            sp = sub.add_parser(name, help=help_text)
            fill(sp)
            sp.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; the one place where errors become exit codes.

    Only the subcommand named first is built.  Arguments it leaves over are
    reported by the full parser, whose usage line lists every subcommand.
    The exit hook ``gc.freeze`` is registered once, whatever the number of
    calls: it only spares the interpreter's exit-time collection, so the
    caller's heap is collected as usual until then."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if extra:
        build_parser().parse_args(argv)  # exits with the error
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
