"""Exact and p-adic tools for fourth-order Calabi-Yau type operators:

* p-adic helpers on integer residues mod p^s: Teichmueller lifts, balanced
  residues, Horner evaluation and the one prime check (``padic``)
* exact polynomial algebra over Z[z] on integer coefficient lists (``polyrat``)
* theta-form differential operators and series solutions (``diffop``)
* exterior-square fifth-order companions (``wedge``)
* the catalog of 24 Hadamard-product operators and their sequences (``catalog``)
* truncated-ratio congruence checks for coefficient sequences (``congruence``)
* degree-4 Frobenius polynomials from p-adic unit roots (``frobenius``)
* the one series fetch, through the disk cache or solved afresh (``series``)
* splitting classification, modular-form matching and the one row
  pipeline (``classify``)
* the ``frobcy`` command line (``cli``)

Every exception class the package defines derives from ``FrobcyError``; the
command line reports a ``UsageError`` with exit code 2 and any other
``FrobcyError`` with exit code 1, each as one line.  Files from outside,
operator files and form fixtures, are read by ``read_input`` alone.
"""

from typing import Any, Callable

__version__ = "1.0.0"


class FrobcyError(Exception):
    """Base of every error frobcy raises on purpose."""


class UsageError(FrobcyError, ValueError):
    """The request itself is invalid: a bad argument, operator file or point."""


def read_input(path, kind: str, parse: Callable[[str], Any]) -> Any:
    """``parse`` of the UTF-8 text of the file at ``path``; any defect of
    it, a missing field (KeyError) or nesting past the recursion limit too,
    is one UsageError naming the ``kind`` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except KeyError as exc:
        raise UsageError(f"{kind} {str(path)!r} has no field {exc}") from None
    except (OSError, ValueError, TypeError, AttributeError,
            RecursionError) as exc:
        raise UsageError(f"{kind} {str(path)!r}: {exc}") from None
