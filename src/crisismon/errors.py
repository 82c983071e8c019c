"""Exception taxonomy and the on-disk formats shared across the package.

Two broad failure families matter to callers (and to the CLI exit codes):

* ``FormatError`` and ``OSError`` -- an input file could not be read or does
  not follow its documented format (CLI exit code 2).
* ``ValueError`` -- the inputs parsed fine but violate a contract, e.g. an
  empty lexicon or a reversed date range (CLI exit code 1).

Every CSV and JSON file but the corpus is read and written here, so the
header check, the line-numbered error, the float cell (its ``repr``, blank
when missing), the JSON encoding and the rejection of a repeated JSON key are
each decided once. So are the date form, ``YYYY-MM-DD`` on every Python,
and the text of Python's error for an integer of too many digits, which
differs between patch releases.
"""

import csv
import json
import re
import sys
from contextlib import contextmanager
from datetime import date
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence


class FormatError(Exception):
    """An input file violates its documented on-disk format."""


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a UTF-8 text input, less a leading BOM; a decode error while
    reading names the file."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # The codec's position counts from a read buffer, not the file: left out.
        raise FormatError(f"{path}: not valid utf-8: {exc.reason}") from exc


def read_csv(path: str | Path, columns: Sequence[str],
             parse: Callable[[dict[str, str]], object]) -> list:
    """``parse(row)`` for each row of a CSV whose header holds ``columns``.

    A missing column, one named twice, a row that lacks a cell of one, a cell
    too long for ``csv``, or a ``ValueError`` or ``TypeError`` from ``parse``,
    is a :class:`FormatError` naming the file and, but for a missing column,
    the line its row ends on. So ``parse`` sees a string in each of ``columns``.
    """
    out = []
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            if not set(columns) <= set(header):
                raise FormatError(f"{path}: expected columns {','.join(columns)}")
            if twice := [c for c in columns if header.count(c) > 1]:
                raise FormatError(f"{path}: line 1: column {twice[0]!r} named twice")
            for row in reader:
                try:
                    if short := [c for c in columns if row[c] is None]:
                        raise ValueError(f"no cell for column {short[0]!r}")
                    out.append(parse(row))
                except (ValueError, TypeError) as exc:
                    raise FormatError(f"{path}: line {reader.reader.line_num}: {exc}") from exc
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.reader.line_num}: {exc}") from exc
    return out


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cell(x: float | None) -> str:
    """A float's CSV cell: its ``repr``, or blank for a missing (None or NaN) value."""
    return "" if x is None or x != x else repr(x)


# Python's error for a decimal string of more digits than it converts; 3.10
# says ``limit (4300)`` where later releases say ``limit (4300 digits)``.
_INT_LIMIT = re.compile(r"Exceeds the limit \(\d+(?: digits)?\) for integer string conversion: "
                        r"value has (\d+) digits")


def error_text(exc: Exception) -> str:
    """``str(exc)``, but an integer of too many digits reads ``an integer of N
    digits, more than L`` on every Python, without Python's advice to raise
    the limit: no crisismon user can."""
    text = str(exc)
    if m := _INT_LIMIT.match(text):
        return f"an integer of {m[1]} digits, more than {sys.get_int_max_str_digits()}"
    return text


_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> date:
    """A ``YYYY-MM-DD`` date on every Python: 3.11's ``date.fromisoformat``
    also reads ``20200301`` and ``2020-W10-1``, and 3.10's does not. Any
    other form fails in CPython's own words."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


# A JSON escape of U+D800..U+DFFF; a pair of them decodes to one character.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_json(path: str | Path) -> object:
    """A JSON file's value; a key repeated in any of its objects is a format
    error rather than a silent last-wins, and so is a key or string that
    holds a lone surrogate escape, which no UTF-8 output could hold."""
    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            dupe = next(k for k in obj if keys.count(k) > 1)
            raise FormatError(f"{path}: duplicate key {dupe!r}")
        return obj

    with open_text(path) as fh:
        text = fh.read()
    try:
        value = json.loads(text, object_pairs_hook=unique)
    except (ValueError, RecursionError) as exc:  # bad syntax, a 4,301-digit int, deep nesting
        raise FormatError(f"{path}: invalid JSON: {error_text(exc)}") from exc
    if _SURROGATE_ESCAPE.search(text):  # rare: only then is the whole value encoded
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(f"{path}: lone surrogate {exc.object[exc.start]!r} in a string; "
                              "JSON strings must be valid Unicode") from None
    return value


def write_json(path: str | Path, obj: object) -> None:
    Path(path).write_text(
        json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
