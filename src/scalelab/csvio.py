r"""Unit-annotated CSV ingestion and canonical serialization.

Format: UTF-8, decimal point.  Lines end at ``\n``, ``\r\n`` or ``\r``
only (a form feed or U+2028 is a character of its line), and every line,
the header too, splits into cells at each comma; no quote is stripped.
The header row names every column as ``name[unit]``, where the bracketed
unit expression must resolve in the registry; data rows are plain
numbers, already expressed in the header's unit.  Lines whose first
non-blank character is ``#`` are comments; blank lines are ignored.  A
quantity in a file is therefore always a (number, unit) pair, never a
bare number.

A data cell is a ``number`` of the :mod:`scalelab.units` grammar, padded
or not with spaces or tabs, never quoted.  Each line is matched against
one pattern built from that grammar; a line that fails it is read cell by
cell through the reader of ``units``, which names a bad cell as it names
a bad number in a quantity, after ``line N, column 'name':``.

Cells are read into Python floats; loading a file never imports numpy.
"""

from __future__ import annotations

import math
import os
import re
import tempfile

from .errors import DataError, ScaleLabError
from .regression import DataSet
from .units import _NUMBER, UnitRegistry, _real, _Value, default_registry

__all__ = ["CsvSchema", "parse_header", "load_csv", "dump_csv", "save_csv", "atomic_write"]

_HEADER_RE = re.compile(r"^\s*(?P<name>[^\[\]]+?)\s*\[(?P<unit>[^\[\]]+)\]\s*$")
# A 3-digit negative exponent.  Matching from its "-", a literal, lets a
# search skip ahead at string speed.
_TINY_EXPONENT = re.compile(r"-(?<=[eE]-)0*[1-9][0-9]{2}")


class CsvSchema(_Value):
    """Column names with the unit symbols parsed from ``name[unit]`` headers."""

    __slots__ = ("names", "unit_expressions")

    def __init__(self, names: tuple[str, ...], unit_expressions: tuple[str, ...]):
        self.__setstate__((names, unit_expressions))


def parse_header(cells: list[str]) -> CsvSchema:
    names = []
    units = []
    for cell in cells:
        match = _HEADER_RE.match(cell)
        if not match:
            raise DataError(
                f"header cell {cell!r} does not match 'name[unit]'"
            )
        names.append(match.group("name"))
        units.append(match.group("unit"))
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate column name(s): {', '.join(duplicates)}")
    return CsvSchema(tuple(names), tuple(units))


def load_csv(path: str, registry: UnitRegistry | None = None) -> DataSet:
    """Load a unit-annotated CSV file into a DataSet.

    A malformed or ragged row, a number past the float range or a byte
    that is not UTF-8 aborts the load with its file line number; a file
    with a header but no data rows is an error.
    """
    registry = registry or default_registry()
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start indexes exc.object, the bytes after any byte order mark;
        # the bytes before it decode.
        number = 1 + _newlines(exc.object[:exc.start].decode()).count("\n")
        raise DataError(f"cannot read {path!r}: line {number} is not UTF-8 "
                        f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DataError(f"cannot read {path!r}: {exc}") from exc

    text = _newlines(text)
    lines = [(number, line) for number, line in enumerate(text.split("\n"), start=1)
             if (stripped := line.strip()) and stripped[0] != "#"]
    if not lines:
        raise DataError(f"{path!r} has no header row")

    schema = parse_header(lines[0][1].split(","))
    units = [registry.resolve(expr) for expr in schema.unit_expressions]

    names = schema.names
    # Padding is [ \t], not \s: \s also matches \x1c-\x1f, which float() rejects.
    row = re.compile(",".join([f"[ \t]*{_NUMBER}[ \t]*"] * len(names)))
    values: list[float] = []
    for number, line in lines[1:]:
        if not row.fullmatch(line):  # read cell by cell, to name what is wrong
            cells = line.split(",")
            if len(cells) != len(names):
                raise DataError(f"line {number}: expected {len(names)} fields, got {len(cells)}")
            for name, cell in zip(names, cells):
                _cell(number, name, cell)
        values += map(float, line.split(","))
    if not values:
        raise DataError(f"{path!r} has no data rows")

    # A cell past the float range reads as inf, or as 0 if it underflows;
    # the reader re-reads it to name it, and lets a true zero pass.  A 0
    # can be an underflow only if the file holds a 3-digit negative
    # exponent or a run of 200 zeros: below 1e-300, a number whose exponent
    # has at most 2 digits has over 200 zeros before its first other digit.
    width = len(names)
    zeros = 0.0 in values and ("0" * 200 in text or _TINY_EXPONENT.search(text))
    cells = []
    if zeros or not all(map(math.isfinite, values)):
        cells = [divmod(k, width) for k, value in enumerate(values)
                 if math.isinf(value) or (zeros and value == 0)]
    for i, j in cells:
        number, line = lines[1 + i]
        _cell(number, names[j], line.split(",")[j])
    return DataSet({name: (values[j::width], unit)
                    for j, (name, unit) in enumerate(zip(names, units))})


def _newlines(text: str) -> str:
    """``text`` with each line end, ``\\r\\n``, ``\\r`` or ``\\n``, as ``\\n``."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _cell(number: int, name: str, cell: str) -> float:
    """A cell, read through ``units``' number reader, whose error names its
    line and column."""
    try:
        return _real(cell.strip(" \t"))
    except ScaleLabError as exc:
        raise DataError(f"line {number}, column {name!r}: {exc}") from None


def dump_csv(ds: DataSet) -> str:
    """Serialize a DataSet back to canonical CSV text.

    Numbers are written in shortest round-trip form, so loading and
    re-serializing canonical text is the identity.
    """
    names = ds.names
    header = ",".join(f"{name}[{ds.column(name).unit.symbol}]" for name in names)
    rows = [header]
    for row in zip(*(ds.column(name).data for name in names)):
        rows.append(",".join(map(repr, row)))
    return "\n".join(rows) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write text to path via a temporary file and rename.

    A path that cannot be written, such as one in a missing directory,
    raises DataError naming it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DataError(f"cannot write {path!r}: {getattr(exc, 'strerror', None) or exc}") from exc


def save_csv(ds: DataSet, path: str) -> None:
    atomic_write(path, dump_csv(ds))
