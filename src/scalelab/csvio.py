"""Unit-annotated CSV ingestion and canonical serialization.

Format: UTF-8, comma-separated, decimal point.  The header row names every
column as ``name[unit]``, where the bracketed unit expression must resolve
in the registry; data rows are plain numbers, already expressed in the
header's unit.  Lines whose first non-blank character is ``#`` are
comments; blank lines are ignored.  A quantity in a file is therefore
always a (number, unit) pair, never a bare number.
"""

from __future__ import annotations

import csv
import os
import re
import tempfile

import numpy as np

from .errors import DataError
from .regression import DataSet
from .units import UnitRegistry, _Value, default_registry

__all__ = ["CsvSchema", "parse_header", "load_csv", "dump_csv", "save_csv", "atomic_write"]

_HEADER_RE = re.compile(r"^\s*(?P<name>[^\[\]]+?)\s*\[(?P<unit>[^\[\]]+)\]\s*$")


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


def _content_lines(text: str):
    """Yield (file_line_number, line) for non-comment, non-blank lines."""
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, line


def load_csv(path: str, registry: UnitRegistry | None = None) -> DataSet:
    """Load a unit-annotated CSV file into a DataSet.

    Any unparseable, non-finite or ragged row aborts the load with its
    file line number; a file with a header but no data rows is an error.
    """
    registry = registry or default_registry()
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path!r}: {exc}") from exc

    lines = list(_content_lines(text))
    if not lines:
        raise DataError(f"{path!r} has no header row")

    header_cells = next(csv.reader([lines[0][1]]))
    schema = parse_header(header_cells)
    units = [registry.resolve(expr) for expr in schema.unit_expressions]

    columns: list[list[float]] = [[] for _ in schema.names]
    for number, line in lines[1:]:
        cells = next(csv.reader([line]))
        if len(cells) != len(schema.names):
            raise DataError(
                f"line {number}: expected {len(schema.names)} fields, "
                f"got {len(cells)}"
            )
        for index, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"line {number}, column {schema.names[index]!r}: "
                    f"cannot parse {cell.strip()!r} as a number"
                ) from None
            columns[index].append(value)
    if not columns[0]:
        raise DataError(f"{path!r} has no data rows")

    arrays = [np.array(values, dtype=float) for values in columns]
    for name, values in zip(schema.names, arrays):
        finite = np.isfinite(values)
        if not finite.all():
            row = int(np.argmin(finite))
            raise DataError(
                f"line {lines[1 + row][0]}, column {name!r}: "
                f"{float(values[row])!r} is not a finite number"
            )
    return DataSet(
        {
            name: (values, unit)
            for name, values, unit in zip(schema.names, arrays, units)
        }
    )


def dump_csv(ds: DataSet) -> str:
    """Serialize a DataSet back to canonical CSV text.

    Numbers are written in shortest round-trip form, so loading and
    re-serializing canonical text is the identity.
    """
    names = ds.names
    header = ",".join(f"{name}[{ds.column(name).unit.symbol}]" for name in names)
    rows = [header]
    arrays = [ds.column(name).values for name in names]
    for i in range(ds.n):
        rows.append(",".join(repr(float(arr[i])) for arr in arrays))
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
    except OSError as exc:
        raise DataError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def save_csv(ds: DataSet, path: str) -> None:
    atomic_write(path, dump_csv(ds))
