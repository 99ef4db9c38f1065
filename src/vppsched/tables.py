"""The package's one table codec: every CSV it reads or writes.

A table is a header line and one line per row. Cells are separated by
commas and never quoted, and lines end in LF; CRLF tables read the same.
Integers and strings are written as they are (a bool as 0 or 1) and every
other value as ``repr(float(x))``, which round-trips doubles exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np


class TableError(Exception):
    """A missing column, a cell that does not parse, or a row whose cell
    count differs from the header's; the message names the file, the line
    and the column."""


def _cell(value) -> str:
    if isinstance(value, str):
        if any(c in value for c in ',"\r\n'):
            raise TableError(f"cell {value!r} holds a comma, a quote or a line break")
        return value
    return str(int(value)) if isinstance(value, int) else repr(float(value))


def _column(values) -> list[str]:
    """The cells of a column as ``_cell`` writes each; a numeric array in one
    pass, every entry as ``repr(float(x))`` (a NumPy integer or bool is no
    Python int)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        return list(map(repr, values.astype(float).tolist()))
    return list(map(_cell, values))


def _write(path, lines) -> None:
    """Write the lines of cell strings that ``lines()`` gives; a refused
    cell writes no file."""
    try:
        text = "".join(",".join(line) + "\n" for line in lines())
    except TableError as exc:
        raise TableError(f"{path}: {exc}") from None
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write(path, header, rows) -> None:
    """Write a header and rows of cells; a refused cell writes no file."""
    _write(path, lambda: (map(_cell, row) for row in [header, *rows]))


def write_columns(path, columns: dict) -> None:
    """Write equal-length columns, given by name in file order, formatting
    each column at once."""
    _write(path, lambda: [map(_cell, columns),
                          *zip(*map(_column, columns.values()), strict=True)])


def read(path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a table, as strings."""
    with open(path) as fh:
        lines = fh.read().strip().splitlines() or [""]
    header, *rows = [line.strip().split(",") for line in lines]
    for k, row in enumerate(rows):
        if len(row) != len(header):
            column = header[len(row)] if len(row) < len(header) else len(header) + 1
            raise TableError(f"{path}, line {k + 2}, column {column}: "
                             f"{len(row)} cells, the header has {len(header)}")
    return header, rows


_PARSERS = {"str": str, "int": int, "float": float,
            "bool": lambda cell: cell.strip().lower() in ("1", "true")}


def _refuse(path, header, rows, parsers) -> None:
    """Raise ``TableError`` at the first cell that its column's parser
    rejects; ``parsers`` pairs column indices with parsers."""
    for k, row in enumerate(rows):
        for j, parse in parsers:
            try:
                parse(row[j])
            except ValueError:
                raise TableError(f"{path}, line {k + 2}, column {header[j]}: "
                                 f"{row[j]!r} is not a valid {parse.__name__}") from None


class _Columns(dict):
    def __missing__(self, name):
        raise TableError(f"{self.path}, line 1, column {name}: no such column")


def read_columns(path) -> dict[str, np.ndarray]:
    """Every column of an all-numeric table, as a float array by name; a
    missing name raises ``TableError``."""
    header, rows = read(path)
    try:
        values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError:
        _refuse(path, header, rows, [(j, float) for j in range(len(header))])
        raise
    columns = _Columns(zip(header, values.T.copy()))
    columns.path = path
    return columns


def read_records(path, cls, columns: tuple[str, ...]) -> list:
    """One ``cls`` instance per row; ``columns`` names the table column of
    each field of ``cls``, in field order. A column may be absent only when
    its field has a default."""
    header, rows = read(path)
    picks = []
    for f, name in zip(dataclasses.fields(cls), columns, strict=True):
        if name in header:
            picks.append((f.name, header.index(name), _PARSERS[f.type]))
        elif f.default is dataclasses.MISSING:
            raise TableError(f"{path}, line 1, column {name}: no such column")
    try:
        return [cls(**{field: parse(row[j]) for field, j, parse in picks})
                for row in rows]
    except ValueError:
        _refuse(path, header, rows, [(j, parse) for _, j, parse in picks])
        raise


def write_records(path, columns: tuple[str, ...], records) -> None:
    """Write dataclass instances, one per row, under ``columns``."""
    write(path, columns, (dataclasses.astuple(r) for r in records))
