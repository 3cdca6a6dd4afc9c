"""Schema-driven cell rendering and parsing shared by the backends.

One pair of primitives defines the loss-free text form of every cell —
the CSV backend uses both directions, the SQLite and JSONL backends
reuse the pieces that apply to them (date parsing, big-integer text
round-trips, the non-finite rejection):

* nominal — the raw string,
* numeric — ``str`` of an int / ``repr`` of a float (exact round trip),
* date — ISO format (``YYYY-MM-DD``),
* null — a configurable marker (default: empty field).

``nan`` / ``inf`` spellings are rejected here, at the parse site:
non-finite floats are not admissible cell values (no
:class:`~repro.schema.domain.NumericDomain` contains them), and
``float("nan")`` slipping through would only be caught much later, far
from the offending row. Backends wrap the :class:`ValueError` with the
row and attribute context (:func:`cell_context`).

Every backend converts through one :class:`ColumnConverters` per read:
per-cell callables for the row path and for error replay, and one
whole-column callable per attribute for the column path (see the class
docstring for the replay rule).
"""

from __future__ import annotations

import datetime
import math
from itertools import repeat
from operator import is_
from typing import Callable, Optional, Sequence

import numpy as np

from repro.schema.types import AttributeKind, Value

__all__ = [
    "DEFAULT_NULL_MARKER",
    "render_cell",
    "parse_cell",
    "parse_number",
    "coerce_number",
    "check_finite",
    "cell_context",
    "convert_row",
    "ColumnConverters",
    "text_converters",
    "typed_converters",
]

DEFAULT_NULL_MARKER = ""


def render_cell(value: Value, kind: AttributeKind, null_marker: str = DEFAULT_NULL_MARKER) -> str:
    """Render one cell to its canonical text form."""
    if value is None:
        return null_marker
    if kind is AttributeKind.DATE:
        return value.isoformat()  # type: ignore[union-attr]
    if kind is AttributeKind.NUMERIC:
        if isinstance(value, int):
            return str(value)
        return repr(float(value))
    return str(value)


def check_finite(number: float, text: object = None) -> float:
    """Reject non-finite numerics with a :class:`ValueError` at the source."""
    if not math.isfinite(number):
        shown = number if text is None else text
        raise ValueError(
            f"non-finite numeric value {shown!r} "
            f"(nan/inf are not admissible cell values)"
        )
    return number


def parse_number(text: str, integer: bool) -> Value:
    """Parse the text form of a numeric cell (exact for ints of any size)."""
    if integer:
        return int(text)
    return _parse_real(text)


def _parse_real(text: str) -> Value:
    """``parse_number(text, False)``: the float, or the int an integral
    spelling without ``.``/exponent denotes."""
    number = check_finite(float(text), text)
    if number.is_integer() and "." not in text and "e" not in text.lower():
        return int(text)
    return number


def coerce_number(value: float, integer: bool) -> Value:
    """Validate an already-typed numeric cell (SQLite/JSONL read side).

    Mirrors the strictness of :func:`parse_number`: non-finite floats are
    rejected everywhere, and a non-integral float can never belong to an
    integer domain (integral floats pass — the domain admits them).
    """
    if isinstance(value, float):
        check_finite(value)
        if integer and not value.is_integer():
            raise ValueError(
                f"expected an integer for an integer-domain cell, got {value!r}"
            )
    return value


def parse_cell(
    text: str, kind: AttributeKind, null_marker: str, integer: bool
) -> Value:
    """Inverse of :func:`render_cell`, schema-driven."""
    if text == null_marker:
        return None
    if kind is AttributeKind.NOMINAL:
        return text
    if kind is AttributeKind.DATE:
        return datetime.date.fromisoformat(text)
    return parse_number(text, integer)


def cell_context(row_label: str, attribute: str, exc: Exception) -> ValueError:
    """A :class:`ValueError` naming the offending row and attribute."""
    return ValueError(f"{row_label}, attribute {attribute!r}: {exc}")


def convert_row(row_label: str, raw_cells, converters, names) -> list:
    """Convert one row of raw cells, localizing failures.

    The happy path is a bare comprehension (no per-cell try/except
    cost); only when a cell fails is the row re-walked to name the
    offending attribute in the error. Shared by every backend's read
    side so cell errors look the same regardless of storage format.
    """
    try:
        return [convert(raw) for convert, raw in zip(converters, raw_cells)]
    except ValueError:
        for convert, raw, name in zip(converters, raw_cells, names):
            try:
                convert(raw)
            except ValueError as exc:
                raise cell_context(row_label, name, exc) from None
        raise  # pragma: no cover - comprehension failed, cells did not


# -- whole-column conversion --------------------------------------------------

#: A column converter: one transposed raw column -> (converted values,
#: null mask or ``None`` when the column holds no null).
ColumnConverter = Callable[[Sequence], tuple[list, Optional[np.ndarray]]]

_NONE = type(None)


class ColumnConverters:
    """The converters of one schema for one storage layout.

    * :attr:`cells` — one per-cell callable per attribute (raw cell →
      value); the row path and the error replay run these.
    * :meth:`convert_columns` — the column path: one whole-column
      converter per attribute, each a single comprehension (or C-level
      ``map``) over a transposed raw column, making exactly the calls
      the per-cell converter makes. Row labels are built only when a
      conversion fails: the batch is then replayed row by row
      (:meth:`raise_row_errors`), so the raised error names the first
      bad cell in row-major order, byte-identical to the row path's.
    """

    __slots__ = ("names", "cells", "columns")

    def __init__(
        self,
        names: Sequence[str],
        cells: Sequence[Callable],
        columns: Sequence[ColumnConverter],
    ):
        self.names = tuple(names)
        self.cells = list(cells)
        self.columns = list(columns)

    def convert_row(self, row_label: str, raw_cells) -> list:
        """Convert one schema-ordered raw row (the row path)."""
        return convert_row(row_label, raw_cells, self.cells, self.names)

    def raise_row_errors(
        self, raw_columns: Sequence[Sequence], row_label: Callable[[int], str]
    ) -> None:
        """Convert transposed raw columns row by row, raising the row
        path's error for the first bad cell (if any).

        *row_label* maps a row's index within the columns to its label
        (``"line 7"``, ``"row 12"``).
        """
        for i, raw_cells in enumerate(zip(*raw_columns)):
            convert_row(row_label(i), raw_cells, self.cells, self.names)

    def convert_columns(
        self, raw_columns: Sequence[Sequence], row_label: Callable[[int], str]
    ) -> tuple[list[list], list[Optional[np.ndarray]]]:
        """Convert schema-ordered raw columns; returns ``(values, masks)``
        per attribute (mask ``None``: the column holds no null)."""
        try:
            converted = [
                convert(raw) for convert, raw in zip(self.columns, raw_columns)
            ]
        except ValueError:
            self.raise_row_errors(raw_columns, row_label)
            raise  # pragma: no cover - a column failed, no row did
        return [values for values, _ in converted], [mask for _, mask in converted]


def _text_column(parse: Optional[Callable], marker: str) -> ColumnConverter:
    """Whole-column twin of :func:`parse_cell` for one attribute:
    *parse* is ``None`` for nominal text (kept as is)."""

    def convert(raw: Sequence) -> tuple[list, Optional[np.ndarray]]:
        nulls = _positions(raw, marker)
        if not nulls:
            return (list(raw) if parse is None else list(map(parse, raw))), None
        mask = np.zeros(len(raw), dtype=bool)
        mask[nulls] = True
        if parse is not None:
            return [None if t == marker else parse(t) for t in raw], mask
        values = list(raw)
        for i in nulls:
            values[i] = None
        return values, mask

    return convert


def _positions(raw: Sequence, marker: str) -> list[int]:
    """Indices of the cells equal to *marker* — C-level ``index`` scans,
    one Python step per hit (nulls are rare)."""
    found: list[int] = []
    index = raw.index
    i = -1
    while True:
        try:
            i = index(marker, i + 1)
        except ValueError:
            return found
        found.append(i)


def _text_parser(kind: AttributeKind, integer: bool) -> Optional[Callable]:
    if kind is AttributeKind.NOMINAL:
        return None
    if kind is AttributeKind.DATE:
        return datetime.date.fromisoformat
    return int if integer else _parse_real


def _text_cell(parse: Optional[Callable], marker: str) -> Callable:
    """:func:`parse_cell` for one attribute, its kind dispatch done once."""
    if parse is None:
        return lambda text: None if text == marker else text
    return lambda text: None if text == marker else parse(text)


def text_converters(
    schema, null_marker: str = DEFAULT_NULL_MARKER
) -> ColumnConverters:
    """Converters of text cells (CSV), with :func:`parse_cell` semantics."""
    parsers = [
        _text_parser(a.kind, getattr(a.domain, "integer", False))
        for a in schema.attributes
    ]
    return ColumnConverters(
        schema.names,
        [_text_cell(parse, null_marker) for parse in parsers],
        [_text_column(parse, null_marker) for parse in parsers],
    )


def _typed_column(
    coerce: Callable, kind: AttributeKind, integer: bool
) -> ColumnConverter:
    """Whole-column twin of a typed per-cell *coerce* (JSONL, SQLite).

    Columns whose cells all have the exact type the lane expects skip
    the per-cell call: strings of a nominal and ints of a numeric column
    come back unchanged, ISO strings of a date column parse straight
    through :meth:`datetime.date.fromisoformat`. Any other mix goes
    through *coerce* cell by cell.
    """
    if kind is AttributeKind.NOMINAL:
        fast, parse = {str, _NONE}, None
    elif kind is AttributeKind.DATE:
        fast, parse = {str, _NONE}, datetime.date.fromisoformat
    else:
        fast, parse = {int, _NONE}, None

    def convert(raw: Sequence) -> tuple[list, Optional[np.ndarray]]:
        types = set(map(type, raw))
        if not types <= fast:
            values = [coerce(v, kind, integer) for v in raw]
        elif parse is None:
            values = list(raw)
        else:
            values = [None if v is None else parse(v) for v in raw]
        if _NONE not in types:
            return values, None
        return values, np.fromiter(
            map(is_, raw, repeat(None)), dtype=bool, count=len(raw)
        )

    return convert


def typed_converters(schema, coerce: Callable) -> ColumnConverters:
    """Converters of natively typed cells: *coerce(raw, kind, integer)*
    per cell, which must map ``None`` (and only ``None``) to ``None``,
    pass strings of nominal and ints of numeric attributes through
    unchanged and parse date strings with ``date.fromisoformat`` — the
    JSONL and SQLite read sides."""
    cells, columns = [], []
    for attribute in schema.attributes:
        kind = attribute.kind
        integer = getattr(attribute.domain, "integer", False)
        cells.append(
            lambda raw, kind=kind, integer=integer: coerce(raw, kind, integer)
        )
        columns.append(_typed_column(coerce, kind, integer))
    return ColumnConverters(schema.names, cells, columns)
