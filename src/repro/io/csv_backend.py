"""CSV backend: header-checked, schema-driven text tables.

The historical format of the pipeline (and still the default). The
header row must name exactly the schema's attributes; column order in
the file may differ from schema order. Cells follow the canonical text
forms of :mod:`repro.io.cells`; nulls are a configurable marker
(``null_marker``, default: empty field).

Both ends accept a path or an open text stream — streams passed in by
the caller are left open on :meth:`close`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, TextIO, Union

from repro.io.base import TableSink, TableSource, open_text
from repro.io.cells import DEFAULT_NULL_MARKER, render_cell, text_converters
from repro.io.columnar import TRANSPOSE_ROWS, ColumnBatch
from repro.schema.schema import Schema
from repro.schema.types import Value

__all__ = ["CsvTableSource", "CsvTableSink"]


class CsvTableSource(TableSource):
    """Schema-driven CSV reader (path or text stream).

    Natively columnar: :meth:`column_batches` moves the reader's own
    field lists into raw columns every
    :data:`~repro.io.columnar.TRANSPOSE_ROWS` records and converts each
    batch with one converter per column
    (:func:`~repro.io.cells.text_converters`) — no per-row reorder list,
    no per-row converted list — with errors replayed row-wise for byte
    parity with the row path (:mod:`repro.io.columnar`). Errors name the
    line a record starts on, counted in physical lines (quoted fields
    may span several).
    """

    supports_columns = True

    def __init__(
        self,
        schema: Schema,
        source: Union[str, Path, TextIO],
        *,
        null_marker: str = DEFAULT_NULL_MARKER,
    ):
        super().__init__(schema)
        self.null_marker = null_marker
        self._handle, self._owns_handle = open_text(source, "r", newline="")
        try:
            self._reader = csv.reader(self._handle)
            try:
                header = next(self._reader)
            except StopIteration:
                raise ValueError("CSV input is empty (missing header row)") from None
            if set(header) != set(schema.names):
                raise ValueError(
                    f"CSV header {header!r} does not match schema attributes "
                    f"{list(schema.names)!r}"
                )
            self._n_fields = len(header)
            self._order = [header.index(name) for name in schema.names]
        except Exception:
            self.close()
            raise

    def _iter_rows(self) -> Iterator[list[Value]]:
        converters = text_converters(self.schema, self.null_marker)
        order = self._order
        reader = self._reader
        line_end = reader.line_num
        for fields in reader:
            # a record starts on the line after the previous one ended
            # (quoted fields may span lines)
            line_no, line_end = line_end + 1, reader.line_num
            if len(fields) != self._n_fields:
                raise ValueError(
                    f"line {line_no}: expected {self._n_fields} fields, "
                    f"got {len(fields)}"
                )
            yield converters.convert_row(
                f"line {line_no}", [fields[src] for src in order]
            )

    def _iter_column_batches(self, batch_size: int):
        converters = text_converters(self.schema, self.null_marker)
        order = self._order
        n_fields = self._n_fields
        reader = self._reader
        pending: list[list[str]] = []  # records not yet moved into columns
        columns: list[list[str]] = [[] for _ in order]  # schema-ordered raw cells
        line_ends: list[int] = []  # reader.line_num after each batch record
        first_line = reader.line_num + 1  # start line of the batch's first record

        def label(i: int) -> str:  # built only on the error path
            return f"line {line_ends[i - 1] + 1 if i else first_line}"

        def transpose() -> list:
            if pending:
                fields_by_column = list(zip(*pending))
                pending.clear()
                for column, src in zip(columns, order):
                    column.extend(fields_by_column[src])
            return columns

        def flush() -> ColumnBatch:
            nonlocal columns, first_line
            raw, columns = transpose(), [[] for _ in order]
            batch = ColumnBatch.from_raw(self.schema, converters, raw, label)
            first_line = line_ends[-1] + 1
            line_ends.clear()
            return batch

        push, push_end = pending.append, line_ends.append
        for fields in reader:
            if len(fields) != n_fields:
                # surface any cell error in an earlier buffered row first
                # (the row path converts strictly in row order)
                line_no = line_ends[-1] + 1 if line_ends else first_line
                if line_ends:
                    converters.raise_row_errors(transpose(), label)
                raise ValueError(
                    f"line {line_no}: expected {n_fields} fields, "
                    f"got {len(fields)}"
                )
            push(fields)
            push_end(reader.line_num)
            if len(pending) >= TRANSPOSE_ROWS:
                transpose()
            if len(line_ends) >= batch_size:
                yield flush()
        if line_ends:
            yield flush()

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()


class CsvTableSink(TableSink):
    """CSV writer (path or text stream): header row, then data rows."""

    def __init__(
        self,
        schema: Schema,
        target: Union[str, Path, TextIO],
        *,
        null_marker: str = DEFAULT_NULL_MARKER,
    ):
        super().__init__(schema)
        self.null_marker = null_marker
        self._handle, self._owns_handle = open_text(target, "w", newline="")
        self._writer = csv.writer(self._handle)

    def _write_header(self) -> None:
        self._writer.writerow(self.schema.names)

    def _write_rows(self, rows: list[list[Value]]) -> None:
        kinds = [a.kind for a in self.schema.attributes]
        marker = self.null_marker
        self._writer.writerows(
            [render_cell(v, k, marker) for v, k in zip(row, kinds)] for row in rows
        )

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()
