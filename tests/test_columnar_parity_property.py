"""Columnar-parity property suite: the column path is pinned to the row
path, byte for byte, on randomized stored tables.

These tests generate random schemas and tables — mixed
nominal/numeric/date columns, nulls, out-of-domain nominals, and
integers beyond 2**53 (where any float64 detour would silently corrupt
the value) — write them to a randomly drawn backend (CSV, JSONL, SQLite,
Parquet when pyarrow is present), and assert that the columnar ingest
lane (``io_path="columns"``) produces exactly the row lane's output:

* :meth:`AuditSession.audit_source` yields byte-identical merged
  reports (findings *and* per-record confidence) at every chunk size;
* :meth:`AuditSession.fit_source` induces a byte-identical model
  (canonical ``auditor_to_dict`` fingerprint);
* a randomly mistyped stored cell raises the *same* extraction error
  from both lanes, even though the column lane converts
  column-at-a-time and must replay buffered rows to recover the row
  path's first-error-in-row-order message;
* on adversarial stored cells (``tests/strategies.py``) each backend's
  per-column converters — and its row-lane converters — give exactly
  the value and type of the per-cell converter (``parse_cell`` /
  ``_coerce`` / ``_from_sql``), or the same one-line error after the
  row-wise replay.

Parallel workers are deliberately kept out of these properties (jobs
parity is pinned deterministically in ``test_shm_dispatch.py`` and
``test_core_parallel.py``) so the randomized sweep stays fast.
"""

from __future__ import annotations

import csv
import datetime
import json
import tempfile

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import AuditorConfig, AuditReport, AuditSession
from repro.core.serialize import auditor_to_dict
from repro.io import open_source, write_table
from repro.io.cells import parse_cell, text_converters, typed_converters
from repro.io.csv_backend import CsvTableSource
from repro.io.jsonl_backend import _coerce
from repro.io.sqlite_backend import _from_sql, sqlite_converters
from repro.schema import Schema, Table, date, nominal, numeric
from tests.strategies import (
    ADVERSARIAL_CELL_TEXT,
    NULL_MARKERS,
    TYPED_CELL_SAMPLES,
    cell_texts,
    typed_cells,
)

try:
    import pyarrow  # noqa: F401

    HAVE_PYARROW = True
except ImportError:
    HAVE_PYARROW = False

BACKENDS = ["csv", "jsonl", "sqlite"] + (["parquet"] if HAVE_PYARROW else [])
_EXT = {"csv": "t.csv", "jsonl": "t.jsonl", "sqlite": "t.db", "parquet": "t.parquet"}

_DATE_START = datetime.date(2000, 1, 1)


@st.composite
def schema_and_table(draw, min_rows: int = 1, max_rows: int = 25):
    """A random 2–4 column schema plus a table of random rows.

    Cells come from small per-column pools (ties and constant columns
    arise naturally); every pool includes ``None``, nominal pools an
    out-of-domain value, and the ``bigint`` kind integers past 2**53.
    """
    n_attrs = draw(st.integers(2, 4))
    attributes = []
    pools = []
    for i in range(n_attrs):
        kind = draw(st.sampled_from(("nominal", "int", "bigint", "float", "date")))
        name = f"A{i}"
        if kind == "nominal":
            values = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
            attributes.append(nominal(name, values))
            pool = list(values) + ["zzz"]  # out-of-domain → unknown code
        elif kind == "int":
            attributes.append(numeric(name, 0, 100, integer=True))
            pool = draw(
                st.lists(st.integers(0, 100), min_size=1, max_size=4, unique=True)
            )
        elif kind == "bigint":
            # past float64's exact-integer range: a lossy detour through
            # floats would change these values and break byte parity
            attributes.append(numeric(name, 0, 2**70, integer=True))
            pool = [0, 2**53 + 1, 2**60 + 3, 2**64 + 7]
        elif kind == "float":
            attributes.append(numeric(name, 0.0, 10.0))
            pool = draw(
                st.lists(
                    st.floats(0, 10, allow_nan=False, allow_infinity=False),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
        else:
            attributes.append(date(name, _DATE_START, datetime.date(2001, 12, 31)))
            offsets = draw(
                st.lists(st.integers(0, 700), min_size=1, max_size=4, unique=True)
            )
            pool = [_DATE_START + datetime.timedelta(days=d) for d in offsets]
        pools.append(pool + [None])
    schema = Schema(attributes)
    n_rows = draw(st.integers(min_rows, max_rows))
    rows = [
        [draw(st.sampled_from(pools[i])) for i in range(n_attrs)]
        for _ in range(n_rows)
    ]
    return schema, Table(schema, rows)


def _report_fingerprint(report: AuditReport) -> tuple:
    return (tuple(report.findings), tuple(report.record_confidence))


def _model_fingerprint(session: AuditSession) -> bytes:
    return json.dumps(auditor_to_dict(session.auditor), sort_keys=True).encode()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=schema_and_table(),
    fmt=st.sampled_from(BACKENDS),
    chunk_size=st.sampled_from((1, 2, 7, 1000)),
)
def test_audit_source_columns_matches_rows(data, fmt, chunk_size):
    """Randomized stored tables audit byte-identically on both lanes."""
    schema, table = data
    session = AuditSession(schema, AuditorConfig())
    session.fit(table)
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/{_EXT[fmt]}"
        write_table(table, location)
        reports = {
            io_path: AuditReport.merge(
                session.audit_source(
                    location, chunk_size=chunk_size, io_path=io_path
                )
            )
            for io_path in ("rows", "columns")
        }
    assert _report_fingerprint(reports["columns"]) == _report_fingerprint(
        reports["rows"]
    )
    # and both equal the in-memory whole-table audit
    assert _report_fingerprint(reports["rows"]) == _report_fingerprint(
        session.audit(table)
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=schema_and_table(), fmt=st.sampled_from(BACKENDS))
def test_fit_source_columns_matches_rows(data, fmt):
    """Randomized stored tables fit byte-identical models on both lanes."""
    schema, table = data
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/{_EXT[fmt]}"
        write_table(table, location)
        fingerprints = set()
        for io_path in ("rows", "columns"):
            session = AuditSession(schema, AuditorConfig())
            session.fit_source(location, io_path=io_path)
            fingerprints.add(_model_fingerprint(session))
    assert len(fingerprints) == 1


_BAD_CELL = {"nominal": 123, "numeric": "oops", "date": 42}


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=schema_and_table(min_rows=1),
    position=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    chunk_size=st.sampled_from((1, 3, 1000)),
)
def test_mistyped_cell_error_identity_jsonl(data, position, chunk_size):
    """A random wrong-typed stored cell raises the same error both ways."""
    schema, table = data
    row = position[0] % table.n_rows
    col = position[1] % len(schema.names)
    name = schema.names[col]
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/bad.jsonl"
        write_table(table, location + ".tmp", format="jsonl")
        with open(location + ".tmp", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        record = json.loads(lines[row])
        record[name] = _BAD_CELL[schema.attribute(name).domain.kind.value]
        lines[row] = json.dumps(record)
        with open(location, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with open_source(schema, location) as source:
            with pytest.raises(ValueError) as row_err:
                source.read()
        with open_source(schema, location) as source:
            with pytest.raises(ValueError) as col_err:
                for _ in source.column_batches(chunk_size):
                    pass
    assert str(col_err.value) == str(row_err.value)
    assert f"line {row + 1}" in str(row_err.value)


# -- per-column converters vs per-cell converters ------------------------------

_KIND_ATTRIBUTES = {
    "nominal": lambda name: nominal(name, ["x", "y", "7"]),
    "int": lambda name: numeric(name, -(2**80), 2**80, integer=True),
    "float": lambda name: numeric(name, -1e300, 1e300),
    "date": lambda name: date(
        name, datetime.date(1, 1, 1), datetime.date(9999, 12, 31)
    ),
}


@st.composite
def raw_batch(draw, cells, convert_cell, samples=ADVERSARIAL_CELL_TEXT):
    """A random 1-4 attribute schema and a batch of raw stored cells.

    Half the batches draw each column only from the *samples* its
    per-cell converter accepts, so whole batches convert. In the others
    each column draws from the accepted samples; or takes one odd sample
    or arbitrary cell among accepted ones; or draws from every sample of
    an accepted sample's type (right type, possibly wrong value: what a
    type-checked fast lane must still catch); or from anything. Most of
    them hit the error replay.
    """
    kinds = draw(
        st.lists(st.sampled_from(sorted(_KIND_ATTRIBUTES)), min_size=1, max_size=4)
    )
    schema = Schema([_KIND_ATTRIBUTES[kind](f"A{i}") for i, kind in enumerate(kinds)])
    clean = draw(st.booleans())
    n_rows = draw(st.integers(1, 12))
    odd = st.one_of(st.sampled_from(samples), cells)
    columns = []
    for attribute in schema.attributes:
        accepted = _accepted(samples, attribute, convert_cell)
        types = {type(sample) for sample in accepted}
        pools = {
            "accepted": st.sampled_from(accepted),
            "one odd": st.sampled_from(accepted),
            "same type": st.sampled_from([s for s in samples if type(s) in types]),
            "any": st.one_of(st.sampled_from(accepted), odd),
        }
        mode = "accepted" if clean else draw(st.sampled_from(sorted(pools)))
        column = [draw(pools[mode]) for _ in range(n_rows)]
        if mode == "one odd":
            column[draw(st.integers(0, n_rows - 1))] = draw(odd)
        columns.append(column)
    rows = [list(cells) for cells in zip(*columns)]
    return schema, rows


def _accepted(samples, attribute, convert_cell) -> list:
    integer = getattr(attribute.domain, "integer", False)
    accepted = []
    for sample in samples:
        try:
            convert_cell(sample, attribute.kind, integer)
        except ValueError:
            continue
        accepted.append(sample)
    return accepted


def _typed(value) -> tuple:
    """Value *and* type (``repr`` keeps ``-0.0`` apart from ``0.0``)."""
    return (type(value), repr(value))


def _oracle(schema, rows, convert_cell) -> tuple[list, str]:
    """Row-major per-cell conversion: (converted rows, first error or "")."""
    out = []
    for i, row in enumerate(rows):
        cells = []
        for attribute, raw in zip(schema.attributes, row):
            integer = getattr(attribute.domain, "integer", False)
            try:
                cells.append(convert_cell(raw, attribute.kind, integer))
            except ValueError as exc:
                return out, f"row {i}, attribute {attribute.name!r}: {exc}"
        out.append(cells)
    return out, ""


def _assert_columns_match_cells(schema, rows, converters, convert_cell) -> str:
    """Check one batch on both lanes; returns which path the column lane
    took (a hypothesis event)."""
    expected, error = _oracle(schema, rows, convert_cell)
    row_lane, row_error = [], ""
    for i, row in enumerate(rows):
        try:
            row_lane.append(converters.convert_row(f"row {i}", row))
        except ValueError as exc:
            row_error = str(exc)
            break
    assert row_error == error
    assert [[_typed(v) for v in r] for r in row_lane] == [
        [_typed(v) for v in r] for r in expected
    ]
    raw_columns = [list(column) for column in zip(*rows)]
    if error:
        with pytest.raises(ValueError) as err:
            converters.convert_columns(raw_columns, lambda i: f"row {i}")
        assert str(err.value) == error
        return "replayed error"
    values, masks = converters.convert_columns(raw_columns, lambda i: f"row {i}")
    for j, column in enumerate(values):
        want = [row[j] for row in expected]
        assert [_typed(v) for v in column] == [_typed(v) for v in want]
        nulls = [v is None for v in want]
        assert (masks[j] is None and not any(nulls)) or masks[j].tolist() == nulls
    return "converted"


_PROPERTY = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _parse_text(marker):
    return lambda text, kind, integer: parse_cell(text, kind, marker, integer)


_TYPED_SAMPLES = ADVERSARIAL_CELL_TEXT + TYPED_CELL_SAMPLES


@_PROPERTY
@given(data=st.data(), marker=st.sampled_from(NULL_MARKERS))
def test_csv_column_converters_match_parse_cell(data, marker):
    schema, rows = data.draw(raw_batch(cell_texts(), _parse_text(marker)))
    event(
        _assert_columns_match_cells(
            schema, rows, text_converters(schema, marker), _parse_text(marker)
        )
    )


@_PROPERTY
@given(batch=raw_batch(typed_cells(), _coerce, _TYPED_SAMPLES))
def test_jsonl_column_converters_match_coerce(batch):
    schema, rows = batch
    event(
        _assert_columns_match_cells(
            schema, rows, typed_converters(schema, _coerce), _coerce
        )
    )


@_PROPERTY
@given(
    batch=raw_batch(
        st.one_of(typed_cells(), st.binary(max_size=3)), _from_sql, _TYPED_SAMPLES
    )
)
def test_sqlite_column_converters_match_from_sql(batch):
    schema, rows = batch
    event(
        _assert_columns_match_cells(schema, rows, sqlite_converters(schema), _from_sql)
    )


_FLAVOURS = {
    "csv": (
        lambda schema: text_converters(schema, ""),
        _parse_text(""),
        ADVERSARIAL_CELL_TEXT,
    ),
    "csv NULL": (
        lambda schema: text_converters(schema, "NULL"),
        _parse_text("NULL"),
        ADVERSARIAL_CELL_TEXT,
    ),
    "jsonl": (
        lambda schema: typed_converters(schema, _coerce),
        _coerce,
        _TYPED_SAMPLES,
    ),
    "sqlite": (sqlite_converters, _from_sql, _TYPED_SAMPLES + (b"7",)),
}


@pytest.mark.parametrize("flavour", sorted(_FLAVOURS))
@pytest.mark.parametrize("kind", sorted(_KIND_ATTRIBUTES))
def test_every_sample_converts_alike(flavour, kind):
    """Each sample alone, and amid accepted cells of its own type (so a
    type-checked fast lane sees a column it would take)."""
    make_converters, convert_cell, samples = _FLAVOURS[flavour]
    schema = Schema([_KIND_ATTRIBUTES[kind]("A0")])
    converters = make_converters(schema)
    accepted = _accepted(samples, schema.attributes[0], convert_cell)
    for sample in samples:
        kin = [a for a in accepted if type(a) is type(sample)] or accepted
        for column in ([sample], [kin[0], sample, kin[-1]], [sample] + kin):
            rows = [[cell] for cell in column]
            _assert_columns_match_cells(schema, rows, converters, convert_cell)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    marker=st.sampled_from(NULL_MARKERS),
    chunk_size=st.sampled_from((1, 2, 5, 1000)),
)
def test_csv_source_lanes_agree_on_adversarial_text(data, marker, chunk_size):
    """Through a stored file: same rows, or the same error, both lanes."""
    schema, rows = data.draw(raw_batch(cell_texts(), _parse_text(marker)))
    with tempfile.TemporaryDirectory() as tmp:
        location = f"{tmp}/t.csv"
        with open(location, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(schema.names)
            writer.writerows(rows)
        outcomes = []
        for lane in ("rows", "columns"):
            with CsvTableSource(schema, location, null_marker=marker) as source:
                try:
                    if lane == "rows":
                        got = source.read().rows
                    else:
                        got = [
                            list(cells)
                            for batch_ in source.column_batches(chunk_size)
                            for cells in zip(*(batch_.column(n) for n in schema.names))
                        ]
                    outcomes.append([[_typed(v) for v in row] for row in got])
                except ValueError as exc:
                    outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
