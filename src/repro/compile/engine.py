"""Compilation planning and in-database execution of audits.

The pushdown engine runs the whole deviation screen inside SQLite and
re-checks only the returned *candidate* rows in Python, through the
exact code path of the in-memory audit
(:meth:`DataAuditor.audit_attribute
<repro.core.auditor.DataAuditor.audit_attribute>`): raw cells are
converted by the same schema-driven converters the SQLite source uses,
encoded by the fitted encoders, predicted with ``predict_batch``, and
scored with :func:`~repro.mining.confidence.error_confidence_batch`.
Every primitive in that chain is per-row independent, so evaluating the
candidate *subset* yields bitwise the values the full in-memory audit
computes for those rows — all confidences are recomputed Python-side,
never trusted from SQL floats.

One statement is emitted per audited attribute::

    SELECT rn, <columns> FROM (
      ... layered aliases over SELECT ROW_NUMBER() - 1, obs, dirty ...
    ) WHERE (dirty OR suspect) ORDER BY rn

where *dirty* catches any cell whose storage the SQLite reader would
not convert losslessly (those rows must reach the Python converter,
which raises or handles them exactly as an in-memory read would) and
*suspect* is the model family's compiled screen. Rows certified clean
by the screen provably score below the audit threshold, so dropping
them inside the database loses no finding.

The emitted report matches the in-memory
:class:`~repro.core.findings.AuditReport` finding for finding —
same ranked findings, same suspicious-row ranking. The only documented
divergence: per-record confidences of rows *no* classifier flags may be
reported lower than in memory (a screened-out row keeps confidence
0.0), which cannot reorder the suspicious ranking because any
confidence able to overtake a flagged one would itself be at or above
the threshold and therefore flagged.

Anything without a SQL form — a kNN classifier, an over-deep tree, a
statement exceeding the parameter cap, a ``WITHOUT ROWID`` table — ends
in :class:`~repro.compile.screen.NotCompilable`, and callers fall back
to the in-memory batch path (see ``docs/sql_compilation.md``).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.compile.bayes import compile_naive_bayes
from repro.compile.dialect import SQLITE, SqlDialect
from repro.compile.expressions import SqlBuilder, clean_expr, observed_class_expr
from repro.compile.rules import compile_one_r, compile_prism
from repro.compile.screen import NotCompilable
from repro.compile.tree import compile_tree
from repro.core.findings import AuditReport, Finding
from repro.io.sqlite_backend import (
    SqliteTableSink,
    _column_names,
    _user_tables,
    parse_sqlite_url,
    sqlite_converters,
)
from repro.mining.confidence import error_confidence_batch
from repro.mining.naive_bayes import NaiveBayesClassifier
from repro.mining.rule_induction import OneRClassifier, PrismClassifier
from repro.mining.tree_classifier import TreeClassifier
from repro.schema.table import Table

__all__ = [
    "AttributeStatement",
    "CompilationPlan",
    "compilation_plan",
    "audit_connection",
    "audit_sqlite",
    "audit_table_sql",
    "sqlite_location",
]

#: Reserved prefix of every SELECT-list alias the engine introduces;
#: schemas whose attribute names collide with it are not compilable.
ALIAS_PREFIX = "__audit_"

#: Placeholder the quoted table name is spliced into at execution time
#: (statements are planned before a concrete table is known; the
#: control characters cannot appear in a planned statement).
_TABLE_TOKEN = "\x1ftable\x1f"

#: Model family → compiler. Exact types only: a subclass may override
#: ``predict_batch``, invalidating the compiled screen's parity.
_COMPILERS = {
    TreeClassifier: compile_tree,
    OneRClassifier: compile_one_r,
    PrismClassifier: compile_prism,
    NaiveBayesClassifier: compile_naive_bayes,
}


@dataclass(frozen=True)
class AttributeStatement:
    """One audited attribute's compiled candidate query."""

    attribute: str
    template: str  # contains _TABLE_TOKEN where the table name goes
    params: tuple

    def sql(self, quoted_table: str) -> str:
        """The executable statement against *quoted_table*."""
        return self.template.replace(_TABLE_TOKEN, quoted_table)


@dataclass(frozen=True)
class CompilationPlan:
    """The outcome of compiling a fitted auditor against a dialect.

    ``compilable`` is all-or-nothing: if any audited attribute lacks a
    SQL form, the whole audit falls back to the in-memory path — a
    hybrid split would make the two engines' reports incomparable.
    """

    dialect: SqlDialect
    statements: tuple[AttributeStatement, ...] = ()
    reasons: dict[str, str] = field(default_factory=dict)

    @property
    def compilable(self) -> bool:
        """Whether every audited attribute compiled."""
        return not self.reasons

    def notice(self) -> Optional[str]:
        """A one-line operator notice when the plan is not compilable
        (``None`` when it is)."""
        if self.compilable:
            return None
        attribute, reason = next(iter(self.reasons.items()))
        shown = reason if attribute == "*" else f"{attribute}: {reason}"
        more = len(self.reasons) - 1
        if more > 0:
            shown += f" (+{more} more)"
        return f"SQL pushdown unavailable ({shown}); auditing in memory"


def compilation_plan(auditor, dialect: SqlDialect = SQLITE) -> CompilationPlan:
    """Compile *auditor*'s fitted classifiers into per-attribute
    candidate statements.

    Returns a :class:`CompilationPlan`; inspect ``plan.compilable`` /
    ``plan.notice()`` before executing. Statements are emitted in the
    auditor's classifier order, so the executed audit folds findings in
    the same order as the in-memory loop.
    """
    if not auditor.classifiers:
        raise RuntimeError("auditor is not fitted")
    colliding = [
        name for name in auditor.schema.names if name.startswith(ALIAS_PREFIX)
    ]
    if colliding:
        return CompilationPlan(
            dialect,
            reasons={
                "*": f"attribute names {colliding!r} collide with the "
                f"engine's {ALIAS_PREFIX!r} alias prefix"
            },
        )
    statements: list[AttributeStatement] = []
    reasons: dict[str, str] = {}
    for class_attr, classifier in auditor.classifiers.items():
        compiler = _COMPILERS.get(type(classifier))
        if compiler is None:
            reasons[class_attr] = (
                f"{type(classifier).__name__} does not compile to SQL"
            )
            continue
        try:
            statements.append(
                _compile_attribute(auditor, class_attr, classifier, compiler, dialect)
            )
        except NotCompilable as exc:
            reasons[class_attr] = str(exc)
    if reasons:
        return CompilationPlan(dialect, reasons=reasons)
    return CompilationPlan(dialect, statements=tuple(statements))


def _compile_attribute(
    auditor, class_attr: str, classifier, compiler, dialect: SqlDialect
) -> AttributeStatement:
    dataset = classifier.dataset
    if dataset is None:
        raise NotCompilable("classifier is not fitted")
    builder = SqlBuilder(dialect)
    quote = dialect.quote
    schema = auditor.schema
    obs_ref = quote("__audit_obs")
    # the dirty guard spans EVERY schema attribute, not just this
    # classifier's inputs: an in-memory audit converts the whole table,
    # so a row with any unconvertible cell must reach the Python
    # converter to fail (or convert) identically
    dirty_sql = "NOT (" + " AND ".join(
        clean_expr(builder, attribute) for attribute in schema.attributes
    ) + ")"
    obs_sql = observed_class_expr(
        builder, schema.attribute(class_attr), dataset.class_encoder
    )
    screen = compiler(builder, classifier, auditor.config, obs_ref)
    cols = ", ".join(quote(name) for name in schema.names)
    level0 = [
        ("__audit_rn", "ROW_NUMBER() OVER (ORDER BY rowid) - 1"),
        ("__audit_obs", obs_sql),
        ("__audit_dirty", dirty_sql),
    ]
    defs0 = ", ".join(f"{sql} AS {quote(name)}" for name, sql in level0)
    statement = f"SELECT {defs0}, {cols} FROM {_TABLE_TOKEN}"
    for layer in screen.levels:
        defs = ", ".join(f"{sql} AS {quote(name)}" for name, sql in layer)
        statement = f"SELECT *, {defs} FROM ({statement})"
    candidate = f"({quote('__audit_dirty')} OR {screen.suspect_sql})"
    rn = quote("__audit_rn")
    statement = (
        f"SELECT {rn}, {cols} FROM ({statement})"
        f" WHERE {candidate} ORDER BY {rn}"
    )
    if len(builder.params) > dialect.max_parameters:
        raise NotCompilable(
            f"statement needs {len(builder.params)} bound parameters, over "
            f"the {dialect.name} cap of {dialect.max_parameters}"
        )
    return AttributeStatement(class_attr, statement, tuple(builder.params))


def audit_connection(
    auditor,
    connection: sqlite3.Connection,
    *,
    table: Optional[str] = None,
    plan: Optional[CompilationPlan] = None,
) -> AuditReport:
    """Audit one table of an open SQLite *connection* in-database.

    Without *table* the database must hold exactly one user table (the
    same unambiguity rule as :class:`~repro.io.SqliteTableSource`).
    Raises :class:`~repro.compile.screen.NotCompilable` when the plan
    (or the engine at runtime — e.g. a ``WITHOUT ROWID`` table, a
    parameter-limit rebuild) cannot run the pushdown; callers fall back
    to the in-memory path.
    """
    if plan is None:
        plan = compilation_plan(auditor)
    if not plan.compilable:
        raise NotCompilable(plan.notice() or "plan is not compilable")
    if plan.dialect.name != "sqlite":
        raise NotCompilable(
            f"dialect {plan.dialect.name!r} has no execution engine yet"
        )
    if table is None:
        tables = _user_tables(connection)
        if len(tables) != 1:
            raise ValueError(
                f"database holds {len(tables)} tables ({tables!r}); "
                f"select one with table="
            )
        table = tables[0]
    columns = _column_names(connection, table)
    if not columns:
        raise ValueError(f"database has no table named {table!r}")
    if set(columns) != set(auditor.schema.names):
        raise ValueError(
            f"columns of table {table!r} {columns!r} do not match "
            f"schema attributes {list(auditor.schema.names)!r}"
        )
    getlimit = getattr(connection, "getlimit", None)
    if getlimit is not None:
        cap = getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
        worst = max((len(s.params) for s in plan.statements), default=0)
        if worst > cap:
            raise NotCompilable(
                f"statement needs {worst} bound parameters, over this "
                f"connection's limit of {cap}"
            )
    quoted = plan.dialect.quote(table)
    converters = sqlite_converters(auditor.schema)
    try:
        n_rows = connection.execute(f"SELECT COUNT(*) FROM {quoted}").fetchone()[0]
        record_confidence = np.zeros(n_rows, dtype=float)
        findings: list[Finding] = []
        for statement in plan.statements:
            rows = connection.execute(
                statement.sql(quoted), statement.params
            ).fetchall()
            confidences, attr_findings, candidate_rows = _recheck_candidates(
                auditor, statement.attribute, rows, converters
            )
            if candidate_rows.size:
                record_confidence[candidate_rows] = np.maximum(
                    record_confidence[candidate_rows], confidences
                )
            findings.extend(attr_findings)
    except sqlite3.OperationalError as exc:
        # e.g. ROW_NUMBER over a WITHOUT ROWID table — fall back cleanly
        raise NotCompilable(f"SQL pushdown failed at runtime: {exc}") from exc
    return AuditReport(
        n_rows,
        findings,
        record_confidence.tolist(),
        auditor.config.min_error_confidence,
        schema=auditor.schema,
    )


def _recheck_candidates(
    auditor, class_attr: str, rows, converters
) -> tuple[np.ndarray, list[Finding], np.ndarray]:
    """Re-audit the candidate rows through the in-memory code path.

    Mirrors :meth:`DataAuditor.audit_attribute
    <repro.core.auditor.DataAuditor.audit_attribute>` on the candidate
    subset; row labels match the full sequential read, so a bad cell
    raises the identical error an extract would.
    """
    classifier = auditor.classifiers[class_attr]
    dataset = classifier.dataset
    assert dataset is not None
    config = auditor.config
    candidate_rows = np.asarray([row[0] for row in rows], dtype=np.int64)
    if candidate_rows.size == 0:
        return np.zeros(0, dtype=float), [], candidate_rows
    converted = [converters.convert_row(f"row {row[0] + 1}", row[1:]) for row in rows]
    index_of = {name: position for position, name in enumerate(converters.names)}
    columns = {
        name: dataset.encoders[name].encode_column(
            [cells[index_of[name]] for cells in converted]
        )
        for name in dataset.base_attrs
    }
    class_values = [cells[index_of[class_attr]] for cells in converted]
    observed_codes = dataset.class_encoder.encode_column(class_values)
    batch = classifier.predict_batch(columns, n_rows=len(converted))
    confidences = error_confidence_batch(
        batch.probabilities, batch.support, observed_codes, config.bounds
    )
    findings: list[Finding] = []
    flagged = np.flatnonzero(confidences >= config.min_error_confidence)
    if flagged.size:
        labels = dataset.class_encoder.labels
        predicted_codes = np.argmax(batch.probabilities[flagged], axis=1)
        proposals = {
            code: dataset.class_encoder.proposal_for(labels[code])
            for code in set(predicted_codes.tolist())
        }
        for candidate, predicted in zip(flagged.tolist(), predicted_codes.tolist()):
            findings.append(
                Finding(
                    row=int(candidate_rows[candidate]),
                    attribute=class_attr,
                    observed_label=labels[int(observed_codes[candidate])],
                    observed_value=class_values[candidate],
                    predicted_label=labels[predicted],
                    confidence=float(confidences[candidate]),
                    support=float(batch.support[candidate]),
                    proposal=proposals[predicted],
                )
            )
    return confidences, findings, candidate_rows


def audit_sqlite(
    auditor,
    database: Union[str, Path],
    *,
    table: Optional[str] = None,
    plan: Optional[CompilationPlan] = None,
) -> AuditReport:
    """Audit one table of a SQLite *database* file in-database.

    The file-path face of :func:`audit_connection` — what
    ``repro audit --engine sql --input sqlite:///wh.db?table=loads``
    runs. Raises :class:`~repro.compile.screen.NotCompilable` when the
    pushdown cannot run (callers fall back to the in-memory path) and
    :class:`FileNotFoundError` for a missing database, like the SQLite
    source.
    """
    path = Path(database)
    if not path.exists():
        raise FileNotFoundError(f"no such SQLite database: {database}")
    connection = sqlite3.connect(path)
    try:
        return audit_connection(auditor, connection, table=table, plan=plan)
    finally:
        connection.close()


def audit_table_sql(auditor, table: Table) -> AuditReport:
    """Audit an in-memory :class:`~repro.schema.table.Table` through the
    SQL engine.

    What ``DataAuditor.audit(table, engine="sql")`` runs: the table is
    materialized into a private ``:memory:`` SQLite database through the
    standard sink (insertion order = ``rowid`` order, so row indices
    match the in-memory audit) and pushed down. Raises
    :class:`~repro.compile.screen.NotCompilable` when the model has no
    SQL form.
    """
    if table.schema != auditor.schema:
        raise ValueError("table schema does not match the auditor's schema")
    plan = compilation_plan(auditor)
    if not plan.compilable:
        raise NotCompilable(plan.notice() or "plan is not compilable")
    connection = sqlite3.connect(":memory:", isolation_level=None)
    try:
        with SqliteTableSink(
            auditor.schema, None, table="data", connection=connection
        ) as sink:
            sink.write(table)
        return audit_connection(auditor, connection, table="data", plan=plan)
    finally:
        connection.close()


def sqlite_location(source) -> Optional[tuple[str, Optional[str]]]:
    """``(database, table)`` when *source* names a SQLite database — a
    ``sqlite:///…?table=…`` URI or a ``.db``/``.sqlite``/``.sqlite3``
    path — else ``None``. The engine-selection probe used by
    :meth:`AuditSession.audit_source
    <repro.core.session.AuditSession.audit_source>` and the CLI."""
    if not isinstance(source, (str, Path)):
        return None
    text = str(source)
    if text.startswith("sqlite:"):
        database, options = parse_sqlite_url(text)
        return database, options.get("table")
    from repro.io.registry import detect_format

    try:
        detected = detect_format(text)
    except ValueError:
        return None
    if detected != "sqlite":
        return None
    return text, None
