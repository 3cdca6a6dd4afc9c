"""Spans timed around the calls into each layer of ``repro``.

The benchmark adds no spans to the program: :func:`install` wraps the
public functions at each layer boundary, in the traced child process
only, with wrappers that record a span around the original call. The
wrapped functions run unchanged, so a traced operation produces the
same bytes as an untraced one (``run.py`` checks that it does).

A span is ``(op, name, start_ns, end_ns, parent)``; spans of one
operation share ``op``. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

#: span name -> (per-layer metric, "self" or "total" time)
SPAN_METRICS = {
    "io.parse": ("io.parse_ms", "self"),
    "io.jsonl_parse": ("io.jsonl_parse_ms", "self"),
    "core.encode": ("core.encode_ms", "self"),
    "core.audit": ("core.findings_ms", "self"),
    "core.audit_attribute": ("core.findings_ms", "self"),
    "core.merge": ("core.findings_ms", "self"),
    "core.render": ("core.render_ms", "self"),
    "mining.predict": ("mining.predict_ms", "self"),
    "mining.confidence": ("mining.confidence_ms", "self"),
    "core.fit_encode": ("core.fit_encode_ms", "self"),
    "mining.grow": ("mining.grow_ms", "self"),
    "core.save": ("core.save_ms", "self"),
    "serve.service": ("serve.service_ms", "total"),
    "monitor.tail": ("monitor.tail_ms", "self"),
    "monitor.audit": ("monitor.audit_ms", "total"),
    "monitor.drift": ("monitor.drift_ms", "self"),
    "monitor.poll": ("monitor.commit_ms", "self"),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (self.op, name, start, end, parent)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def begin_op(self, op: str) -> int:
        """Start recording operation *op*; returns its first span index."""
        self.op = op
        self.counts = {}
        return len(self.spans)

    def op_layers(self, first: int) -> dict[str, float]:
        """Per-layer milliseconds (and counts) of the spans from *first* on."""
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent is not None and parent >= first:
                child_ns[parent - first] += end - start
        layers: dict[str, float] = {}
        for (_, name, start, end, _), children in zip(spans, child_ns):
            metric = SPAN_METRICS.get(name)
            if metric is None:
                continue
            metric_name, mode = metric
            ns = end - start - (children if mode == "self" else 0)
            layers[metric_name] = layers.get(metric_name, 0.0) + ns / 1e6
        layers.update(self.counts)
        return layers

    def write(self, path: Path) -> None:
        """Write every span as JSON (times in ns of ``perf_counter``)."""
        payload = [
            {"op": op, "name": name, "start": start, "end": end, "parent": parent}
            for op, name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps(payload), encoding="utf-8")


def wrap(tracer: Tracer, owner, attribute: str, span: str) -> None:
    """Replace ``owner.attribute`` by a wrapper timing each call as *span*."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(span):
            return original(*args, **kwargs)

    setattr(owner, attribute, traced)


def wrap_iterator(tracer: Tracer, owner, attribute: str, span: str, count) -> None:
    """Like :func:`wrap` for a method returning an iterator: each pull
    of an item is one span, and ``count(tracer, item)`` runs per item."""
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        iterator = iter(original(*args, **kwargs))
        while True:
            with tracer.span(span):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            count(tracer, item)
            yield item

    setattr(owner, attribute, traced)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries shared by every workload's operation."""
    from repro.core import auditor
    from repro.io.base import TableSource
    from repro.io.jsonl_backend import JsonlTableSource
    from repro.mining.tree_classifier import TreeClassifier
    from repro.monitor.drift import DriftTracker
    from repro.monitor.tail import TextTailReader

    def rows_read(tracer: Tracer, batch) -> None:
        tracer.count("io.rows", batch.n_rows)

    wrap_iterator(tracer, TableSource, "column_batches", "io.parse", rows_read)
    original_read_columns = TableSource.read_columns

    def read_columns(self, *args, **kwargs):
        with tracer.span("io.parse"):
            batch = original_read_columns(self, *args, **kwargs)
        rows_read(tracer, batch)
        return batch

    TableSource.read_columns = read_columns
    wrap(tracer, JsonlTableSource, "read", "io.jsonl_parse")
    wrap(tracer, auditor.ColumnCache, "encoded", "core.encode")
    wrap(tracer, auditor.ColumnCache, "observed_codes", "core.encode")
    wrap(tracer, auditor.FitColumnCache, "dataset_for", "core.fit_encode")
    wrap(tracer, auditor.DataAuditor, "audit", "core.audit")
    wrap(tracer, auditor.DataAuditor, "audit_attribute", "core.audit_attribute")
    wrap(tracer, auditor, "error_confidence_batch", "mining.confidence")
    wrap(tracer, TreeClassifier, "predict_batch", "mining.predict")
    wrap(tracer, TreeClassifier, "fit", "mining.grow")
    wrap(tracer, TextTailReader, "read_new", "monitor.tail")
    wrap(tracer, DriftTracker, "observe", "monitor.drift")
