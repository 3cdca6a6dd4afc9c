"""The system under test for the ``fit``, ``audit`` and ``monitor``
workloads, and the in-process service of the traced ``serve`` run.

    python3 perfbench/sut.py FAMILY INPUTS WORK [--trace SPANS.json]

One child process per workload, driven by ``run.py`` over stdin/stdout
with one JSON object per line. The child imports the CLI (the import
every ``repro`` command pays), does the workload's set-up, prints
``{"ready": true}`` and then answers commands:

``{"op": i}``
    run operation *i* and reply ``{"ms", "cpu_ms", "ref_ms", "sha"}``:
    the operation's wall and CPU time measured around the public calls,
    the reference loop's time (``reference.py``) around the operation,
    and the sha256 of its output bytes (hashing is not timed). A traced
    child adds ``"layers"``, the operation's per-layer milliseconds and
    counts.
``{"begin": true}`` / ``{"end": true}``
    ``monitor`` only: start a fresh stream, or close it and reply with
    the digests of the findings file and the watermark.
``{"probe": true}``
    traced only: time the model and registry loads a cold start makes.
``{"quit": true}`` (or end of input)
    write the spans (traced) and exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.cli  # noqa: E402,F401  (the CLI import is part of every cold start)
from repro.core.findings import AuditReport  # noqa: E402
from repro.core.session import AuditSession  # noqa: E402

import tracer as tracing  # noqa: E402
from common import MODEL_NAME, WINDOW_ROWS, render_findings, sha256  # noqa: E402
from reference import reference_sample  # noqa: E402


class NullTracer:
    """Stands in for :class:`tracer.Tracer` in untraced children."""

    class _Span:
        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

    _span = _Span()

    def span(self, name):
        return self._span


class Fit:
    """``AuditSession(schema).fit_source(train.csv)`` then ``.save()``."""

    def __init__(self, inputs: Path, work: Path, tracer):
        from repro.schema.serialize import schema_from_dict

        self.tracer = tracer
        self.schema = schema_from_dict(
            json.loads((inputs / "schema.json").read_text("utf-8"))
        )
        self.source = str(inputs / "train.csv")
        self.out = work / "model.json"

    def op(self, index: int):
        session = AuditSession(self.schema).fit_source(self.source)
        with self.tracer.span("core.save"):
            session.save(self.out)
        self.session = session
        return self.out.read_bytes

    def counts(self) -> None:
        self.tracer.count("io.bytes", os.path.getsize(self.source))
        self.tracer.count(
            "mining.tree_nodes",
            sum(c.root.node_count() for c in self.session.auditor.classifiers.values()),
        )


class Audit:
    """``audit_source(audit.csv)``, merged and rendered as JSONL bytes."""

    def __init__(self, inputs: Path, work: Path, tracer):
        self.tracer = tracer
        self.session = AuditSession.load(inputs / "model.json")
        self.source = str(inputs / "audit.csv")

    def op(self, index: int):
        reports = list(self.session.audit_source(self.source))
        with self.tracer.span("core.merge"):
            report = AuditReport.merge(reports)
        with self.tracer.span("core.render"):
            data = render_findings(report.findings)
        self.findings = len(report.findings)
        return data

    def counts(self) -> None:
        self.tracer.count("io.bytes", os.path.getsize(self.source))
        self.tracer.count("core.findings", self.findings)


class Monitor:
    """Append one window to a CSV stream, then ``TableWatcher.poll()``."""

    def __init__(self, inputs: Path, work: Path, tracer):
        self.tracer = tracer
        self.session = AuditSession.load(inputs / "model.json")
        if isinstance(tracer, tracing.Tracer):
            tracing.wrap(tracer, self.session, "audit", "monitor.audit")
        offsets = json.loads((inputs / "monitor.json").read_text("utf-8"))[
            "window_offsets"
        ]
        data = (inputs / "stream.csv").read_bytes()
        self.header = data[: offsets[0]]
        self.windows = [data[a:b] for a, b in zip(offsets, offsets[1:])]
        self.stream = work / "stream.csv"
        self.state = work / "stream.state.json"
        self.findings = work / "stream.findings.jsonl"
        self.watcher = None
        self.begin()

    def begin(self) -> None:
        self.close()
        for path in (self.state, self.findings):
            if path.exists():
                path.unlink()
        self.stream.write_bytes(self.header)
        self.handle = open(self.stream, "ab")
        self.watcher = self.session.monitor(
            self.stream,
            state_path=self.state,
            findings_path=self.findings,
            window_rows=WINDOW_ROWS,
        )
        self.committed = 0

    def op(self, index: int):
        self.handle.write(self.windows[index])
        self.handle.flush()
        with self.tracer.span("monitor.poll"):
            polled = self.watcher.poll()
        if polled != WINDOW_ROWS:
            raise RuntimeError(f"poll read {polled} rows, expected {WINDOW_ROWS}")
        return self.new_findings

    def new_findings(self) -> bytes:
        with open(self.findings, "rb") as handle:
            handle.seek(self.committed)
            data = handle.read()
        self.committed += len(data)
        return data

    def end(self) -> dict:
        self.close()
        return {
            "findings_sha": sha256(self.findings.read_bytes()),
            "state_sha": sha256(self.state.read_bytes()),
            "findings_bytes": self.findings.stat().st_size,
        }

    def close(self) -> None:
        if self.watcher is not None:
            self.watcher.close()
            self.handle.close()
            self.watcher = None

    def counts(self) -> None:
        pass


class Serve:
    """``AuditService.audit`` of one pooled window, drained to bytes."""

    def __init__(self, inputs: Path, work: Path, tracer):
        from repro.registry import ModelRegistry
        from repro.serve.service import AuditService

        self.tracer = tracer
        self.service = AuditService(ModelRegistry(inputs / "registry"))
        pool = json.loads((inputs / "serve-pool.json").read_text("utf-8"))
        self.payloads = [
            {"model": pool["model"], "rows": rows} for rows in pool["windows"]
        ]

    def op(self, index: int):
        with self.tracer.span("serve.service"):
            _, lines = self.service.audit(self.payloads[index])
            with self.tracer.span("core.render"):
                return "".join(lines).encode("utf-8")

    def counts(self) -> None:
        pass


FAMILIES = {"fit": Fit, "audit": Audit, "monitor": Monitor, "serve": Serve}


def probe(inputs: Path) -> dict:
    """Model and registry loads, each timed over repeated calls."""
    from repro.registry import ModelRegistry

    def timed(call, repeat: int) -> list[float]:
        samples = []
        for _ in range(repeat):
            start = time.perf_counter()
            call()
            samples.append((time.perf_counter() - start) * 1000)
        return samples

    registry = ModelRegistry(inputs / "registry")
    return {
        "core.load_ms": timed(lambda: AuditSession.load(inputs / "model.json"), 7),
        "registry.get_ms": timed(lambda: registry.get(MODEL_NAME), 7),
        "registry.resolve_ms": timed(lambda: registry.resolve(MODEL_NAME), 21),
    }


def main(argv: list[str]) -> int:
    family, inputs, work = argv[0], Path(argv[1]), Path(argv[2])
    spans_path = Path(argv[4]) if argv[3:4] == ["--trace"] else None
    tracer = tracing.Tracer() if spans_path else NullTracer()
    if spans_path:
        tracing.install(tracer)
    work.mkdir(parents=True, exist_ok=True)
    system = FAMILIES[family](inputs, work, tracer)

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"ready": True})
    sequence = 0
    for line in sys.stdin:
        command = json.loads(line)
        if "op" in command:
            index = command["op"]
            sequence += 1
            first = tracer.begin_op(f"{family}-{sequence}") if spans_path else 0
            ref_before = reference_sample()
            try:
                with tracer.span("op"):
                    cpu = time.process_time()
                    start = time.perf_counter()
                    result = system.op(index)
                    elapsed = (time.perf_counter() - start) * 1000
                    cpu_ms = (time.process_time() - cpu) * 1000
            except Exception as exc:  # reported to run.py as a failed operation
                reply({"error": f"{type(exc).__name__}: {exc}"})
                continue
            ref_ms = (ref_before + reference_sample()) / 2
            data = result() if callable(result) else result
            answer = {
                "ms": elapsed,
                "cpu_ms": cpu_ms,
                "ref_ms": ref_ms,
                "sha": sha256(data),
            }
            if spans_path:
                system.counts()
                answer["layers"] = tracer.op_layers(first)
            reply(answer)
        elif "begin" in command:
            system.begin()
            reply({"ok": True})
        elif "end" in command:
            reply(system.end())
        elif "probe" in command:
            reply(probe(inputs))
        elif "quit" in command:
            break
    if spans_path:
        tracer.write(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
