"""Generate one seed's benchmark inputs and the reference digests of
every output the benchmark checks.

    python3 perfbench/prepare.py --seed N --out DIR FAMILY [FAMILY ...]
    python3 perfbench/prepare.py --seed N --out DIR --pin perfbench/pinned.json base audit serve monitor

FAMILY is ``base`` (the 20k-row training CSV, its fitted model and a
registry holding it), ``audit``, ``serve`` or ``monitor``; ``base`` is
prepared first whenever another family is asked for. Each family ends
by writing ``DIR/<family>.json`` (its reference digests and the digests
of its input files), so a family whose file exists is already prepared
and is skipped. ``--pin FILE`` records the seed's digests in FILE (see
``run.py``, which checks them whenever that seed runs).

The references come from the program's parity oracles, not from the
paths the benchmark times:

* the model is fitted in memory on the row path
  (``AuditorConfig(fit_path="rows")``), the oracle of the column-path
  ``fit_source`` the ``fit`` workload times;
* findings come from in-memory audits of the generated tables (no CSV,
  JSONL or tailing in between), and every finding on every
  ``ORACLE_STRIDE``-th row (every row of the ``serve`` pool) is checked
  against a row-at-a-time audit through ``AttributeClassifier.predict``
  and the scalar ``error_confidence``, which share no code with the
  vectorized ``predict_batch`` / ``error_confidence_batch`` path;
* the watermark comes from a catch-up monitor over the whole stream.

A reference that disagrees with its oracle ends the program with code 3
and a one-line message on standard output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from common import FAMILIES, MODEL_NAME, WINDOW_ROWS, pinned_view, render_findings, sha256  # noqa: E402
from repro.core.auditor import AuditorConfig  # noqa: E402
from repro.core.findings import Finding  # noqa: E402
from repro.core.session import AuditSession  # noqa: E402
from repro.io.csv_backend import CsvTableSink  # noqa: E402
from repro.io.jsonl_backend import JsonlTableSink  # noqa: E402
from repro.mining.confidence import error_confidence  # noqa: E402
from repro.monitor.tail import split_records  # noqa: E402
from repro.quis import generate_quis_sample  # noqa: E402
from repro.registry import ModelRegistry  # noqa: E402
from repro.schema.serialize import schema_to_dict  # noqa: E402
from repro.schema.table import Table  # noqa: E402
from repro.testenv.streams import quis_regime_stream  # noqa: E402

TRAIN_ROWS = 20_000
AUDIT_ROWS = 80_000
SERVE_WINDOWS = 16
SERVE_ROWS = 200
MONITOR_WINDOWS = 160
#: the monitor stream's regime step: 0.4% cell errors, then 8% from this
#: window on. A quarter of the windows follow the step, so the median
#: window lies inside the pre-step mode and every tail percentile from
#: p75 up inside the post-step mode, never between the two modes.
MONITOR_STEP_WINDOW = 120
MONITOR_RATES = (0.004, 0.08)
#: the row-at-a-time oracle checks every ORACLE_STRIDE-th row of the
#: audit table and the monitor stream (about 10k and 5k rows)
ORACLE_STRIDE = 8


class OracleMismatch(Exception):
    """A reference disagrees with its parity oracle."""


def row_loop_findings(session: AuditSession, table: Table, rows) -> list[Finding]:
    """The findings on *rows* of *table*, one record and one classifier
    at a time (``predict`` and the scalar Def.-7 ``error_confidence``)."""
    config = session.config
    names = table.schema.names
    records = [(row, dict(zip(names, table.rows[row]))) for row in rows]
    findings = []
    for class_attr, classifier in session.auditor.classifiers.items():
        encoder = classifier.dataset.class_encoder
        labels = encoder.labels
        for row, record in records:
            prediction = classifier.predict(record)
            observed = encoder.code_of(record[class_attr])
            confidence = error_confidence(
                prediction.probabilities, prediction.n, observed, config.bounds
            )
            if confidence >= config.min_error_confidence:
                predicted = labels[int(np.argmax(prediction.probabilities))]
                findings.append(
                    Finding(
                        row=row,
                        attribute=class_attr,
                        observed_label=labels[observed],
                        observed_value=record[class_attr],
                        predicted_label=predicted,
                        confidence=float(confidence),
                        support=float(prediction.n),
                        proposal=encoder.proposal_for(predicted),
                    )
                )
    return findings


def check_row_loop(what: str, session, table: Table, findings, stride: int) -> None:
    """Every finding of *findings* on every *stride*-th row of *table*
    equals the row-at-a-time oracle's, and no finding is missing."""
    rows = range(0, table.n_rows, stride)
    want = render_findings(row_loop_findings(session, table, rows)).splitlines()
    got = render_findings([f for f in findings if f.row % stride == 0]).splitlines()
    if sorted(got) != sorted(want):
        raise OracleMismatch(
            f"{what}: the findings on {len(rows)} checked rows differ from the "
            f"row-at-a-time oracle's ({len(got)} against {len(want)} findings)"
        )


def write_csv(table: Table, path: Path) -> None:
    with CsvTableSink(table.schema, path) as sink:
        sink.write(table)


def write_json(path: Path, payload) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def family_seeds(seed: int) -> dict[str, int]:
    """Independent generator seeds for each input table."""
    rng = random.Random(seed)
    return {name: rng.randrange(2**31) for name in FAMILIES}


def prepare_base(out: Path, seeds: dict[str, int]) -> dict:
    sample = generate_quis_sample(TRAIN_ROWS, seed=seeds["base"])
    (out / "schema.json").write_text(
        json.dumps(schema_to_dict(sample.schema)), encoding="utf-8"
    )
    write_csv(sample.dirty, out / "train.csv")
    session = AuditSession(sample.schema, AuditorConfig(fit_path="rows"))
    session.fit(sample.dirty)
    session.save(out / "model.json")
    session.save_to_registry(ModelRegistry(out / "registry"), MODEL_NAME)
    return {
        "model_sha": sha256((out / "model.json").read_bytes()),
        "rows": TRAIN_ROWS,
        "inputs": input_digests(out, "schema.json", "train.csv"),
    }


def input_digests(out: Path, *names: str) -> dict[str, str]:
    return {name: sha256((out / name).read_bytes()) for name in names}


def load_session(out: Path) -> AuditSession:
    return AuditSession.load(out / "model.json")


def prepare_audit(out: Path, seeds: dict[str, int]) -> dict:
    sample = generate_quis_sample(AUDIT_ROWS, seed=seeds["audit"])
    write_csv(sample.dirty, out / "audit.csv")
    session = load_session(out)
    report = session.audit(sample.dirty)
    check_row_loop("audit", session, sample.dirty, report.findings, ORACLE_STRIDE)
    return {
        "findings_sha": sha256(render_findings(report.findings)),
        "findings": len(report.findings),
        "rows": AUDIT_ROWS,
        "inputs": input_digests(out, "audit.csv"),
    }


def prepare_serve(out: Path, seeds: dict[str, int]) -> dict:
    sample = generate_quis_sample(SERVE_WINDOWS * SERVE_ROWS, seed=seeds["serve"])
    buffer = io.StringIO()
    with JsonlTableSink(sample.schema, buffer) as sink:
        sink.write(sample.dirty)
    rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
    session = load_session(out)
    windows, digests = [], []
    for start in range(0, len(rows), SERVE_ROWS):
        windows.append(rows[start : start + SERVE_ROWS])
        window = Table(sample.schema, sample.dirty.rows[start : start + SERVE_ROWS])
        report = session.audit(window)
        check_row_loop(f"serve window {len(windows)}", session, window, report.findings, 1)
        digests.append(sha256(render_findings(report.findings)))
    write_json(out / "serve-pool.json", {"model": MODEL_NAME, "windows": windows})
    return {"body_sha": digests, "inputs": input_digests(out, "serve-pool.json")}


def prepare_monitor(out: Path, seeds: dict[str, int]) -> dict:
    before = MONITOR_STEP_WINDOW * WINDOW_ROWS
    after = (MONITOR_WINDOWS - MONITOR_STEP_WINDOW) * WINDOW_ROWS
    stream, _ = quis_regime_stream(
        [(before, MONITOR_RATES[0]), (after, MONITOR_RATES[1])], seed=seeds["monitor"]
    )
    path = out / "stream.csv"
    write_csv(stream, path)
    data = path.read_bytes()
    records, _ = split_records(data, quoted=True)
    header, lines = records[0], records[1:]
    if len(lines) != len(stream.rows):
        raise RuntimeError(f"{path}: {len(lines)} records for {len(stream.rows)} rows")
    offsets = [len(header)]
    for start in range(0, len(lines), WINDOW_ROWS):
        offsets.append(offsets[-1] + sum(map(len, lines[start : start + WINDOW_ROWS])))

    session = load_session(out)
    window_sha, window_bytes, expected, every = [], [], [], []
    for start in range(0, len(stream.rows), WINDOW_ROWS):
        window = Table(stream.schema, stream.rows[start : start + WINDOW_ROWS])
        report = session.audit(window).with_row_offset(start)
        rendered = render_findings(report.findings)
        window_sha.append(sha256(rendered))
        window_bytes.append(len(rendered))
        expected.append(rendered)
        every.extend(report.findings)
    check_row_loop("monitor", session, stream, every, ORACLE_STRIDE)
    findings = b"".join(expected)

    # the watermark reference: a catch-up monitor over the complete file
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        state = Path(scratch) / "state.json"
        found = Path(scratch) / "findings.jsonl"
        with session.monitor(
            path, state_path=state, findings_path=found, window_rows=WINDOW_ROWS
        ) as watcher:
            watcher.run()
        if found.read_bytes() != findings:
            raise OracleMismatch("monitor: catch-up monitor findings differ from per-window audits")
        state_sha = sha256(state.read_bytes())
    return {
        "window_offsets": offsets,
        "window_sha": window_sha,
        "window_bytes": window_bytes,
        "findings_sha": sha256(findings),
        "findings_bytes": len(findings),
        "state_sha": state_sha,
        "inputs": input_digests(out, "stream.csv"),
    }


PREPARERS = {
    "base": prepare_base,
    "audit": prepare_audit,
    "serve": prepare_serve,
    "monitor": prepare_monitor,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pin", type=Path, help="record the seed's digests in this file")
    parser.add_argument("families", nargs="+", choices=FAMILIES)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    seeds = family_seeds(args.seed)
    families = [f for f in FAMILIES if f == "base" or f in args.families]
    for family in families:
        done = args.out / f"{family}.json"
        if not done.exists():
            try:
                refs = PREPARERS[family](args.out, seeds)
            except OracleMismatch as exc:
                print(f"seed {args.seed}: {exc}", flush=True)
                return 3
            write_json(done, refs)
    if args.pin:
        pins = json.loads(args.pin.read_text("utf-8")) if args.pin.exists() else {}
        pins[str(args.seed)] = {
            family: pinned_view(family, json.loads((args.out / f"{family}.json").read_text("utf-8")))
            for family in families
        }
        pins = dict(sorted(pins.items(), key=lambda item: int(item[0])))
        args.pin.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
