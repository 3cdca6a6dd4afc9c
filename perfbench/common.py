"""Names and helpers shared by ``prepare.py``, ``run.py`` and ``sut.py``.

This module imports nothing from ``repro`` at import time, so ``run.py``
(which never imports the program) can use it too.
"""

from __future__ import annotations

import hashlib
import io

#: rows per monitor window, in the generated stream and in the watcher
WINDOW_ROWS = 256
#: the name the fitted model is registered under
MODEL_NAME = "quis"
FAMILIES = ("base", "audit", "serve", "monitor")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def render_findings(findings) -> bytes:
    """The bytes ``repro audit --format jsonl`` prints for *findings*."""
    from repro.core.findings import findings_to_table
    from repro.io.jsonl_backend import JsonlTableSink

    table = findings_to_table(findings)
    buffer = io.StringIO()
    with JsonlTableSink(table.schema, buffer) as sink:
        sink.write(table)
    return buffer.getvalue().encode("utf-8")


def pinned_view(family: str, refs: dict) -> dict:
    """The digests of *family*'s reference record that ``pinned.json``
    fixes for its seeds: every generated input file and every checked
    output, each as 16 hex digits."""
    view = {f"input {name}": digest for name, digest in refs["inputs"].items()}
    if family == "base":
        view["model"] = refs["model_sha"]
    elif family == "audit":
        view["findings"] = refs["findings_sha"]
    elif family == "serve":
        view["bodies"] = sha256("\n".join(refs["body_sha"]).encode("ascii"))
    else:
        view["findings file"] = refs["findings_sha"]
        view["watermark"] = refs["state_sha"]
    return {key: value[:16] for key, value in sorted(view.items())}
