"""Shared infrastructure of the benchmark harness.

Every bench regenerates one table or figure of the paper's evaluation
(see DESIGN.md's experiment index). Rendered tables are always printed
(visible with ``pytest benchmarks/ --benchmark-only -s``); with
``REPRO_BENCH_RESULTS=1`` in the environment they are also written to
``benchmarks/results/<experiment>.txt``, so a recording run leaves the
paper-vs-measured evidence on disk while an ordinary test run leaves the
checked-in tables untouched.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.testenv import TestEnvironment

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def environment() -> TestEnvironment:
    """One shared test environment so generator profiles (schema + rule
    sets) are built once per (n_rules, seed) across all benches."""
    return TestEnvironment()


@pytest.fixture(scope="session")
def record_table():
    """Callable printing a rendered result table, and writing it to
    ``benchmarks/results/`` when ``REPRO_BENCH_RESULTS=1``."""

    def _record(experiment_id: str, text: str) -> None:
        if os.environ.get("REPRO_BENCH_RESULTS") != "1":
            print(f"\n{text}\n[not written: set REPRO_BENCH_RESULTS=1 to record]")
            return
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[written to {path}]")

    return _record
