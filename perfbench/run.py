"""Benchmark runner: times ``repro`` fit / audit / serve / monitor from
outside, through their public entry points.

    python3 perfbench/run.py --workload {fit,audit,serve,monitor}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. It generates the workload's inputs
from the seed (cached under ``.perfbench/inputs``, outside all timing),
starts the system under test in child processes, checks the sha256 of
every operation's output against a reference, and prints one JSON
object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics ``setup_s``, ``op_p50_ms``,
  ``op_tail_ms`` and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics of a traced run (see README.md).

Details of each run (host facts, every sample, the tail percentile
used) go to ``.perfbench/runs/``; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import collections
import hashlib
import http.client
import importlib.metadata
import importlib.util
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import FAMILIES, pinned_view, sha256
from reference import NOMINAL_MS, reference_sample

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
STATE = ROOT / ".perfbench"
WORKLOADS = ("fit", "audit", "serve", "monitor")
#: input families each workload needs on top of ``base``
INPUTS = {"fit": (), "audit": ("audit",), "serve": ("serve",), "monitor": ("monitor",)}
#: cold starts per run: the system under test's own, and the others
#: spread evenly between its rounds of operations
COLD_STARTS = 7
#: share of a traced run spent on the untraced operations it compares with
UNTRACED_SHARE = 0.4
#: whole rounds (see ``round_size``) per 20 seconds of ``--seconds``: about
#: 20 s of operations on the reference host (2 vCPUs, KVM). Monitor runs 6
#: streams (960 windows): at 1000 windows or more ``op_tail_ms`` would be
#: p99, which fsync and garbage-collection spikes set; its spread over ten
#: seeds was 0.41.
ROUNDS_PER_20S = {"fit": 8, "audit": 19, "serve": 22, "monitor": 6}
#: a run that has not finished by then stops its children and fails
DEADLINE_S = 170
KEEP_INPUT_DIRS = 6
KEEP_RUN_FILES = 40

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.version_ms": "ms",
    "core.load_ms": "ms",
    "registry.get_ms": "ms",
    "registry.resolve_ms": "ms",
    "io.parse_ms": "ms",
    "io.rows": "count",
    "io.bytes": "bytes",
    "io.jsonl_parse_ms": "ms",
    "core.encode_ms": "ms",
    "core.findings_ms": "ms",
    "core.findings": "count",
    "core.render_ms": "ms",
    "mining.predict_ms": "ms",
    "mining.confidence_ms": "ms",
    "core.fit_encode_ms": "ms",
    "mining.grow_ms": "ms",
    "mining.tree_nodes": "count",
    "core.save_ms": "ms",
    "serve.service_ms": "ms",
    "serve.transport_ms": "ms",
    "monitor.tail_ms": "ms",
    "monitor.audit_ms": "ms",
    "monitor.drift_ms": "ms",
    "monitor.commit_ms": "ms",
    "monitor.findings_bytes": "bytes",
    "trace.coverage": "ratio",
    "host.ref_ms": "ms",
}
#: per-layer metrics that partition one operation of each workload
COVERAGE = {
    "fit": ("io.parse_ms", "core.fit_encode_ms", "mining.grow_ms", "core.save_ms"),
    "audit": (
        "io.parse_ms",
        "core.encode_ms",
        "mining.predict_ms",
        "mining.confidence_ms",
        "core.findings_ms",
        "core.render_ms",
    ),
    "serve": (
        "io.jsonl_parse_ms",
        "core.encode_ms",
        "mining.predict_ms",
        "mining.confidence_ms",
        "core.findings_ms",
        "core.render_ms",
        "serve.transport_ms",
    ),
    "monitor": ("monitor.tail_ms", "monitor.audit_ms", "monitor.drift_ms", "monitor.commit_ms"),
}


class Mismatch(Exception):
    """An output differs from its reference: the run fails."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[int, float]:
    """The highest of p99/p95/p90/p75 with at least 10 samples beyond it;
    p50 when the run has too few operations for any of them."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return 50, median(values)


def at_nominal_speed(wall: float, cpu: float, ref_ms: float) -> float:
    """*wall* at the reference host's speed: its CPU part (*cpu*, in the
    same unit) is scaled by ``NOMINAL_MS`` over the reference loop's
    time *ref_ms* around it; the rest (waiting for I/O, timers, the
    network) is kept as measured."""
    waiting = max(0.0, wall - cpu)
    return waiting + (wall - waiting) * NOMINAL_MS / ref_ms


def host_adjusted(reply: dict) -> float:
    """An operation's time at the reference host's speed."""
    return at_nominal_speed(reply["ms"], reply["cpu_ms"], reply["ref_ms"])


def cpu_s(pid: int) -> float:
    """User plus system CPU time of process *pid* so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def thread_cpu_ns(pid: int) -> dict[str, int]:
    """Nanoseconds on a CPU so far of each live thread of process *pid*
    (``/proc/<pid>/task/<tid>/schedstat``; exact, where ``stat`` counts
    10 ms ticks)."""
    times = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as handle:
                times[tid] = int(handle.read().split()[0])
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return times


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- inputs ------------------------------------------------------------------


def source_digest() -> str:
    """Digest of the program and the input generator: the cache key."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [BENCH / "prepare.py", BENCH / "common.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prune(directory: Path, keep: int) -> None:
    if not directory.is_dir():
        return
    entries = sorted(directory.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    for entry in entries[keep:]:
        if entry.is_dir():
            shutil.rmtree(entry, ignore_errors=True)
        else:
            entry.unlink(missing_ok=True)


def prepare(seed: int, families, logs: Path) -> Path:
    out = STATE / "inputs" / f"{source_digest()}-s{seed}"
    missing = [f for f in ("base", *families) if not (out / f"{f}.json").exists()]
    if missing:
        log(f"generating inputs {', '.join(missing)} for seed {seed}")
        with open(logs / "prepare.log", "ab") as errors:
            done = subprocess.run(
                [sys.executable, str(BENCH / "prepare.py"), "--seed", str(seed),
                 "--out", str(out), *missing],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=errors, text=True, timeout=170,
            )
        if done.returncode == 3:
            raise Mismatch(f"reference oracle: {done.stdout.strip()}")
        if done.returncode != 0:
            raise RuntimeError(f"input generation failed; see {logs / 'prepare.log'}")
    os.utime(out)
    return out


def load_refs(inputs: Path) -> dict:
    return {
        path.stem: json.loads(path.read_text("utf-8"))
        for path in inputs.glob("*.json")
        if path.stem in FAMILIES
    }


def check_pinned(workload: str, seed: int, refs: dict) -> None:
    """For a seed listed in ``pinned.json``, every generated input and
    every reference output must have the digest recorded there, so that
    a change to the generators, the oracles or the code they share with
    the timed paths fails the run instead of changing the workload."""
    pins = json.loads((BENCH / "pinned.json").read_text("utf-8")).get(str(seed), {})
    for family, want in pins.items():
        if family not in refs:
            continue
        for name, got in pinned_view(family, refs[family]).items():
            if got != want.get(name):
                raise Mismatch(
                    f"{workload}: seed {seed} {family} {name}: digest {got} differs "
                    f"from the pinned {want.get(name)}"
                )


# -- systems under test ---------------------------------------------------------


@contextlib.contextmanager
def kill_on_error(system):
    """A child that fails to start is killed and reaped before the error
    propagates (it is not yet registered for cleanup)."""
    try:
        yield
    except BaseException:
        system.proc.kill()
        system.proc.wait()
        system.errors.close()
        raise


class Harness:
    """A ``sut.py`` child speaking one JSON object per line."""

    def __init__(self, family: str, inputs: Path, work: Path, logs: Path, spans=None):
        command = [sys.executable, str(BENCH / "sut.py"), family, str(inputs), str(work)]
        if spans is not None:
            command += ["--trace", str(spans)]
        self.family = family
        self.errors = open(logs / f"{family}.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.errors, text=True, bufsize=1,
        )
        with kill_on_error(self):
            self.ask(None)
            self.setup_s = time.perf_counter() - start
            self.setup_cpu_s = cpu_s(self.proc.pid)

    def ask(self, command):
        if command is not None:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.family} child exited (code {self.proc.wait()})")
        return json.loads(line)

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.errors.close()


class Server:
    """A ``python -m repro serve`` child and one keep-alive connection."""

    family = "serve"

    def __init__(self, inputs: Path, logs: Path):
        self.errors = open(logs / "serve.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--registry",
             str(inputs / "registry"), "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self.errors,
            text=True,
        )
        with kill_on_error(self):
            line = self.proc.stdout.readline()
            found = re.search(r"http://([^:/\s]+):(\d+)", line)
            if not found:
                raise RuntimeError(f"serve did not report its address: {line!r}")
            self.conn = http.client.HTTPConnection(found[1], int(found[2]), timeout=60)
            status, _ = self.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"GET /healthz answered {status}")
            self.setup_s = time.perf_counter() - start
            self.setup_cpu_s = cpu_s(self.proc.pid)

    def request(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.errors.close()


# -- operation loops -------------------------------------------------------------


class Run:
    """Counters, samples and checks shared by the loops of one run."""

    def __init__(self, workload: str, inputs: Path, logs: Path, tag: str):
        self.workload = workload
        self.tag = tag
        self.inputs = inputs
        self.logs = logs
        self.refs = load_refs(inputs)
        self.attempted = 0
        self.failed = 0
        self.ref_ms: list[float] = []
        self.children: list = []
        self.monitor_bytes: list[int] = []
        pool = inputs / "serve-pool.json"
        self.bodies = []
        if pool.exists():
            data = json.loads(pool.read_text("utf-8"))
            self.bodies = [
                json.dumps({"model": data["model"], "rows": rows}).encode("utf-8")
                for rows in data["windows"]
            ]

    def start(self, system):
        self.children.append(system)
        return system

    def stop_all(self) -> None:
        for child in self.children:
            try:
                child.stop()
            except Exception as exc:  # keep stopping the others
                log(f"stopping {child.family}: {exc}")
        self.children.clear()

    def expect(self, what: str, got: str, want: str) -> None:
        if got != want:
            raise Mismatch(
                f"{self.workload}: {what}: output sha256 {got[:16]} differs from "
                f"reference {want[:16]}"
            )

    def expected_sha(self, family: str, index: int) -> str:
        if family == "fit":
            return self.refs["base"]["model_sha"]
        if family == "audit":
            return self.refs["audit"]["findings_sha"]
        if family == "serve":
            return self.refs["serve"]["body_sha"][index]
        return self.refs["monitor"]["window_sha"][index]

    def harness_op(self, child: Harness, index: int, label: str):
        """One operation; returns its reply, or None when it failed."""
        self.attempted += 1
        reply = child.ask({"op": index})
        if "error" in reply:
            self.failed += 1
            log(f"{label} failed: {reply['error']}")
            return None
        self.expect(label, reply["sha"], self.expected_sha(child.family, index))
        return reply

    def http_op(self, server: Server, index: int, label: str):
        """One ``POST /audit``; returns its round-trip ms, the CPU ms the
        server's threads and this process spent on it, the reference
        loop's time right before it, and the body digest; or None when
        it failed."""
        self.attempted += 1
        ref_ms = reference_sample()
        try:
            threads = thread_cpu_ns(server.proc.pid)
            cpu = time.process_time()
            start = time.perf_counter()
            status, body = server.request("POST", "/audit", self.bodies[index])
            elapsed = (time.perf_counter() - start) * 1000
            cpu_ms = (time.process_time() - cpu) * 1000
            after = thread_cpu_ns(server.proc.pid)
        except (OSError, http.client.HTTPException) as exc:
            self.failed += 1
            log(f"{label} failed: {exc}")
            server.conn.close()
            return None
        if status != 200:
            self.failed += 1
            log(f"{label} failed: HTTP {status}")
            return None
        digest = sha256(body)
        self.expect(label, digest, self.expected_sha("serve", index))
        cpu_ms += sum(after[tid] - ns for tid, ns in threads.items() if tid in after) / 1e6
        return {"ms": elapsed, "cpu_ms": cpu_ms, "ref_ms": ref_ms, "sha": digest}

    def end_pass(self, child: Harness, label: str) -> None:
        reply = child.ask({"end": True})
        refs = self.refs["monitor"]
        self.expect(f"{label} findings file", reply["findings_sha"], refs["findings_sha"])
        self.expect(f"{label} watermark", reply["state_sha"], refs["state_sha"])
        self.monitor_bytes.append(reply["findings_bytes"])

    def loop(self, child, family: str, rounds: int, between=None) -> list:
        """Run *rounds* whole rounds of *family*'s operations; returns the
        replies of the successful ones. A monitor round ends with the
        check of its final findings file and watermark. *between*, if
        given, is called with the round's index before each round."""
        size = round_size(self, family)
        results = []
        for round_index in range(rounds):
            if between is not None:
                between(round_index)
            if family == "monitor" and round_index:
                child.ask({"begin": True})
            for index in range(size):
                label = f"{family} round {round_index + 1} operation {index + 1}"
                if isinstance(child, Server):
                    result = self.http_op(child, index, label)
                else:
                    result = self.harness_op(child, index, label)
                if result is not None:
                    results.append(result)
                    self.ref_ms.append(result["ref_ms"])
            if family == "monitor":
                self.end_pass(child, f"monitor round {round_index + 1}")
        return results


def round_size(run: Run, family: str) -> int:
    """Operations per round: one ``fit``/``audit``, one pass over the
    ``serve`` request pool, one whole ``monitor`` stream. Runs are made
    of whole rounds, so every run sees the same mix of operations."""
    if family == "serve":
        return len(run.bodies)
    if family == "monitor":
        return len(run.refs["monitor"]["window_sha"])
    return 1


def rounds_for(family: str, seconds: float) -> int:
    """The rounds of a run of *seconds*. The count follows the run length,
    not the clock, so the sample count and the tail percentile are the
    same on every run of a workload."""
    return max(1, round(ROUNDS_PER_20S[family] * seconds / 20))


def warm_up(run: Run, child, family: str) -> None:
    """One checked, untimed round: lazy loads and caches fill first."""
    run.loop(child, family, 1)
    if family == "monitor":
        child.ask({"begin": True})


def start_system(run: Run, family: str):
    """Cold-start *family*'s system under test (registered for cleanup).
    Its ``setup`` is the cold start's time at the reference host's
    speed, with the reference loop timed in this process right before
    and right after it."""
    ref_before = reference_sample()
    if family == "serve":
        system = run.start(Server(run.inputs, run.logs))
    else:
        # a work directory of its own: a monitor child truncates its stream
        work = STATE / "work" / f"{family}-{len(run.children)}"
        system = run.start(Harness(family, run.inputs, work, run.logs))
    ref_ms = (ref_before + reference_sample()) / 2
    system.setup = at_nominal_speed(system.setup_s, system.setup_cpu_s, ref_ms)
    return system


def stop_system(run: Run, system) -> None:
    system.stop()
    run.children.remove(system)


def untraced_ops(run: Run, family: str, rounds: int, cold_starts: int = 0) -> dict:
    """Times and output digests of *rounds* untraced rounds after a
    warm-up, with the set-up time and peak RSS of their process, and
    *cold_starts* more cold starts of the system spread evenly between
    the rounds (each stopped before the next round begins), so that the
    set-up times span the run as the operations do."""
    schedule = collections.Counter(k * rounds // cold_starts for k in range(cold_starts))
    starts = []

    def between(round_index: int) -> None:
        for _ in range(schedule[round_index]):
            extra = start_system(run, family)
            starts.append((extra.setup, extra.setup_s))
            stop_system(run, extra)

    system = start_system(run, family)
    starts.append((system.setup, system.setup_s))
    warm_up(run, system, family)
    replies = run.loop(system, family, rounds, between if cold_starts else None)
    result = {
        "op_ms": [reply["ms"] for reply in replies],
        "host_ms": [host_adjusted(reply) for reply in replies],
        "sha": [reply["sha"] for reply in replies],
        "setup_s": [setup for setup, _ in starts],
        "measured_setup_s": [measured for _, measured in starts],
        "rss_mb": system.rss_mb(),
    }
    stop_system(run, system)
    return result


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics of ``run.workload``."""
    family = run.workload
    ops = untraced_ops(run, family, rounds_for(family, seconds), COLD_STARTS - 1)
    times = ops["host_ms"]
    if not times:
        raise RuntimeError(f"{family}: no operation succeeded")
    pct, tail_ms = tail(times)
    metrics = {
        "setup_s": median(ops["setup_s"]),
        "op_p50_ms": median(times),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": ops["rss_mb"],
    }
    details = {
        "setup_s": ops["setup_s"],
        "measured_setup_s": ops["measured_setup_s"],
        "op_ms": times,
        "tail_percentile": pct,
        "measured_op_ms": ops["op_ms"],
        "measured_op_p50_ms": median(ops["op_ms"]),
    }
    return metrics, details


# -- traced run ------------------------------------------------------------------


def cli_probes(repeat: int = 5) -> dict:
    """Fresh-process ``import repro.cli`` and ``python -m repro --version``."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print((time.perf_counter() - t) * 1000)")
    imports, versions = [], []
    for _ in range(repeat):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(done.stdout.strip()))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "repro", "--version"], cwd=ROOT,
                       env=child_env(), capture_output=True, timeout=60, check=True)
        versions.append((time.perf_counter() - start) * 1000)
    return {"cli.import_ms": imports, "cli.version_ms": versions}


def traced_family(run: Run, family: str, rounds: int) -> dict:
    """Per-layer samples of *family*'s operations in a traced child."""
    spans = STATE / "runs" / f"{run.workload}-{run.tag}-{family}.spans.json"
    child = run.start(Harness(family, run.inputs, STATE / "work" / f"traced-{family}",
                              run.logs, spans=spans))
    samples: dict[str, list] = {}
    if family == run.workload:
        for name, values in child.ask({"probe": True}).items():
            samples[name] = values
    first = len(run.monitor_bytes)
    replies = run.loop(child, family, rounds)
    stop_system(run, child)
    for reply in replies:
        # layer times are host-adjusted like the operation they belong to
        scale = host_adjusted(reply) / reply["ms"]
        for name, value in reply["layers"].items():
            samples.setdefault(name, []).append(
                value * scale if name.endswith("_ms") else value
            )
    if run.monitor_bytes[first:]:
        samples["monitor.findings_bytes"] = run.monitor_bytes[first:]
    samples["op_ms"] = [host_adjusted(reply) for reply in replies]
    samples["sha"] = [reply["sha"] for reply in replies]
    return samples


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """The per-layer metrics, with ``run.workload`` traced for most of the
    run and every other family for a few operations."""
    workload = run.workload
    by_family: dict[str, dict] = {}
    cli = cli_probes()

    # the untraced operations the trace is compared with
    untraced_s = seconds * UNTRACED_SHARE
    plain = untraced_ops(run, workload, rounds_for(workload, untraced_s))
    by_family[workload] = traced_family(
        run, workload, rounds_for(workload, seconds - untraced_s)
    )
    if set(plain["sha"]) != set(by_family[workload]["sha"]):
        raise Mismatch(f"{workload}: traced outputs differ from untraced outputs")
    for family in WORKLOADS:
        if family != workload:
            by_family[family] = traced_family(run, family, 1)

    # serve transport: HTTP round trip minus the in-process service call
    round_trips = plain if workload == "serve" else untraced_ops(run, "serve", 1)
    serve = by_family["serve"]
    serve["serve.transport_ms"] = [
        median(round_trips["host_ms"]) - median(serve["serve.service_ms"])
    ]

    metrics, sources = {}, {}
    for name in PER_LAYER:
        if name in cli:
            metrics[name], sources[name] = median(cli[name]), "run.py"
            continue
        for family in (workload, *[f for f in WORKLOADS if f != workload]):
            values = by_family[family].get(name)
            if values:
                metrics[name], sources[name] = median(values), family
                break
    untraced_p50 = median(plain["host_ms"])
    metrics["trace.coverage"] = sum(
        metrics.get(name, 0.0) for name in COVERAGE[workload]
    ) / untraced_p50
    metrics["host.ref_ms"] = median(run.ref_ms)
    for name in PER_LAYER:
        if name not in metrics:
            log(f"warning: no {name} samples (the wrapped function was never called)")
            metrics[name] = 0.0
    details = {
        "sources": sources,
        "untraced_op_p50_ms": untraced_p50,
        "traced_op_p50_ms": median(by_family[workload]["op_ms"]),
        "samples": {f: {k: v for k, v in s.items() if k != "sha"} for f, s in by_family.items()},
    }
    return metrics, details


# -- main ---------------------------------------------------------------------------


def host_facts() -> dict:
    def version(package: str):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyarrow": importlib.util.find_spec("pyarrow") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program sources at {ROOT / 'src' / 'repro'}; run from a full checkout")
        return 2

    def overrun(signum, frame):
        raise TimeoutError(f"run did not finish within {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, overrun)
    signal.alarm(DEADLINE_S)
    for sub in ("inputs", "runs", "work", "logs"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    prune(STATE / "inputs", KEEP_INPUT_DIRS - 1)
    prune(STATE / "runs", KEEP_RUN_FILES)
    logs = STATE / "logs"
    families = WORKLOADS[1:] if args.trace else INPUTS[args.workload]
    tag = f"s{args.seed}-{'trace' if args.trace else 'run'}"
    try:
        inputs = prepare(args.seed, families, logs)
    except Mismatch as exc:
        log(str(exc))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    run = Run(args.workload, inputs, logs, tag)
    correct = True
    try:
        check_pinned(args.workload, args.seed, run.refs)
        if args.trace:
            metrics, details = traced(run, args.seconds)
            units = PER_LAYER
        else:
            metrics, details = untraced(run, args.seconds)
            units = END_TO_END
    except Mismatch as exc:
        log(str(exc))
        correct, metrics, details, units = False, {}, {"mismatch": str(exc)}, {}
    finally:
        run.stop_all()
        shutil.rmtree(STATE / "work", ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "attempted": run.attempted,
        "failed": run.failed,
        "host_ref_ms": median(run.ref_ms) if run.ref_ms else None,
        "metrics": metrics,
        **details,
    }
    (STATE / "runs" / f"{args.workload}-{run.tag}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    if "tail_percentile" in details:
        log(f"{args.workload}: op_tail_ms is p{details['tail_percentile']} "
            f"of {len(details['op_ms'])} operations")
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
