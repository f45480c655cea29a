"""serve-mix: an open loop of real jobs against one ``pasm-serve --jobs 1``.

One single-threaded asyncio generator sends requests on a fixed schedule
(``RATE`` per second) over at most ``nproc`` keep-alive connections; each
request is timed from its due time, so a stall also charges the requests
queued behind it.  The mix (:func:`make_schedule`, seeded):

* first-time macro matmul specs — all four modes, n in {16, 64}, some with
  added multiplies — each with a data seed no other request uses;
* repeats of specs answered at least ``REPEAT_AGE_S`` earlier (memo and
  store reads beside the cold writes);
* a small share of first-time micro-engine n=8 matmuls, each holding the
  single worker for ~50-150 ms (head-of-line blocking).

When the host has two or more CPUs the server tree runs on one and the
generator on another.  After the window the server is stopped and every
distinct spec is re-executed in-process: each served payload must equal it.
A traced run measures the program's layers during that re-execution.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import gates
import spans
from common import (Children, cpu_split, median, supported_percentile,
                    tree_cpu_s, tree_peak_rss_mb)

RATE = 40.0                 #: requests per second, open loop
MICRO_SHARE = 0.01
REPEAT_SHARE = 0.29         #: the rest (70%) are first-time macro specs
REPEAT_AGE_S = 2.0
TIMEOUT_S = 10.0            #: per request; a failure counts at this latency
LATE_LIMIT_MS = 50.0        #: generator lateness p99 beyond this = invalid
BLOCK = 100                 #: requests per block of exact class shares
SETUPS = 3
CONNECTIONS = 2             #: keep-alive connections, capped at nproc
SERVER_START_S = 60.0

MODES = ("serial", "simd", "mimd", "smimd")

LAYER_UNITS = {
    "exec.inproc_p50_ms": "ms",
    "serve.submitted": "count",
    "serve.submitted_queued": "count",
    "serve.submitted_dedup": "count",
    "serve.submitted_memo": "count",
    "serve.submitted_cached": "count",
    "serve.hit_ratio": "1",
    "serve.computed": "count",
    "serve.exec_p50_ms": "ms",
    "serve.job_latency_p50_ms": "ms",
    "serve.overhead_p50_ms": "ms",
    "serve.queue_depth_max": "count",
    "serve.micro_p50_ms": "ms",
    "serve.cpu_ms_per_req": "ms",
    "serve.shed": "count",
    "serve.failed": "count",
    "loadgen.sent": "count",
    "loadgen.late_p99_ms": "ms",
    "loadgen.p99_ms": "ms",
    "loadgen.cold_p50_ms": "ms",
    "loadgen.hit_p50_ms": "ms",
    "loadgen.fail_ratio": "1",
}


# ---------------------------------------------------------------------------
# Inputs
def _macro(rng: random.Random, spec_seed: int) -> dict:
    mode = rng.choice(MODES)
    return {"program": "matmul", "mode": mode, "n": rng.choice((16, 64)),
            "p": 1 if mode == "serial" else rng.choice((4, 8, 16)),
            "added_multiplies": 0 if rng.random() < 0.7
            else rng.choice((50, 100)),
            "engine": "macro", "seed": spec_seed}


def _micro(k: int, spec_seed: int) -> dict:
    """The ``k``-th micro job: modes in turn, so every run holds the worker
    for the same mix of ~70-150 ms jobs."""
    return {"program": "matmul", "mode": ("simd", "mimd", "smimd")[k % 3],
            "n": 8, "p": 4, "engine": "micro", "seed": spec_seed}


def warmup_specs(seed: int) -> list[dict]:
    base = (seed % 10_000) * 100_000 + 99_990
    return [
        {"program": "matmul", "mode": "serial", "n": 16, "p": 1,
         "engine": "macro", "seed": base},
        {"program": "matmul", "mode": "simd", "n": 64, "p": 4,
         "engine": "macro", "seed": base + 1},
        {"program": "matmul", "mode": "simd", "n": 4, "p": 4,
         "engine": "micro", "seed": base + 2},
    ]


def make_schedule(seed: int, seconds: float, rate: float = RATE) -> \
        list[tuple[float, str, dict]]:
    """``(due offset s, class, spec)`` for every request; a pure function of
    the seed, so the same seed always sends the same requests.  Every block
    of ``BLOCK`` requests holds exactly the class shares, shuffled, so runs
    differ in which specs they send but not in how many of each class."""
    rng = random.Random(seed)
    base = (seed % 10_000) * 100_000
    answered = warmup_specs(seed)[:2]
    colds: list[tuple[float, dict]] = []
    schedule = []
    block: list[str] = []
    for i in range(int(rate * seconds)):
        due = i / rate
        while colds and colds[0][0] <= due - REPEAT_AGE_S:
            answered.append(colds.pop(0)[1])
        if not block:
            block = (["micro"] * round(MICRO_SHARE * BLOCK)
                     + ["repeat"] * round(REPEAT_SHARE * BLOCK))
            block += ["cold"] * (BLOCK - len(block))
            rng.shuffle(block)
        cls = block.pop()
        if cls == "micro":
            spec = _micro(sum(c == "micro" for _, c, _ in schedule),
                          base + i + 1)
        elif cls == "repeat":
            spec = rng.choice(answered)
        else:
            spec = _macro(rng, base + i + 1)
            colds.append((due, spec))
        schedule.append((due, cls, spec))
    return schedule


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


# ---------------------------------------------------------------------------
# HTTP client: one request at a time per keep-alive connection
class Connection:
    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port)
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


async def submit(conn: Connection, spec: dict) -> tuple[int, dict]:
    status, body = await conn.request(
        "POST", f"/v1/jobs?wait=1&timeout={TIMEOUT_S}",
        json.dumps({"spec": spec}).encode())
    return status, json.loads(body)


def _ok(status: int, doc: dict) -> bool:
    return status == 200 and doc.get("state") == "done" and "result" in doc


async def open_loop(port: int, schedule, connections: int, recorder):
    """Send ``schedule``; return one record per request."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    records: list[dict | None] = [None] * len(schedule)

    async def dispatcher() -> None:
        base = loop.time() + 0.05
        for i, (offset, _, _) in enumerate(schedule):
            due = base + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((i, due, loop.time() - due))
        for _ in range(connections):
            queue.put_nowait(None)

    async def worker() -> None:
        conn = Connection(port)
        while (item := await queue.get()) is not None:
            i, due, late = item
            _, cls, spec = schedule[i]
            status, doc = 0, {}
            try:
                status, doc = await asyncio.wait_for(
                    submit(conn, spec), due + TIMEOUT_S - loop.time())
            except (asyncio.TimeoutError, OSError, ValueError,
                    asyncio.IncompleteReadError):
                conn.close()
            done = loop.time()
            ok = _ok(status, doc)
            records[i] = {
                "class": cls, "late": late, "status": status, "ok": ok,
                "latency": done - due if ok else TIMEOUT_S,
                "payload": doc.get("result"), "outcome": doc.get("outcome"),
            }
            if recorder is not None:
                recorder.add("loadgen.request", due, done, tag=cls)
        conn.close()

    await asyncio.gather(dispatcher(), *(worker() for _ in range(connections)))
    return records


# ---------------------------------------------------------------------------
# The server under test
class Server:
    def __init__(self, children: Children, work: Path, tag: str,
                 cpus) -> None:
        self.log = work / f"{tag}.log"
        store = work / f"{tag}-store"
        self.t_spawn = time.monotonic()
        with open(self.log, "ab") as log:
            self.proc = children.spawn(
                [sys.executable, "-m", "repro.serve.app",
                 "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
                 "--cache-dir", str(store),
                 "--recorder-dir", str(work / f"{tag}-flightrec"),
                 "--sample-interval", "1"],
                cpus=cpus, stdout=log, stderr=subprocess.STDOUT)
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"pasm-serve exited {self.proc.returncode}:"
                                   f" {self.log.read_text()[-2000:]}")
            found = re.search(r"http://127\.0\.0\.1:(\d+)",
                              self.log.read_text(errors="replace"))
            if found:
                return int(found.group(1))
            time.sleep(0.005)
        raise RuntimeError("pasm-serve did not report its port")

    async def ready(self, specs) -> tuple[float, list]:
        """Wait for /healthz, answer the warm-up specs; return set-up time."""
        conn = Connection(self.port)
        deadline = self.t_spawn + SERVER_START_S
        while True:
            try:
                status, _ = await conn.request("GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("pasm-serve never became healthy")
            await asyncio.sleep(0.005)
        answers = [await submit(conn, spec) for spec in specs]
        conn.close()
        return time.monotonic() - self.t_spawn, answers

    async def get(self, path: str) -> bytes:
        conn = Connection(self.port)
        try:
            return (await conn.request("GET", path))[1]
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass  # Children.reap() kills the whole group


def parse_prometheus(text: str) -> dict[tuple[str, str], float]:
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name, _, labels = name_labels.partition("{")
        out[(name, labels.rstrip("}"))] = float(value)
    return out


def _sum(metrics: dict, name: str, label: str = "") -> float:
    return sum(v for (n, labels), v in metrics.items()
               if n == name and label in labels)


# ---------------------------------------------------------------------------
def serve_mix(children: Children, seed: int, seconds: float, trace: bool,
              work: Path) -> dict:
    connections = min(CONNECTIONS, len(os.sched_getaffinity(0)))
    server_cpus, gen_cpus = cpu_split()
    if gen_cpus:
        os.sched_setaffinity(0, gen_cpus)
    recorder = spans.Recorder() if trace else None
    schedule = make_schedule(seed, seconds)
    warm = warmup_specs(seed)
    bad: list[str] = []
    setups = []
    for k in range(SETUPS):
        server = Server(children, work, f"server{k}", server_cpus)
        setup, answers = asyncio.run(server.ready(warm))
        setups.append(setup)
        if not all(_ok(*a) for a in answers):
            bad.append(f"server {k}: warm-up specs failed")
        if k < SETUPS - 1:
            server.stop()

    async def window():
        before = parse_prometheus((await server.get("/metrics")).decode())
        cpu0 = tree_cpu_s(server.proc.pid)
        t0 = time.time()
        records = await open_loop(server.port, schedule, connections,
                                  recorder)
        t1 = time.time()
        cpu1 = tree_cpu_s(server.proc.pid)
        after = parse_prometheus((await server.get("/metrics")).decode())
        series = json.loads(await server.get("/v1/timeseries"))
        return records, before, after, series, cpu1 - cpu0, t0, t1

    records, before, after, series, cpu_s, t0, t1 = asyncio.run(window())
    rss_mb = tree_peak_rss_mb(server.proc.pid)
    server.stop()

    # Correctness: every served payload equals an in-process execution.
    # Traced, that re-execution runs under the span wrappers: the server is
    # not instrumented, so the layers a served spec reaches (exec,
    # timing_model, m68k, programs, machine) are measured here, in-process,
    # on serve-mix's own specs.  Each spec is one trace.
    jobs = spans.install(("repro.exec",)) if trace else None
    from repro.exec import SimJobSpec, execute_job

    served: dict[str, list] = {}
    for rec, (_, _, spec) in zip(records, schedule):
        if rec["ok"]:
            served.setdefault(spec_key(spec), []).append(rec["payload"])
    inproc, cold_ms = {}, []
    cold_keys = {spec_key(s) for _, c, s in schedule if c == "cold"}
    for key in served:
        if jobs is not None:
            jobs.new_trace()
        start = time.perf_counter()
        payload = execute_job(SimJobSpec.from_dict(json.loads(key)))
        if key in cold_keys:
            cold_ms.append((time.perf_counter() - start) * 1e3)
        inproc[key] = json.loads(json.dumps(payload))
    bad += gates.served_payloads(served, inproc)

    failed = sum(not r["ok"] for r in records)
    latencies = [r["latency"] * 1e3 for r in records]
    late = [r["late"] * 1e3 for r in records]
    by_class = {c: [r["latency"] * 1e3 for r in records if r["class"] == c]
                for c in ("cold", "repeat", "micro")}
    try:
        late_stat, late_ms = "p99", supported_percentile(late, 99)
    except ValueError:  # too few requests for p99: hold the run to its worst
        late_stat, late_ms = "max", max(late, default=0.0)
    if late_ms > LATE_LIMIT_MS:
        bad.append(f"generator fell behind: lateness {late_stat} "
                   f"{late_ms:.1f} ms > {LATE_LIMIT_MS} ms")

    def delta(name: str, label: str = "") -> float:
        return _sum(after, name, label) - _sum(before, name, label)

    submitted = delta("pasm_serve_submitted_total")
    absorbed = sum(delta("pasm_serve_submitted_total", f'outcome="{o}"')
                   for o in ("dedup", "memo", "cached"))
    # Jobs admitted and not finished (lane queues + pool), per sample: with
    # --jobs 1 the broker hands work to the pool at once, so the lane
    # queues alone stay empty.
    depth: dict[float, float] = {}
    for key, s in series.get("series", {}).items():
        if key.startswith(("pasm_serve_queue_depth", "pasm_serve_in_flight")):
            for t, v in s["points"]:
                if t0 - 0.5 <= t <= t1 + 0.5:
                    depth[t] = depth.get(t, 0.0) + v
    inproc_p50 = median(cold_ms) if cold_ms else 0.0
    cold_p50 = median(by_class["cold"]) if by_class["cold"] else 0.0
    layers = {
        "exec.inproc_p50_ms": inproc_p50,
        "serve.submitted": submitted,
        "serve.hit_ratio": absorbed / submitted if submitted else 0.0,
        "serve.computed": delta("pasm_serve_computed_total"),
        "serve.exec_p50_ms": 1e3 * _sum(after, "pasm_serve_exec_seconds",
                                        'quantile="0.5"'),
        "serve.job_latency_p50_ms": 1e3 * _sum(
            after, "pasm_serve_job_latency_seconds", 'quantile="0.5"'),
        "serve.overhead_p50_ms": cold_p50 - inproc_p50,
        "serve.queue_depth_max": max(depth.values(), default=0.0),
        "serve.micro_p50_ms":
            median(by_class["micro"]) if by_class["micro"] else 0.0,
        "serve.cpu_ms_per_req": cpu_s * 1e3 / max(len(records), 1),
        "serve.shed": delta("pasm_serve_requests_total", 'status="429"')
        + delta("pasm_serve_requests_total", 'status="503"'),
        "serve.failed": delta("pasm_serve_failed_total"),
        "loadgen.sent": len(records),
        "loadgen.late_p99_ms": _tail(late, 99),
        "loadgen.p99_ms": _tail(latencies, 99),
        "loadgen.cold_p50_ms": cold_p50,
        "loadgen.hit_p50_ms":
            median(by_class["repeat"]) if by_class["repeat"] else 0.0,
        "loadgen.fail_ratio": failed / max(len(records), 1),
    }
    for outcome in ("queued", "dedup", "memo", "cached"):
        layers[f"serve.submitted_{outcome}"] = delta(
            "pasm_serve_submitted_total", f'outcome="{outcome}"')
    if recorder is not None:
        (work / "requests").mkdir()
        spans.write_spans(work / "requests" / "spans.json", recorder.take())
    if jobs is not None:
        job_spans = jobs.take()
        jobs.uninstall()
        layers.update(spans.layer_metrics(job_spans))
        error = spans.self_sum_error(job_spans)
        if error > 1e-6:
            bad.append(f"self times do not sum to the root spans "
                       f"(off by {error:.3g}s)")
        (work / "jobs").mkdir()
        spans.write_spans(work / "jobs" / "spans.json", job_spans)
    return {
        "bad": bad,
        "attempted": len(records),
        "failed": failed,
        "setup_s": median(setups),
        "p50_ms": median(latencies),
        "rss_mb": rss_mb,
        "layers": layers if trace else {},
    }


def _tail(values, q: float) -> float:
    """``q``-th percentile when the sample supports it (>= 10 beyond)."""
    try:
        return supported_percentile(values, q)
    except ValueError as exc:
        print(f"serve-mix: not reporting p{q:g}: {exc}", file=sys.stderr)
        return 0.0
