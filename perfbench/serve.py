"""``serve``: open-loop Poisson traffic from one process to a ``TdpServer``.

The server runs at its defaults in a host process (``serve_host.py``). This
process sends ``POST /query`` over at most ``nproc`` keep-alive connections
and times each request from its due time, so a request that waits here for
a free connection still counts that wait. Each rung of the rate ladder runs
for a fixed share of the run. A closed loop, every connection sending back
to back, measures capacity; ``SCHEDULE`` interleaves it with the ladder.
Every response is checked against ``compile_query(...).run()`` of the same
statement on a separate in-process session.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.tcr.autograd import no_grad
from repro.tcr.tensor import Tensor

import servesets
from common import SETUP_REPEATS, Report, beyond, median, percentile, timed_median
from layers import compile_breakdown, hit_ratio
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
# The run's phases in order: (rung, rate in requests/s, share of the run).
# Rate None is the closed saturation loop: every connection sends back to
# back, and its completions/s is the capacity. rate_lo and the saturation
# loop each run in PIECES pieces spread over the run, and their gated
# figures are medians over the pieces: a slow spell of the shared machine
# moves one piece, not the figure. The top rungs sit above the capacity of
# a 2-core machine (about 140-210/s), so the fixed ladder brackets
# saturation and max_rate_qps can move either way.
PIECES = 3
SATURATED_SHARE = 0.35
_LO = ("rate_lo", 30.0, 0.25 / PIECES)
_SAT = ("saturated", None, SATURATED_SHARE / PIECES)
SCHEDULE = (_LO, _SAT, ("rate_hi", 60.0, 0.15), _LO, _SAT,
            ("rate_100", 100.0, 0.1), ("rate_150", 150.0, 0.075), _LO, _SAT,
            ("rate_200", 200.0, 0.075))
RATES = {name: rate for name, rate, _ in SCHEDULE if rate is not None}
# A rung counts towards max_rate_qps only within these limits.
LATENCY_LIMIT_MS = 250.0
FAILED_CEILING = 0.01
# Serial requests for the HTTP-overhead comparison in the traced run.
OVERHEAD_REQUESTS = 40
ENCODE_BATCH = 32
HOST_TIMEOUT_S = 120.0
# glibc otherwise moves its mmap threshold as large arrays are freed, and
# which worker thread's arena serves an allocation varies run to run; fixed
# values keep the server's peak RSS comparable between runs.
HOST_MALLOC = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_ARENA_MAX": "2"}


class Rung:
    """One phase of traffic; ``rate=None`` is the closed saturation loop."""

    def __init__(self, rate: Optional[float], seconds: float):
        self.rate = rate
        self.seconds = seconds
        self.records: List[dict] = []
        self.lags_ms: List[float] = []
        self.outstanding: List[int] = []
        self.dropped = 0

    def completed_per_s(self) -> float:
        return sum(1 for r in self.records if r["in_window"]) / self.seconds

    def latencies_ms(self) -> List[float]:
        return [r["latency_ms"] for r in self.records]

    def backlog_grows(self) -> bool:
        """Outstanding requests in the last third exceed the first third's."""
        third = max(len(self.outstanding) // 3, 1)
        first = np.mean(self.outstanding[:third])
        last = np.mean(self.outstanding[-third:])
        return bool(last > 2 * first + 2)


async def _post(reader, writer, statement: str, client: str):
    body = json.dumps({"statement": statement}).encode()
    writer.write((f"POST /query HTTP/1.1\r\nhost: bench\r\nx-tdp-client: {client}\r\n"
                  f"content-type: application/json\r\ncontent-length: {len(body)}"
                  "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
    return await _response(reader)


async def _response(reader):
    """(status, JSON body) of one HTTP/1.1 response."""
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = (await reader.readline()).strip()
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


async def _get(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n".encode())
        await writer.drain()
        return (await _response(reader))[1]
    finally:
        writer.close()
        await writer.wait_closed()


async def _rung(port: int, rung: Rung, stream, rng, tracer: Tracer) -> None:
    closed = rung.rate is None
    offsets = [] if closed else servesets.arrivals(rung.rate, rung.seconds, rng)
    connections = [await asyncio.open_connection("127.0.0.1", port)
                   for _ in range(os.cpu_count() or 1)]
    queue: asyncio.Queue = asyncio.Queue()
    start = time.perf_counter()
    end = start + rung.seconds
    counts = {"sent": 0, "done": 0}

    async def dispatch():
        for offset in offsets:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            rung.lags_ms.append((time.perf_counter() - due) * 1e3)
            kind, statement = next(stream)
            counts["sent"] += 1
            queue.put_nowait((due, kind, statement))
        for _ in connections:
            queue.put_nowait(None)

    async def sample():
        while not closed and time.perf_counter() < end:
            rung.outstanding.append(counts["sent"] - counts["done"])
            await asyncio.sleep(0.1)

    async def send(index, reader, writer):
        while True:
            if closed:
                if time.perf_counter() >= end:
                    return
                kind, statement = next(stream)
                due = time.perf_counter()
            else:
                item = await queue.get()
                if item is None:
                    return
                due, kind, statement = item
            if time.perf_counter() >= end:
                # The rung is over: what still waits here was never sent.
                rung.dropped += 1
                continue
            request = len(rung.records) + rung.dropped
            with tracer.span("server", request=request):
                status, payload = await _post(reader, writer, statement, f"c{index}")
            done = time.perf_counter()
            counts["done"] += 1
            rung.records.append({"kind": kind, "statement": statement,
                                 "status": status, "payload": payload,
                                 "latency_ms": (done - due) * 1e3,
                                 "in_window": done <= end})

    try:
        await asyncio.gather(dispatch(), sample(),
                             *[send(i, r, w) for i, (r, w) in enumerate(connections)])
    finally:
        for _, writer in connections:
            writer.close()
            await writer.wait_closed()


def _payload(result) -> dict:
    """The server's JSON shape of a result, built in-process."""
    columns = {name: np.asarray(result.column(name)).tolist()
               for name in result.column_names}
    return {"columns": columns, "rows": len(result)}


def _same(got: dict, want: dict) -> bool:
    if got.get("rows") != want["rows"] or list(got.get("columns", {})) != list(want["columns"]):
        return False
    for name, values in want["columns"].items():
        mine = got["columns"][name]
        if len(mine) != len(values):
            return False
        if values and isinstance(values[0], float):
            if not np.allclose(mine, values, rtol=1e-5, atol=1e-6):
                return False
        elif mine != values:
            return False
    return True


class _Host:
    """The served session's process and its line protocol."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_host.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=HERE,
            env={**os.environ, **HOST_MALLOC})
        try:
            self.ready = self._expect("READY")
        except BaseException:
            self.close()
            raise

    def _expect(self, tag: str) -> dict:
        line = self.proc.stdout.readline()
        if not line.startswith(tag + " "):
            raise RuntimeError(f"serve host: expected {tag}, got {line!r}")
        return json.loads(line[len(tag) + 1:])

    def command(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def stats(self) -> dict:
        self.command("stats")
        return self._expect("STATS")

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.command("quit")
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=HOST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()


def _check(rungs: List[Rung], oracle, report: Report) -> int:
    """Check every response against the oracle session; returns non-2xx count."""
    expected: Dict[str, dict] = {}
    refused = 0
    for rung in rungs:
        for record in rung.records:
            report.attempted += 1
            statement = record["statement"]
            if record["status"] != 200:
                refused += 1
                report.mismatch(f"HTTP {record['status']}: {statement}")
                continue
            if statement not in expected:
                expected[statement] = _payload(oracle.compile_query(statement).run())
            if not _same(record["payload"], expected[statement]):
                report.mismatch(f"response differs: {statement}")
    return refused


def _rung_report(report: Report, name: str, pieces: List[Rung]) -> bool:
    """Latency and completions of a rung over all its pieces; True when an
    open-loop rung is within the limits."""
    records = [record for rung in pieces for record in rung.records]
    latencies = [record["latency_ms"] for record in records]
    completed = sum(1 for record in records if record["in_window"])
    failed = sum(1 for record in records if record["status"] != 200)
    grows = name in RATES and any(rung.backlog_grows() for rung in pieces)
    if name in RATES:
        note = (f"offered {RATES[name]:g}/s, {sum(r.dropped for r in pieces)} "
                f"never sent, backlog {'grows' if grows else 'steady'}")
    else:
        note = f"{os.cpu_count()} connections back to back"
    report.latency("latency", latencies, f".{name}")
    report.add(f"completed_qps.{name}", completed / sum(r.seconds for r in pieces),
               "1/s", len(records), f"{len(pieces)} piece(s), {note}")
    return (name in RATES and percentile(latencies, 95) <= LATENCY_LIMIT_MS
            and not grows and failed <= FAILED_CEILING * len(records))


def _run_schedule(port, seconds, stream, rng, tracer) -> Dict[str, List[Rung]]:
    """Run ``SCHEDULE``; returns each rung's pieces in the order they ran."""
    pieces: Dict[str, List[Rung]] = {}
    for name, rate, share in SCHEDULE:
        rung = Rung(rate, seconds * share)
        asyncio.run(_rung(port, rung, stream, rng, tracer))
        pieces.setdefault(name, []).append(rung)
    return pieces


def run(report: Report, seed: int, seconds: float) -> Optional[Tracer]:
    host = _Host(seed)
    try:
        return _run(report, seed, seconds, host)
    finally:
        host.close()


def _run(report: Report, seed: int, seconds: float, host: _Host) -> Optional[Tracer]:
    port = host.ready["port"]
    corpus = servesets.Corpus(seed)
    statements = servesets.Statements(seed, corpus)
    oracle, model = servesets.setup_session(corpus, servesets.UdfProbe(), statements)
    tracer = Tracer(enabled=report.trace)
    stream = statements.requests()
    rng = np.random.default_rng(seed + 60)
    if report.trace:
        before = asyncio.run(_get(port, "/metrics"))
        host.command("trace on")
    pieces = _run_schedule(port, seconds, stream, rng, tracer)
    rungs = [rung for group in pieces.values() for rung in group]
    if report.trace:
        # The untraced reference: a saturation loop as long as the traced
        # pieces together, continuing the request stream.
        host.command("trace off")
        untraced = Rung(None, seconds * SATURATED_SHARE)
        asyncio.run(_rung(port, untraced, stream, rng, Tracer()))
    non2xx = _check(rungs + ([untraced] if report.trace else []), oracle, report)
    passing = [RATES[name] for name, group in pieces.items()
               if _rung_report(report, name, group)]
    report.add("max_rate_qps", max(passing, default=0.0), "1/s", len(RATES),
               f"ladder {list(RATES.values())}, p95 limit {LATENCY_LIMIT_MS:g} ms, "
               f"failed share <= {FAILED_CEILING:g}")
    lags = [lag for rung in rungs for lag in rung.lags_ms]
    report.add("generator.lag_p95_ms", percentile(lags, 95), "ms", len(lags),
               f"{beyond(lags, 95)} samples beyond p95")
    served = sum(len(rung.records) for rung in rungs)
    report.add("failed_share", report.failed / max(report.attempted, 1), "ratio",
               report.attempted)
    saturated, low = pieces["saturated"], pieces["rate_lo"]
    if not report.trace:
        stats = host.stats()
        report.add("setup_s", host.ready["setup_s"], "s", SETUP_REPEATS)
        report.add("peak_rss_mb", stats["peak_rss_mb"], "MB", None, "server process")
        report.add("throughput_qps", median([r.completed_per_s() for r in saturated]),
                   "1/s", sum(len(r.records) for r in saturated),
                   f"completions/s of the saturation loop, median of {PIECES} pieces")
        report.add("latency_p50_ms",
                   median([percentile(r.latencies_ms(), 50) for r in low]), "ms",
                   sum(len(r.records) for r in low),
                   f"p50 at rate_lo, median of {PIECES} pieces")
        report.add("latency_p95_ms",
                   median([percentile(r.latencies_ms(), 95) for r in saturated]), "ms",
                   sum(len(r.records) for r in saturated),
                   f"p95 of the saturation loop, median of {PIECES} pieces")
        return None

    # Traced run: layer metrics from the host, /metrics and direct calls.
    traced_completed = sum(1 for r in saturated for record in r.records
                           if record["in_window"])
    report.add("trace.overhead",
               traced_completed / sum(r.seconds for r in saturated)
               / untraced.completed_per_s(), "ratio", traced_completed)
    stats = host.stats()
    after = asyncio.run(_get(port, "/metrics"))
    # Host counters cover the untraced rung too; spans only the traced ladder.
    total = served + len(untraced.records)
    report.add("server.non2xx", non2xx, "count", total)
    statements = list(dict.fromkeys(r["statement"] for rung in low
                                    for r in rung.records))
    statements = statements[:OVERHEAD_REQUESTS]
    http_ms = asyncio.run(_serial_http(port, statements))
    submit_ms = []
    for statement in statements:
        start = time.perf_counter()
        oracle.submit(statement).result()
        submit_ms.append((time.perf_counter() - start) * 1e3)
    report.add("server.http_overhead_ms", median(http_ms) - median(submit_ms), "ms",
               len(statements))
    oracle.scheduler().shutdown()
    wait = after.get("scheduler.queue_wait_seconds", {})
    report.add("scheduler.queue_wait_p95_ms", wait.get("p95", 0.0) * 1e3, "ms",
               wait.get("count", 0))

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    executed, coalesced = delta("scheduler.executed"), delta("scheduler.coalesced")
    report.add("scheduler.coalesced_share", coalesced / max(executed + coalesced, 1),
               "ratio", executed + coalesced)
    forwards = delta("batcher.forwards")
    report.add("batcher.requests_per_forward",
               delta("batcher.requests") / forwards if forwards else 0.0, "ratio",
               forwards)
    report.add("scheduler.shed", delta("scheduler.shed"), "count", total)
    for cache, metric in (("plan_cache", "plan_cache.hit_ratio"),
                          ("tensor_cache", "tensor_cache.hit_ratio")):
        now = {k: after[f"{cache}.{k}"] for k in ("hits", "misses")}
        then = {k: before[f"{cache}.{k}"] for k in ("hits", "misses")}
        report.add(metric, hit_ratio(now, then), "ratio", total)
    report.add("tensor_cache.bytes", after["tensor_cache.bytes"], "bytes")
    report.add("udf.calls_per_query", stats["udf_calls"] / total, "count", total)
    for layer, spent in stats["self_s"].items():
        report.add(f"self_ms.{layer}", spent / served * 1e3, "ms", served)
    report.add("udf.self_ms", stats["self_s"].get("udf", 0.0) / served * 1e3, "ms",
               served)
    report.add("storage.register_ms", stats["register_ms"], "ms", stats["registers"])
    for name, value in compile_breakdown(oracle, statements[:10]).items():
        report.add(name, value, "ms", min(len(statements), 10))
    images = Tensor(corpus.images[:ENCODE_BATCH])
    with no_grad():
        report.add("model.encode_image_ms",
                   timed_median(lambda: model.encode_image(images), 5) * 1e3
                   / ENCODE_BATCH, "ms", 5, f"per image, batch {ENCODE_BATCH}")
        report.add("model.encode_text_ms",
                   timed_median(lambda: model.encode_text(["red dog"]), 20) * 1e3,
                   "ms", 20)
        report.add("model.similarity_ms",
                   timed_median(lambda: model.similarity("red dog", images), 5) * 1e3,
                   "ms", 5, f"batch {ENCODE_BATCH}")
    return tracer


async def _serial_http(port: int, statements: List[str]) -> List[float]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    out = []
    try:
        for statement in statements:
            start = time.perf_counter()
            await _post(reader, writer, statement, "serial")
            out.append((time.perf_counter() - start) * 1e3)
    finally:
        writer.close()
        await writer.wait_closed()
    return out
