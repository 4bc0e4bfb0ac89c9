"""``analytics``: one closed-loop in-process caller runs the TPC-H-shaped
templates round-robin with seeded constants, at the default (serial) config.

The traced run also times each template with ``shards=0`` (one shard per
core) against ``shards=1``: that is where the partition and exchange layer
runs.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.session import Session

import tables
from common import (SETUP_REPEATS, Report, median, peak_rss_mb, repeated_setup,
                    timed_median)
from layers import compile_breakdown, hit_ratio
from tracer import Tracer

# Per-template exec and floor timings in the traced run: median of this many.
LAYER_REPEATS = 5


def _setup(data, statements, register_seconds):
    """Register both tables, then compile and run one variant per template."""
    session = Session()
    start = time.perf_counter()
    data.register(session, register_seconds)
    for variants in statements.values():
        session.compile_query(variants[0][0]).run()
    return session, time.perf_counter() - start


def _loop(session, statements, rng, seconds, tracer, log) -> float:
    """Closed loop for ``seconds``; appends (template, variant, ms, result)
    and returns the loop's wall seconds."""
    names = list(statements)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        name = names[i % len(names)]
        variant = int(rng.integers(0, tables.VARIANTS))
        statement = statements[name][variant][0]
        t0 = time.perf_counter()
        with tracer.span("compile", request=i):
            query = session.compile_query(statement)
        with tracer.span("operators", request=i):
            result = query.run()
        log.append((name, variant, (time.perf_counter() - t0) * 1e3, result))
        i += 1
    return time.perf_counter() - start


def _check(data, statements, log, report):
    expected = {}
    for name, variant, _, result in log:
        key = (name, variant)
        if key not in expected:
            expected[key] = tables.floor(data, name, statements[name][variant][1])
        report.attempted += 1
        if not tables.matches(name, result, expected[key]):
            report.mismatch(f"{name}: {statements[name][variant][0]}")


def run(report: Report, seed: int, seconds: float) -> Optional[Tracer]:
    data = tables.Data(seed)
    statements = tables.make_statements(seed)
    register_seconds = []
    session, setup_s = repeated_setup(
        lambda: _setup(data, statements, register_seconds))
    rng = np.random.default_rng(seed + 2)
    log = []
    if not report.trace:
        wall = _loop(session, statements, rng, seconds, Tracer(), log)
        _check(data, statements, log, report)
        report.add("setup_s", setup_s, "s", SETUP_REPEATS)
        report.add("peak_rss_mb", peak_rss_mb(), "MB")
        report.add("throughput_qps", len(log) / wall, "1/s", len(log),
                   f"completed queries/s; {tables.FACT_ROWS} fact rows, "
                   f"{tables.DIM_ROWS} dim rows")
        report.latency("latency", [entry[2] for entry in log])
        return None

    # Traced run: the same loop untraced then traced, then per-layer calls.
    # Every variant is compiled first, so neither half pays first-use compiles.
    for variants in statements.values():
        for statement, _ in variants:
            session.compile_query(statement)
    wall = _loop(session, statements, rng, seconds / 2, Tracer(), log)
    tracer = Tracer(enabled=True)
    plan_before = session.plan_cache.stats
    traced_log = []
    traced_wall = _loop(session, statements, rng, seconds / 2, tracer, traced_log)
    queries = len(traced_log)
    _check(data, statements, log + traced_log, report)
    report.add("trace.overhead", (queries / traced_wall) / (len(log) / wall),
               "ratio", queries)
    report.add("plan_cache.hit_ratio",
               hit_ratio(session.plan_cache.stats, plan_before), "ratio", queries)
    for layer, total in tracer.self_seconds().items():
        report.add(f"self_ms.{layer}", total / queries * 1e3, "ms", queries)
    report.add("storage.register_ms", median(register_seconds) * 1e3, "ms",
               len(register_seconds))
    first = [variants[0][0] for variants in statements.values()]
    for name, value in compile_breakdown(session, first).items():
        report.add(name, value, "ms", len(first))

    sharded = Session()
    data.register(sharded)
    before = sharded.metrics.snapshot()
    runs = 0
    for name, variants in statements.items():
        statement, consts = variants[0]
        exec_s = timed_median(session.compile_query(statement).run, LAYER_REPEATS)
        floor_s = timed_median(lambda: tables.floor(data, name, consts),
                               LAYER_REPEATS)
        query = sharded.compile_query(statement, extra_config={"shards": 0})
        report.attempted += 1
        if not tables.matches(name, query.run(), tables.floor(data, name, consts)):
            report.mismatch(f"{name} with shards=0: {statement}")
        sharded_s = timed_median(query.run, LAYER_REPEATS)
        runs += LAYER_REPEATS + 1
        report.add(f"exec_ms.{name}", exec_s * 1e3, "ms", LAYER_REPEATS)
        report.add(f"floor_ratio.{name}", exec_s / floor_s, "ratio", LAYER_REPEATS)
        report.add(f"sharded_ratio.{name}", sharded_s / exec_s, "ratio",
                   LAYER_REPEATS)
    after = sharded.metrics.snapshot()
    for counter in ("exchange.rows_moved", "exchange.partitions"):
        moved = after.get(counter, 0) - before.get(counter, 0)
        report.add(counter, moved / runs, "count", runs, "per shards=0 query")
    return tracer
