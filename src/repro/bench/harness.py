"""Benchmark harness: timers, result tables, paper-vs-measured reporting."""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from typing import Dict, List, Sequence


def bench_scale() -> float:
    """Global effort multiplier for benchmark workloads.

    ``REPRO_BENCH_SCALE=1`` runs the documented default sizes;
    values > 1 scale dataset sizes / iteration counts toward the paper's
    (set e.g. 4 on a beefier machine).
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(value: int, minimum: int = 1) -> int:
    return max(int(round(value * bench_scale())), minimum)


_METRIC_LOCK = threading.Lock()


def record_metric(name: str, **values) -> None:
    """Record a benchmark's headline numbers for the CI perf trajectory.

    When ``REPRO_BENCH_JSON`` names a file, merge ``{name: values}`` into it
    (read-modify-write under a lock; concurrent benches in one process stay
    consistent). ``benchmarks/run_all.py`` sets the variable and aggregates
    every bench's metrics into ``BENCH_RESULTS.json``; without it this is a
    no-op, so ad-hoc bench runs are unaffected.
    """
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    with _METRIC_LOCK:
        data = {}
        if os.path.exists(path):
            try:
                with open(path) as handle:
                    data = json.load(handle)
            except (ValueError, OSError):
                data = {}
        data.setdefault(name, {}).update(values)
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)


def percentiles(samples: Sequence[float],
                points: Sequence[int] = (50, 95, 99)) -> Dict[str, float]:
    """Nearest-rank percentiles of a latency sample list.

    Returns ``{"p50": ..., "p95": ..., "p99": ...}`` (same unit as the
    samples). Empty input yields an empty dict, so callers can splat the
    result into :func:`record_metric` unconditionally.
    """
    if not samples:
        return {}
    ordered = sorted(samples)
    out: Dict[str, float] = {}
    for p in points:
        rank = max(int(round(p / 100.0 * len(ordered) + 0.5)) - 1, 0)
        out[f"p{p}"] = ordered[min(rank, len(ordered) - 1)]
    return out


def record_latency_metric(name: str, samples_seconds: Sequence[float],
                          **extra) -> None:
    """Record a bench's per-operation latency distribution (milliseconds).

    Emits count, mean and p50/p95/p99 under ``name`` in BENCH_RESULTS.json —
    the serving-latency shape ROADMAP item 3's SLO work tracks per commit.
    """
    if not samples_seconds:
        record_metric(name, **extra)
        return
    ms = [s * 1e3 for s in samples_seconds]
    pcts = {key: round(value, 3) for key, value in percentiles(ms).items()}
    record_metric(name, count=len(ms), mean_ms=round(sum(ms) / len(ms), 3),
                  **pcts, **extra)


class Timer:
    """Wall-clock stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.start


def time_call(fn, *args, repeat: int = 1, **kwargs) -> float:
    """Best-of-N wall time of fn(*args, **kwargs) in seconds."""
    best = float("inf")
    for _ in range(max(repeat, 1)):
        start = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def median_call(fn, *args, repeat: int = 7, **kwargs) -> float:
    """Median wall time of ``repeat`` single calls, in seconds: steadier
    than best-of-N when two paths differ by less than the timer's noise."""
    return statistics.median(time_call(fn, *args, **kwargs)
                             for _ in range(max(repeat, 1)))


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]],
                floatfmt: str = "{:.4g}") -> str:
    """Render an aligned ASCII table (also returned as a string)."""
    rendered_rows = []
    for row in rows:
        rendered_rows.append([
            floatfmt.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ])
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"\n== {title} =="]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    text = "\n".join(lines)
    print(text)
    return text


def report_paper_vs_measured(experiment: str, claims: List[Dict[str, object]]) -> str:
    """Print the per-experiment claim table used by EXPERIMENTS.md.

    Each claim dict: {"metric": ..., "paper": ..., "measured": ..., "holds": bool}
    """
    rows = [
        [c["metric"], c["paper"], c["measured"], "yes" if c["holds"] else "NO"]
        for c in claims
    ]
    return print_table(f"{experiment}: paper vs measured",
                       ["metric", "paper", "measured", "shape holds"], rows)
