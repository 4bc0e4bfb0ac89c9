"""Shared helpers: statistics, the result record, fingerprint and memory."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

# Run set-up this many times per run and report the median.
SETUP_REPEATS = 5


def repeated_setup(setup: Callable[[], tuple]) -> tuple:
    """Run ``setup`` (returning (state, seconds)) ``SETUP_REPEATS`` times.

    Returns the last state and the median seconds. The previous state is
    dropped and collected before each set-up, so only one is alive at a time
    and peak memory covers a single set-up.
    """
    seconds = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        state, elapsed = setup()
        seconds.append(elapsed)
    return state, median(seconds)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    ordered = sorted(samples)
    rank = max(int(np.ceil(q / 100.0 * len(ordered))), 1)
    return float(ordered[rank - 1])


def beyond(samples: Sequence[float], q: float) -> int:
    """Number of samples strictly above the nearest-rank percentile."""
    cut = percentile(samples, q)
    return sum(1 for value in samples if value > cut)


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def timed_median(fn: Callable[[], object], repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version(),
            "platform": platform.platform()}


class Report:
    """Metrics of one run plus the sample counts behind each percentile."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: Dict[str, tuple] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def add(self, name: str, value: float, unit: str,
            samples: Optional[int] = None, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, samples, note)

    def latency(self, prefix: str, samples_ms: Sequence[float],
                suffix: str = "") -> None:
        """``<prefix>_p50_ms`` and ``_p95_ms`` with their sample counts."""
        n = len(samples_ms)
        self.add(f"{prefix}_p50_ms{suffix}", percentile(samples_ms, 50), "ms", n)
        self.add(f"{prefix}_p95_ms{suffix}", percentile(samples_ms, 95), "ms", n,
                 f"{beyond(samples_ms, 95)} samples beyond p95")

    def mismatch(self, what: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(what)

    def print_human(self, out=sys.stdout) -> None:
        print(f"# workload={self.workload} seed={self.seed} "
              f"trace={int(self.trace)} {fingerprint()}", file=out)
        for note in self.notes:
            print(f"# {note}", file=out)
        for name, (value, unit, samples, note) in self.metrics.items():
            line = f"{name:<40} {value:>14.4f} {unit}"
            if samples is not None:
                line += f"  (n={samples})"
            if note:
                line += f"  [{note}]"
            print(line, file=out)
        for what in self.mismatches:
            print(f"# MISMATCH {what}", file=out)
