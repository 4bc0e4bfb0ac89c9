"""In-memory span recorder for the traced run.

Spans are recorded around calls into the engine's public functions from the
benchmark's own code; nothing inside the engine is instrumented. Each span
has a name (the layer), start, end, parent span and request id. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[tuple] = []       # (id, name, start, end, parent, request)
        self._ids = itertools.count(1)
        # The open span as (id, request). A context variable, not a
        # thread-local: each asyncio task gets its own copy, so concurrent
        # requests on one event loop do not nest under each other.
        self._current = contextvars.ContextVar("span", default=None)

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            yield
            return
        parent = self._current.get()
        if request is None and parent is not None:
            request = parent[1]
        span_id = next(self._ids)
        token = self._current.set((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None, request))

    def self_seconds(self) -> Dict[str, float]:
        """Per layer: total span time minus the time its child spans cover.

        Children of one span run sequentially in the span's thread or task,
        so the covered part is the sum of their durations.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            out[name] += (end - start) - child_time.get(span_id, 0.0)
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                        "parent": s[4], "request": s[5]} for s in self.spans],
                      handle)
