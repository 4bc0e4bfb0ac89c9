"""Direct, timed calls into the compile layer's public functions."""

from __future__ import annotations

import time
from typing import Dict, Mapping, Sequence

from repro.core.compiler import Compiler
from repro.core.config import QueryConfig
from repro.sql.binder import Binder
from repro.sql.optimizer import optimize
from repro.sql.parser import parse

from common import median, timed_median

# Timed compiles of each statement; each stage reports the median.
COMPILE_REPEATS = 3


def compile_breakdown(session, statements: Sequence[str]) -> Dict[str, float]:
    """Median ms of parse, bind, optimize and lower over ``statements``,
    plus ``hit_ms``: ``Session.compile_query`` answered by the plan cache.
    """
    config = QueryConfig()
    stages = {"parse": [], "bind": [], "optimize": [], "lower": []}
    for statement in statements:
        for _ in range(COMPILE_REPEATS):
            t0 = time.perf_counter()
            ast = parse(statement)
            t1 = time.perf_counter()
            plan = Binder(session.catalog, session.functions).bind(ast)
            t2 = time.perf_counter()
            opt_config = config.as_optimizer_config()
            opt_config["indexes"] = session.indexes
            plan = optimize(plan, opt_config)
            t3 = time.perf_counter()
            Compiler(session.catalog, config, "cpu", indexes=session.indexes,
                     tensor_cache=session.tensor_cache,
                     shard_pool=session.shard_pool,
                     session=session).compile(plan, statement)
            t4 = time.perf_counter()
            for name, seconds in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                stages[name].append(seconds)
    out = {f"compile.{name}_ms": median(values) * 1e3
           for name, values in stages.items()}
    statement = statements[0]
    session.compile_query(statement)
    out["compile.hit_ms"] = timed_median(
        lambda: session.compile_query(statement), 50) * 1e3
    return out


def hit_ratio(stats: Mapping[str, float], before: Mapping[str, float]) -> float:
    """Hits over lookups between two ``stats`` snapshots."""
    hits = stats["hits"] - before["hits"]
    lookups = hits + stats["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0
