"""Compiled row-stage benchmark.

Runs a multi-stage relational chain — nested filter/project subqueries
feeding a grouped aggregate — and compares the two execution paths of the
same statement:

* the **interpreter cascade** (``compile_exprs=False``): each Filter/Project
  materialises its output table, so every step of the chain pays a gather
  and a set of column constructions over its surviving rows, and
* the **compiled stage** (``compile_exprs=True``, the default): the stage
  lowering inlines every step onto the base scan's columns, so selection
  stays a mask/index vector end to end — one conjunction mask over the
  base, one gather of the rows that survive *all* steps, and the fused
  aggregate's inputs evaluated directly on the selected view.

The workload is shaped so the stage win is structural, not accidental:
early steps are mildly selective (their per-operator gathers stay near
full-size) while the final step is highly selective, so the stage's single
gather is small. That is exactly the regime the cascade cannot express —
it has already materialised three near-full-size intermediate tables by
the time the selective tail runs.

Gating:

* **Bit-identity** (unconditional, any machine): both paths — including
  the compiled stage under shards 3 and 4, which lowers the grouped
  aggregate to per-shard partials with a merge at the stitch barrier —
  return byte-identical group keys, counts and sums.
* **Latency** (gated at full scale): the compiled stage must beat the
  interpreter cascade by >= 2x. Both legs are serial numpy, so the ratio
  is core-count independent; below full scale (``REPRO_BENCH_SCALE < 1``)
  fixed per-query overheads dominate and the bench reports the ratio but
  gates only a >= 1.2x floor.
* **Plan shape**: EXPLAIN must show the chain as a single
  ``CompiledStage[...]`` operator ending in the aggregate.
"""

import numpy as np

from repro.bench.harness import (
    bench_scale,
    print_table,
    record_metric,
    scaled,
    time_call,
)
from repro.core.session import Session

N_ROWS = scaled(400_000)

# Filter -> project chain (nested subqueries) -> grouped aggregate. The
# outermost WHERE is the selective tail; the inner stages keep most rows.
QUERY = ("SELECT s, COUNT(*) AS c, SUM(v) AS sm FROM "
         "(SELECT s, v, w, y FROM "
         " (SELECT s, v, w, y FROM "
         "  (SELECT s, v, x - b AS w, y FROM "
         "   (SELECT s, x, b, x + b AS v, y FROM t WHERE x > -48) q1 "
         "   WHERE b < 11) q2 "
         "  WHERE v % 97 != 0) q3 "
         " WHERE y < 2.5) q4 "
         "WHERE w > 35 GROUP BY s")

INTERP = {"compile_exprs": False, "tensor_cache": False}
STAGE = {"tensor_cache": False}
STAGE_SHARDED = [
    {"tensor_cache": False, "shards": shards, "parallel_min_rows": 2}
    for shards in (3, 4)
]


def _session() -> Session:
    rng = np.random.default_rng(7)
    vocab = np.asarray([f"g{i:02d}" for i in range(24)], dtype=object)
    session = Session()
    session.sql.register_dict({
        "x": rng.integers(-50, 50, size=N_ROWS),
        "b": rng.integers(0, 12, size=N_ROWS),
        "y": rng.normal(size=N_ROWS).astype(np.float32),
        "s": vocab[rng.integers(0, len(vocab), size=N_ROWS)],
    }, "t")
    return session


def _snapshot(result):
    return {name: np.asarray(result.column(name))
            for name in result.column_names}


def _assert_bitwise(a, b, context):
    assert list(a) == list(b), context
    for name in a:
        assert a[name].dtype == b[name].dtype, (context, name)
        assert np.array_equal(a[name], b[name],
                              equal_nan=a[name].dtype.kind == "f"), \
            (context, name)


class TestPipelineCompile:
    def test_fused_speedup_and_bit_identity(self, benchmark):
        session = _session()
        interp_q = session.sql.query(QUERY, extra_config=INTERP)
        stage_q = session.sql.query(QUERY, extra_config=STAGE)

        # Bit-identity across the shard matrix first (also warms every code
        # path before timing).
        base = _snapshot(interp_q.run())
        assert base["c"].sum() > 0, "selective tail filtered everything out"
        _assert_bitwise(base, _snapshot(stage_q.run()), "stage")
        for extra in STAGE_SHARDED:
            sharded = _snapshot(
                session.sql.query(QUERY, extra_config=extra).run())
            _assert_bitwise(base, sharded, f"stage shards={extra['shards']}")

        t_interp = time_call(interp_q.run, repeat=5)
        t_stage = time_call(stage_q.run, repeat=5)
        speedup = t_interp / max(t_stage, 1e-9)
        full_scale = bench_scale() >= 1
        gate = 2.0 if full_scale else 1.2
        print_table(
            f"compiled stage: 5-step chain -> GROUP BY ({N_ROWS} rows)",
            ["path", "seconds", "vs interpreter"],
            [["interpreter cascade", t_interp, "1.00x"],
             ["compiled stage", t_stage, f"{speedup:.2f}x"]],
        )
        record_metric(
            "pipeline_compile",
            rows=N_ROWS, speedup=round(speedup, 2), gate=gate,
            interpreter_s=round(t_interp, 5), stage_s=round(t_stage, 5),
        )
        assert speedup >= gate, (
            f"compiled stage gained {speedup:.2f}x over the interpreter "
            f"cascade (gate {gate}x at scale {bench_scale():g})")
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_plan_shows_single_fused_operator(self, benchmark):
        """The chain is one CompiledStage operator ending in the aggregate
        — what EXPLAIN ANALYZE attributes the stage's time to."""
        session = _session()
        text = session.sql.query(QUERY, extra_config=STAGE).explain()
        physical = text.split("== Physical operators ==")[1]
        fused = [line.strip() for line in physical.splitlines()
                 if "CompiledStage[" in line and "Filter(" in line]
        assert len(fused) == 1, text
        assert fused[0].count("Filter(") == 5, fused[0]
        assert fused[0].endswith("SortAggregate(groups=['s'])]"), fused[0]
        # The chain collapsed: apart from the output projection's own
        # stage, no filter/project physical operators remain outside it.
        others = [line.strip() for line in physical.strip().splitlines()
                  if "CompiledStage[" not in line]
        assert others == ["Scan(t)"], text
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
