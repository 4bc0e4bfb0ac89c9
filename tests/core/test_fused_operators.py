"""Compiled row stages: plan shape and stage/cascade equivalence.

``compile_exprs`` on lowers every Filter/Project chain to compiled stages;
off, the same chain runs as the interpreter cascade (one FilterExec per
conjunct, one ProjectExec per projection), which is the oracle here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import Compiler
from repro.core.config import QueryConfig
from repro.core.operators import CompiledStageExec
from repro.core.session import Session
from repro.sql import bound as b
from repro.sql import logical
from repro.storage import types as dt

INTERPRETER = {"compile_exprs": False}


def _physical(query) -> str:
    return query.explain().split("== Physical operators ==")[1]


def _outside_stages(physical: str) -> list:
    """Operator lines that are not a compiled stage."""
    return [line.strip() for line in physical.strip().splitlines()
            if not line.strip().startswith("CompiledStage[")]


@pytest.fixture
def session():
    rng = np.random.default_rng(0)
    session = Session()
    session.sql.register_dict({
        "k": rng.integers(0, 20, size=500),
        "a": rng.normal(size=500).astype(np.float32),
        "b": rng.normal(size=500).astype(np.float32),
        "s": rng.choice(["red", "green", "blue"], size=500),
    }, "t")
    return session


# Queries exercising the stage paths, including the shapes used by
# bench_ablation_operators (group-by over a filtered scan, top-k).
EQUIVALENCE_QUERIES = [
    "SELECT a, b FROM t WHERE a > 0",
    "SELECT a + b AS s2, a * 2 AS d FROM t WHERE a > 0 AND b < 1 AND a < b",
    "SELECT k FROM t WHERE a > 0 AND k < 10 AND s = 'red'",
    "SELECT k, COUNT(*), SUM(a) FROM t WHERE a > 0 AND b < 0.5 GROUP BY k ORDER BY k",
    "SELECT a FROM t WHERE s LIKE 'r%' ORDER BY a DESC LIMIT 5",
    "SELECT ABS(a) AS m FROM t WHERE a BETWEEN -1 AND 1 AND k IN (1, 2, 3)",
    "SELECT a FROM t WHERE a > 100",                     # empty result
    "SELECT k, a FROM t WHERE k = 3 ORDER BY a LIMIT 7",
]


class TestFusedEquivalence:
    @pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
    def test_fused_matches_unfused(self, session, sql):
        fused = session.sql.query(sql).run(toPandas=True)
        unfused = session.sql.query(sql, extra_config=INTERPRETER).run(toPandas=True)
        assert fused.equals(unfused, atol=1e-5)

    @given(lo=st.floats(-2, 2), hi=st.floats(-2, 2))
    @settings(max_examples=20, deadline=None)
    def test_fused_range_filters_match(self, lo, hi):
        rng = np.random.default_rng(5)
        session = Session()
        session.sql.register_dict(
            {"x": rng.normal(size=200).astype(np.float32)}, "t")
        sql = f"SELECT x * 2 AS y FROM t WHERE x > {lo} AND x < {hi}"
        fused = session.sql.query(sql).run(toPandas=True)
        unfused = session.sql.query(sql, extra_config=INTERPRETER).run(toPandas=True)
        assert fused.equals(unfused, atol=1e-5)


class TestFusedPlanShape:
    def test_filter_project_fuses(self, session):
        physical = _physical(session.sql.query(
            "SELECT a + b AS c FROM t WHERE a > 0 AND b < 1"))
        assert physical.count("CompiledStage[") == 1
        assert _outside_stages(physical) == ["Scan(t)"]

    def test_multi_conjunct_filter_fuses_without_project(self, session):
        query = session.sql.query(
            "SELECT k, COUNT(*) FROM t WHERE a > 0 AND b < 1 GROUP BY k")
        # One stage masks both conjuncts at once and carries the fused
        # aggregate.
        [stage] = [node.op for node in _nodes(query.root)
                   if getattr(node.op, "aggregate", None) is not None]
        assert len(stage.conjuncts) == 2
        assert _outside_stages(_physical(query)) == ["Scan(t)"]

    def test_single_conjunct_never_uses_fused_filter_exec(self, session):
        # A one-conjunct chain is a stage like any other, never a bare
        # interpreter FilterExec.
        physical = _physical(session.sql.query(
            "SELECT k, COUNT(*) FROM t WHERE a > 0 GROUP BY k"))
        assert "CompiledStage[" in physical
        assert _outside_stages(physical) == ["Scan(t)"]

    def test_fusion_disabled_by_flag(self, session):
        physical = _physical(session.sql.query(
            "SELECT a + b AS c FROM t WHERE a > 0 AND b < 1",
            extra_config=INTERPRETER))
        assert "CompiledStage" not in physical
        assert physical.count("Filter") == 2        # conjunct cascade preserved

    def test_trainable_compilation_never_fuses(self, session):
        physical = _physical(session.sql.query(
            "SELECT SUM(a) FROM t WHERE a > 0 AND b < 1",
            extra_config={"trainable": True}))
        assert "CompiledStage" not in physical


class TestUdfFilterCascade:
    def test_udf_conjunct_sees_prefiltered_rows(self, session):
        seen_rows = []

        @session.udf("bool", name="probe")
        def probe(x):
            seen_rows.append(x.shape[0])
            return x > 0

        out = session.sql.query(
            "SELECT a FROM t WHERE k < 5 AND probe(a)").run(toPandas=True)
        # The cheap k<5 conjunct must prune rows before the UDF runs: the
        # (micro-batched) probe invocations together see < 500 rows, the
        # same rows the interpreter cascade feeds it.
        assert 0 < sum(seen_rows) < 500
        compiled_rows = list(seen_rows)
        seen_rows.clear()
        cascade = session.sql.query(
            "SELECT a FROM t WHERE k < 5 AND probe(a)",
            extra_config=dict(INTERPRETER, tensor_cache=False)).run(toPandas=True)
        assert out.equals(cascade, atol=1e-6)
        assert seen_rows == compiled_rows


class TestUdfStageBoundaries:
    def test_later_udf_conjunct_starts_a_new_stage(self, session):
        @session.udf("bool", name="probe")
        def probe(x):
            return x > 0

        query = session.sql.query("SELECT a FROM t WHERE k < 5 AND probe(a)")
        stages = [node.op for node in _nodes(query.root)
                  if isinstance(node.op, CompiledStageExec)]
        assert [len(s.conjuncts) for s in stages] == [1, 1]
        assert stages[0].conjuncts[0].contains_udf()      # upper stage
        assert not stages[1].conjuncts[0].contains_udf()  # k < 5, below it

    def test_leading_udf_conjunct_shares_its_stage(self):
        # The optimizer orders cheap conjuncts first, so build the plan by
        # hand: a UDF conjunct that is first sees all input rows in both
        # forms, and the conjunct after it joins its stage.
        session = Session()
        session.sql.register_dict(
            {"x": np.arange(-4, 6, dtype=np.float32)}, "t")
        seen = []

        @session.udf("bool", name="probe")
        def probe(x):
            seen.append(x.shape[0])
            return x > 0

        info = session.functions.lookup("probe")
        column = b.BColumn(0, "x", dt.FLOAT)
        predicate = b.BBinary(
            "AND", b.BCall(info, [column], dt.BOOL),
            b.BBinary("<", column, b.BLiteral(3.0, dt.FLOAT), dt.BOOL), dt.BOOL)
        plan = logical.Filter(logical.Scan("t", [("x", dt.FLOAT)]), predicate)
        queries = [Compiler(session.catalog, config, "cpu").compile(plan, "<manual>")
                   for config in (QueryConfig(), QueryConfig(INTERPRETER))]
        stage = queries[0].root.op
        assert len(stage.conjuncts) == 2 and stage.conjuncts[0].contains_udf()
        for query in queries:
            seen.clear()
            assert query.run(toPandas=True)["x"].tolist() == [1.0, 2.0]
            assert sum(seen) == 10


def _nodes(node):
    yield node
    for child in node._children_nodes:
        yield from _nodes(child)


class TestFig2FilterShape:
    """The Fig-2 similarity filter (``WHERE udf(prompt, images) > t``) runs
    as one stage: the UDF sees exactly the cascade's rows, and the image
    column is never gathered through the selection."""

    STATEMENTS = [
        'SELECT attachment_id FROM Attachments '
        'WHERE image_text_similarity("receipt", images) > 0.5',
        'SELECT COUNT(*) AS n FROM Attachments '
        'WHERE image_text_similarity("receipt", images) > 0.5',
    ]

    @staticmethod
    def _session():
        rng = np.random.default_rng(3)
        session = Session()
        session.sql.register_dict({
            "attachment_id": np.arange(40, dtype=np.int64),
            "images": rng.random((40, 3, 4, 4)).astype(np.float32),
        }, "Attachments")
        calls = []

        @session.udf("float", name="image_text_similarity")
        def image_text_similarity(query, images):
            calls.append(images.detach().data.copy())
            return images.mean(dim=(1, 2, 3))

        return session, calls

    def _run(self, sql, extra, monkeypatch):
        from repro.storage.column import Column
        session, calls = self._session()
        taken = []
        original = Column.take

        def counting_take(column, indices):
            taken.append(column.name)
            return original(column, indices)

        monkeypatch.setattr(Column, "take", counting_take)
        results = [session.sql.query(sql, extra_config=extra).run(toPandas=True)
                   for _ in range(2)]             # cold, then cache-served
        monkeypatch.setattr(Column, "take", original)
        stats = session.tensor_cache.stats
        return results, calls, taken, (stats["hits"], stats["misses"])

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_stage_matches_cascade_without_gathering_images(self, sql,
                                                             monkeypatch):
        results, calls, taken, cache = self._run(sql, None, monkeypatch)
        ref_results, ref_calls, _, ref_cache = self._run(sql, INTERPRETER,
                                                         monkeypatch)
        assert "images" not in taken
        assert len(calls) == len(ref_calls) and calls
        for got, want in zip(calls, ref_calls):
            assert np.array_equal(got, want)
        assert cache == ref_cache
        for got, want in zip(results, ref_results):
            assert got.equals(want)

    def test_cached_udf_stage_over_a_filter_stage_copies_no_images(
            self, monkeypatch):
        """A cheap conjunct first (the optimizer's order) puts the UDF
        conjunct in a second stage over the first stage's selection. That
        selection hands deferred gathers up, so once the UDF is cached the
        image rows are never copied; the UDF still sees the cascade's
        rows."""
        sql = ('SELECT COUNT(*) AS n FROM Attachments WHERE attachment_id < 12 '
               'AND image_text_similarity("receipt", images) > 0.5')
        session, _ = self._session()
        filters = [node.op for node in _nodes(session.sql.query(sql).root)
                   if isinstance(node.op, CompiledStageExec)
                   and node.op.conjuncts]
        assert len(filters) == 2 and filters[0].conjuncts[0].contains_udf()
        results, calls, taken, cache = self._run(sql, None, monkeypatch)
        ref_results, ref_calls, _, ref_cache = self._run(sql, INTERPRETER,
                                                         monkeypatch)
        # Only the cold run's UDF invocation reads (and so copies) the
        # selected image rows; the cached run copies none.
        assert taken.count("images") == 1
        assert len(calls) == len(ref_calls) and calls
        for got, want in zip(calls, ref_calls):
            assert np.array_equal(got, want)
        assert cache == ref_cache
        for got, want in zip(results, ref_results):
            assert got.equals(want)

    def test_plan_is_one_stage_over_the_scan(self):
        session, _ = self._session()
        for sql in self.STATEMENTS:
            physical = _physical(session.sql.query(sql))
            assert _outside_stages(physical) == ["Scan(Attachments)"], physical


class TestFilterChainOrder:
    def test_inner_guard_filter_runs_before_outer_udf(self):
        """A chained Filter below a UDF-bearing Filter must keep guarding it.

        Lowering flattens Filter chains; the conjuncts must keep *execution*
        order (innermost first) so the UDF never sees rows its guard
        excluded.
        """
        session = Session()
        session.sql.register_dict(
            {"x": np.array([-3.0, -1.0, 0.5, 2.0, 4.0], dtype=np.float32)}, "t")
        seen = []

        @session.udf("bool", name="picky")
        def picky(x):
            assert (x.detach().data > 0).all(), "guard violated"
            seen.append(x.shape[0])
            return x > 1.0

        info = session.functions.lookup("picky")
        schema = [("x", dt.FLOAT)]
        guard = logical.Filter(
            logical.Scan("t", schema),
            b.BBinary(">", b.BColumn(0, "x", dt.FLOAT),
                      b.BLiteral(0.0, dt.FLOAT), dt.BOOL))
        chained = logical.Filter(
            guard, b.BCall(info, [b.BColumn(0, "x", dt.FLOAT)], dt.BOOL))
        for config in (QueryConfig(), QueryConfig(INTERPRETER)):
            seen.clear()
            query = Compiler(session.catalog, config, "cpu").compile(
                chained, "<manual>")
            out = query.run(toPandas=True)
            assert out["x"].tolist() == [2.0, 4.0]
            assert sum(seen) == 3                # only the guarded rows


class TestProjectProjectMerge:
    def _nested_project_plan(self):
        schema_in = [("x", dt.FLOAT)]
        scan = logical.Scan("t", schema_in)
        inner = logical.Project(
            scan,
            [b.BBinary("+", b.BColumn(0, "x", dt.FLOAT),
                       b.BLiteral(1.0, dt.FLOAT), dt.FLOAT)],
            [("y", dt.FLOAT)],
        )
        outer = logical.Project(
            inner,
            [b.BBinary("*", b.BColumn(0, "y", dt.FLOAT),
                       b.BLiteral(2.0, dt.FLOAT), dt.FLOAT)],
            [("z", dt.FLOAT)],
        )
        return outer

    def test_adjacent_projects_collapse_to_one_operator(self):
        session = Session()
        session.sql.register_dict(
            {"x": np.array([1.0, 2.0], dtype=np.float32)}, "t")
        compiler = Compiler(session.catalog, QueryConfig(), "cpu")
        query = compiler.compile(self._nested_project_plan(), "<manual>")
        assert query.root.pretty().count("\n") == 1     # one stage over the scan
        assert len(query.root.op.exprs) == 1            # z = (x + 1) * 2 inlined
        out = query.run(toPandas=True)
        np.testing.assert_allclose(out["z"], [4.0, 6.0])

    def test_merge_skipped_when_disabled(self):
        session = Session()
        session.sql.register_dict(
            {"x": np.array([3.0], dtype=np.float32)}, "t")
        compiler = Compiler(session.catalog, QueryConfig(INTERPRETER), "cpu")
        query = compiler.compile(self._nested_project_plan(), "<manual>")
        assert query.root.pretty().count("Project") == 2
        np.testing.assert_allclose(query.run(toPandas=True)["z"], [8.0])


class TestFusedOperatorUnits:
    def test_fused_filter_single_gather(self, session):
        from repro.storage.table import Table
        takes = []
        original = Table.take

        def counting_take(self, indices):
            takes.append(len(self.columns))
            return original(self, indices)

        Table.take = counting_take
        try:
            session.sql.query(
                "SELECT k, a, b, s FROM t WHERE a > 0 AND b > 0 AND k > 2").run()
        finally:
            Table.take = original
        # At most one gather for three conjuncts (the interpreter cascade
        # does three).
        assert len(takes) == 0 or len(takes) == 1
