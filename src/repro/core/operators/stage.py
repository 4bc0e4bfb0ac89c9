"""The compiled row stage: the one physical form of a Filter/Project chain.

Following TQP's compile-into-one-tensor-program design, every maximal
Filter/Project chain of an exact (non-trainable) query with
``compile_exprs`` on lowers to one or more :class:`CompiledStageExec`
operators (the grouping rules live in :mod:`repro.core.kernels.pipeline`).
A stage does three things over its child relation:

1. evaluates ONE boolean mask — every conjunct of the stage, compiled into a
   single :class:`FilterKernel` over the child's rows;
2. gathers lazily — the selection stays an index vector, and each column
   the output reads is gathered through it at most once
   (:class:`_GatherEvaluator`); columns nothing reads are never copied;
3. produces its output: a compiled projection, a fused sort aggregate, or a
   plain row selection whose columns stay deferred gathers until the
   operator above reads them.

Each stage keeps the plain ``FilterExec``/``ProjectExec`` cascade it
replaces. A :class:`KernelFallback` at run time re-runs that cascade, which
is the stage's bit-identity oracle by construction.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.expr_eval import ExpressionEvaluator, normalize_strings
from repro.core.kernels.compiler import KernelFallback
from repro.core.operators.base import Operator, Relation
from repro.core.telemetry import annotate
from repro.errors import ExecutionError
from repro.sql import bound as b
from repro.storage.table import Table


def substitute_columns(expr: b.BoundExpr, inner_exprs: List[b.BoundExpr]) -> b.BoundExpr:
    """Inline an inner projection: replace ``BColumn(i)`` with ``inner_exprs[i]``.

    This is classic projection merging — the substituted expression evaluates
    directly against the inner projection's *input*, removing one
    materialisation.
    """
    if isinstance(expr, b.BColumn):
        return inner_exprs[expr.index]
    if isinstance(expr, b.BLiteral):
        return expr
    if isinstance(expr, b.BBinary):
        return b.BBinary(expr.op, substitute_columns(expr.left, inner_exprs),
                         substitute_columns(expr.right, inner_exprs), expr.data_type)
    if isinstance(expr, b.BUnary):
        return b.BUnary(expr.op, substitute_columns(expr.operand, inner_exprs),
                        expr.data_type)
    if isinstance(expr, b.BCall):
        return b.BCall(expr.udf, [substitute_columns(a, inner_exprs) for a in expr.args],
                       expr.data_type)
    if isinstance(expr, b.BBuiltin):
        return b.BBuiltin(expr.name,
                          [substitute_columns(a, inner_exprs) for a in expr.args],
                          expr.data_type)
    if isinstance(expr, b.BBetween):
        return b.BBetween(substitute_columns(expr.operand, inner_exprs),
                          substitute_columns(expr.low, inner_exprs),
                          substitute_columns(expr.high, inner_exprs), expr.negated)
    if isinstance(expr, b.BIn):
        return b.BIn(substitute_columns(expr.operand, inner_exprs), expr.values,
                     expr.negated)
    if isinstance(expr, b.BLike):
        return b.BLike(substitute_columns(expr.operand, inner_exprs), expr.pattern,
                       expr.negated)
    if isinstance(expr, b.BIsNull):
        return b.BIsNull(substitute_columns(expr.operand, inner_exprs), expr.negated)
    if isinstance(expr, b.BCase):
        whens = [(substitute_columns(c, inner_exprs), substitute_columns(v, inner_exprs))
                 for c, v in expr.whens]
        else_ = substitute_columns(expr.else_, inner_exprs) if expr.else_ is not None \
            else None
        return b.BCase(whens, else_, expr.data_type)
    if isinstance(expr, b.BCast):
        return b.BCast(substitute_columns(expr.operand, inner_exprs), expr.data_type)
    raise ExecutionError(f"cannot substitute into {type(expr).__name__}")


def can_substitute(inner_exprs: List[b.BoundExpr]) -> bool:
    """Projection merging is safe unless it would duplicate a UDF call
    (UDFs are the one expensive, possibly-stateful node kind)."""
    return not any(e.contains_udf() for e in inner_exprs)


class _GatherEvaluator(ExpressionEvaluator):
    """Evaluator over a *row-filtered view* of a table.

    Columns are gathered through the selection indices lazily, each at most
    once — a stage never materialises columns its output does not read, and
    a gather read only as a cached UDF's argument is never copied
    (:meth:`Column.take_deferred`).
    """

    def __init__(self, table: Table, indices: np.ndarray):
        self.table = table
        self.indices = indices
        self.num_rows = len(indices)
        self.device = table.device
        self._gathered = {}
        self._memo = {}

    def _eval_BColumn(self, expr: b.BColumn):
        column = self._gathered.get(expr.index)
        if column is None:
            columns = self.table.columns
            if expr.index >= len(columns):
                raise ExecutionError(
                    f"column index {expr.index} out of range for table with "
                    f"{len(columns)} columns"
                )
            column = normalize_strings(
                columns[expr.index].take_deferred(self.indices))
            self._gathered[expr.index] = column
        return column


class CompiledStageExec(Operator):
    """Mask → lazy gather → projection | fused sort aggregate | selection.

    ``conjuncts`` and ``exprs`` are written over the stage's *input*
    columns (inner projections inlined). ``ops`` is the interpreter cascade
    the stage replaces and ``aggregate`` the serial sort aggregate fused on
    top (if any); ``fused_aggregate`` is that aggregate rewritten onto the
    input columns.
    """

    def __init__(self, ops: List[Operator], conjuncts: List[b.BoundExpr],
                 exprs: Optional[List[b.BoundExpr]], filter_kernel,
                 project_kernel, aggregate=None, fused_aggregate=None):
        super().__init__()
        self.ops = list(ops)
        self.conjuncts = list(conjuncts)
        self.exprs = exprs
        self.filter_kernel = filter_kernel      # Optional[FilterKernel]
        self.project_kernel = project_kernel    # Optional[ProjectKernel]
        self.aggregate = aggregate
        self.fused_aggregate = fused_aggregate
        # The cascade stays registered so UDF modules, parameters() and
        # EXPLAIN all see the original operator shape.
        for i, op in enumerate(self.ops):
            self.register_module(f"op{i}", op)
        if aggregate is not None:
            self.register_module("agg_op", aggregate)

    def forward(self, relation: Relation) -> Relation:
        # Stages exist only in exact (non-trainable) plans, whose relations
        # never carry soft row weights.
        try:
            result = self._run(relation.table)
        except KernelFallback:
            annotate(path="fallback")
            for op in self.ops:
                relation = op(relation)
            return self.aggregate(relation) if self.aggregate is not None else relation
        annotate(path="kernel")
        return result

    def _run(self, table: Table) -> Relation:
        if self.filter_kernel is not None:
            indices = np.flatnonzero(self.filter_kernel.mask(ExpressionEvaluator(table)))
            selected = _GatherEvaluator(table, indices)
        else:
            indices = None
            selected = ExpressionEvaluator(table)
        agg = self.fused_aggregate
        if agg is not None:
            keys = [selected.evaluate_column(e, n)
                    for e, n in zip(agg.group_exprs, agg.group_names)]
            agg_inputs = [
                selected.evaluate_column(s.arg, s.name) if s.arg is not None else None
                for s in agg.aggregates
            ]
            return agg.aggregate_evaluated(keys, agg_inputs, selected.num_rows,
                                           table.device, table.name)
        if self.project_kernel is not None:
            return Relation(Table(table.name, self.project_kernel.columns(selected)))
        # A plain selection hands deferred gathers on: the operator above
        # copies only the columns it reads, and a UDF served from the tensor
        # cache copies none (a filter stage below a UDF-conjunct stage).
        return Relation(Table(table.name, [column.take_deferred(indices)
                                           for column in table.columns]))

    def describe(self) -> str:
        parts = [op.describe() for op in self.ops]
        if self.aggregate is not None:
            parts.append(self.aggregate.describe())
        return "CompiledStage[" + " -> ".join(parts) + "]"
