"""Lower Filter/Project chains to compiled row stages (TQP-style codegen).

The compiler hands every maximal Filter/Project chain of an exact query to
:func:`lower_chain` as its interpreter cascade: one ``FilterExec`` per
conjunct and one ``ProjectExec`` per projection, bottom-up in execution
order, plus the aggregate consuming the chain when the plan runs serially.
The cascade is grouped into as few
:class:`~repro.core.operators.stage.CompiledStageExec` operators as the
rules below allow, and a sort aggregate is fused into the last stage.

Inside a stage every conjunct and projection is rewritten onto the stage's
*input* columns with classic projection inlining (:func:`substitute_columns`),
so the stage evaluates one mask over its input rows and evaluates its output
over the selected rows through a lazy gather.

Bit-identity with the cascade: element-wise evaluation commutes with row
selection (gather-then-compute equals compute-then-gather per element), so
ANDing all conjunct masks over the input rows selects exactly the rows the
cascade selects, and evaluating inlined expressions over the selected view
reproduces the cascade's values bit for bit. A UDF is the exception — its
batch shapes and tensor-cache traffic depend on which rows it sees — so the
grouping keeps every UDF on exactly the rows the cascade feeds it:

* a UDF-bearing conjunct may only be a stage's *first* conjunct (it then
  sees all input rows, as the cascade's first filter does); a later one
  starts a new stage over the previous stage's output;
* a UDF in a projection or aggregate input evaluates over the stage's
  selected rows, as the cascade's Project/aggregate does;
* a projection containing a UDF is never inlined (that could duplicate the
  call): an operator above it starts a new stage, and an aggregate stays
  unfused.

A chain the kernels cannot take raises :class:`UnsupportedExpr` and the
compiler keeps the whole cascade, annotating the reason on it:

* an expression shape the expression compiler cannot lower,
* a two-argument ROUND with a non-literal digits operand that the stage
  would evaluate over other rows than the cascade does (it reads element 0
  of its evaluated digits, so its values depend on which row is first): in
  a conjunct that is not its stage's first, or in a projection a later
  conjunct of the stage filters. The first conjunct sees the cascade's
  rows (all input rows), and so does a projection no conjunct follows
  (the selected rows);
* a substitution failure (an expression node kind inlining cannot rebuild).

The projection of a stage whose output feeds only its fused aggregate is
never evaluated, so it is not compiled either.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.kernels.compiler import (
    UnsupportedExpr,
    compile_filter,
    compile_projection,
)
from repro.core.operators.aggregate import SortAggregateExec
from repro.core.operators.base import Operator
from repro.core.operators.filter import FilterExec
from repro.core.operators.stage import (
    CompiledStageExec,
    can_substitute,
    substitute_columns,
)
from repro.errors import ExecutionError
from repro.sql import bound as b


def _subexprs(expr: b.BoundExpr):
    """Depth-first walk over a bound expression tree (generic over node
    kinds: every bound node is a dataclass whose expression-valued fields
    are BoundExpr instances, lists of them, or BCase's (cond, value) pairs)."""
    yield expr
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        if isinstance(value, b.BoundExpr):
            yield from _subexprs(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, b.BoundExpr):
                    yield from _subexprs(item)
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, b.BoundExpr):
                            yield from _subexprs(sub)


def _position_dependent(expr: b.BoundExpr) -> bool:
    """True when evaluating ``expr`` over a different row subset could
    change its per-row values: two-argument ROUND reads element 0 of its
    evaluated digits operand, so unless that operand is a literal the
    result depends on which row happens to be first."""
    for node in _subexprs(expr):
        if isinstance(node, b.BBuiltin) and node.name == "ROUND" \
                and len(node.args) == 2 \
                and not isinstance(node.args[1], b.BLiteral):
            return True
    return False


class _StagePlan:
    """One stage being grouped: its cascade slice plus inlined expressions."""

    def __init__(self):
        self.ops = []
        self.conjuncts: List[b.BoundExpr] = []
        self.exprs: Optional[List[b.BoundExpr]] = None
        self.names: Optional[List[str]] = None
        self._position_dependent_projection = False

    def accepts(self, op) -> bool:
        if not self.ops:
            return True
        if self.exprs is not None and not can_substitute(self.exprs):
            return False
        if isinstance(op, FilterExec):
            return not (self.conjuncts and op.predicate.contains_udf())
        return True

    def add(self, op) -> None:
        self.ops.append(op)
        if isinstance(op, FilterExec):
            if (self.conjuncts and _position_dependent(op.predicate)) \
                    or self._position_dependent_projection:
                raise UnsupportedExpr("position-dependent ROUND")
            self.conjuncts.extend(self._inline([op.predicate]))
        else:
            if any(_position_dependent(e) for e in op.exprs):
                self._position_dependent_projection = True
            self.exprs = self._inline(op.exprs)
            self.names = list(op.names)

    def _inline(self, exprs) -> List[b.BoundExpr]:
        if self.exprs is None:
            return list(exprs)
        try:
            return [substitute_columns(e, self.exprs) for e in exprs]
        except ExecutionError as exc:
            raise UnsupportedExpr(f"substitution failed: {exc}") from None

    def build(self, aggregate=None) -> List[Operator]:
        """The stage, with ``aggregate`` fused into it when it can be, or
        followed by it when it cannot."""
        filter_kernel = compile_filter(self.conjuncts) if self.conjuncts else None
        fused = _fused_aggregate(self.exprs, aggregate)
        if fused is not None:
            return [CompiledStageExec(self.ops, self.conjuncts, self.exprs,
                                      filter_kernel, None, aggregate, fused)]
        project_kernel = (compile_projection(self.exprs, self.names)
                          if self.exprs is not None else None)
        stage = CompiledStageExec(self.ops, self.conjuncts, self.exprs,
                                  filter_kernel, project_kernel)
        return [stage] if aggregate is None else [stage, aggregate]


def lower_chain(ops: List, aggregate=None) -> List[Operator]:
    """Group a bottom-up FilterExec/ProjectExec cascade into stages.

    ``aggregate`` is the operator consuming the chain, if the caller wants
    it fused; it is returned fused into the last stage or, when it cannot
    fuse, as the last operator. Raises :class:`UnsupportedExpr` (its message
    is the reason) when any part of the chain cannot compile; the caller
    then keeps the cascade.
    """
    plans = [_StagePlan()]
    for op in ops:
        if not plans[-1].accepts(op):
            plans.append(_StagePlan())
        plans[-1].add(op)
    lowered = [plan.build()[0] for plan in plans[:-1]]
    return lowered + plans[-1].build(aggregate)


def _fused_aggregate(inner: Optional[List[b.BoundExpr]],
                     aggregate) -> Optional[SortAggregateExec]:
    """``aggregate`` rewritten onto the stage's input columns, or None when
    it must run as its own operator."""
    if type(aggregate) is not SortAggregateExec:
        return None
    if inner is not None and not can_substitute(inner):
        return None

    def to_input(expr):
        return expr if inner is None else substitute_columns(expr, inner)

    try:
        group_exprs = [to_input(e) for e in aggregate.group_exprs]
        specs = [dataclasses.replace(s, arg=to_input(s.arg)) if s.arg is not None
                 else s for s in aggregate.aggregates]
    except ExecutionError:
        return None
    return SortAggregateExec(group_exprs, list(aggregate.group_names), specs)
