"""Filter operator: exact boolean selection or soft row weighting."""

from __future__ import annotations

import numpy as np

from repro.core.expr_eval import ExpressionEvaluator
from repro.core.operators.base import Operator, Relation
from repro.core.soft.relaxations import soft_predicate
from repro.sql import bound as b


class FilterExec(Operator):
    """Exact filter: evaluate the predicate to a mask and gather rows."""

    declined = None     # why the compiler kept this chain off the kernels

    def __init__(self, predicate: b.BoundExpr):
        super().__init__()
        self.predicate = predicate
        self._register_expr_udfs([predicate])

    def forward(self, relation: Relation) -> Relation:
        evaluator = ExpressionEvaluator(relation.table)
        mask = evaluator.evaluate_mask(self.predicate)
        indices = np.flatnonzero(mask)
        table = relation.table.take(indices)
        weights = relation.weights[indices] if relation.weights is not None else None
        return Relation(table, weights)

    def describe(self) -> str:
        text = f"Filter({self.predicate})"
        return text if self.declined is None else f"{text} declined={self.declined}"


class SoftFilterExec(Operator):
    """Soft filter: keep all rows, emit differentiable membership weights.

    In eval mode it degrades to the exact filter so deployed queries return
    hard results (the paper's soft→exact swap at inference time).
    """

    def __init__(self, predicate: b.BoundExpr, temperature: float):
        super().__init__()
        self.predicate = predicate
        self.temperature = temperature
        self._register_expr_udfs([predicate])

    def forward(self, relation: Relation) -> Relation:
        if not self.training:
            return FilterExec(self.predicate)(relation)
        evaluator = ExpressionEvaluator(relation.table)
        weights = soft_predicate(self.predicate, evaluator, self.temperature)
        if relation.weights is not None:
            weights = weights * relation.weights
        return Relation(relation.table, weights)

    def describe(self) -> str:
        return f"SoftFilter({self.predicate}, tau={self.temperature})"
