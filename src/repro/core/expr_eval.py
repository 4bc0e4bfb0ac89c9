"""Interpret bound expressions against tables as tensor programs.

Each bound node lowers to TCR ops, so float arithmetic stays differentiable
(gradients flow through projected expressions into UDF parameters), while
string predicates exploit the order-preserving dictionary encoding to run on
integer codes without decoding.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from typing import List, Optional, Union

import numpy as np

from repro.core import tensor_cache as tc
from repro.core.kernels import dates as date_kernels
from repro.core.telemetry import count as tel_count
from repro.core.kernels import strings as string_kernels
from repro.errors import ExecutionError
from repro.sql import bound as b
from repro.storage import types as dt
from repro.storage.column import Column
from repro.storage.encodings import (
    CharCodeEncoding,
    DatetimeEncoding,
    DictionaryEncoding,
    EncodedTensor,
    PlainEncoding,
)
from repro.storage.table import Table
from repro.tcr import ops
from repro.tcr.tensor import Tensor


@dataclasses.dataclass
class Scalar:
    """A constant produced during evaluation (broadcasts against columns)."""
    value: object


Value = Union[Column, Scalar]

_NUMERIC_OPS = {
    "+": ops.add,
    "-": ops.sub,
    "*": ops.mul,
    "/": ops.div,
    "%": ops.remainder,
}
_COMPARE_OPS = {
    "=": ops.eq,
    "!=": ops.ne,
    "<": ops.lt,
    "<=": ops.le,
    ">": ops.gt,
    ">=": ops.ge,
}


class ExpressionEvaluator:
    """Evaluates bound expressions against one input table.

    A per-pass structural-hash memo gives common-subexpression elimination:
    fused SELECT/WHERE/ORDER BY lists sharing one evaluator compute each
    deterministic subtree (especially UDF calls) exactly once.
    """

    def __init__(self, table: Table):
        self.table = table
        self.num_rows = table.num_rows
        self.device = table.device
        self._memo: dict = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, expr: b.BoundExpr) -> Value:
        key = _structural_key(expr)
        if key is not None:
            cached = self._memo.get(key)
            if cached is not None:
                return cached
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise ExecutionError(f"cannot evaluate {type(expr).__name__}")
        value = method(expr)
        if key is not None:
            self._memo[key] = value
        return value

    def evaluate_column(self, expr: b.BoundExpr, name: str = "") -> Column:
        value = self.evaluate(expr)
        return self.materialize(value, name)

    def evaluate_mask(self, expr: b.BoundExpr) -> np.ndarray:
        """Evaluate a predicate to a boolean numpy mask."""
        value = self.evaluate(expr)
        if isinstance(value, Scalar):
            return np.full(self.num_rows, bool(value.value))
        data = value.tensor.detach().data
        if data.dtype.kind != "b":
            raise ExecutionError(f"predicate evaluated to {data.dtype}, expected bool")
        return data

    def materialize(self, value: Value, name: str = "") -> Column:
        if isinstance(value, Column):
            return value.rename(name) if name else value
        constant = value.value
        if isinstance(constant, str):
            return Column.from_values(name, np.array([constant] * self.num_rows, dtype=object),
                                      device=self.device)
        if isinstance(constant, bool):
            array = np.full(self.num_rows, constant, dtype=bool)
        elif isinstance(constant, int):
            array = np.full(self.num_rows, constant, dtype=np.int64)
        elif constant is None:
            array = np.full(self.num_rows, np.nan, dtype=np.float32)
        else:
            array = np.full(self.num_rows, float(constant), dtype=np.float32)
        return Column(name, EncodedTensor(Tensor(array, device=self.device), PlainEncoding()))

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def _eval_BColumn(self, expr: b.BColumn) -> Value:
        columns = self.table.columns
        if expr.index >= len(columns):
            raise ExecutionError(
                f"column index {expr.index} out of range for table with "
                f"{len(columns)} columns"
            )
        return normalize_strings(columns[expr.index])

    def _eval_BLiteral(self, expr: b.BLiteral) -> Value:
        return Scalar(expr.value)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _eval_BBinary(self, expr: b.BBinary) -> Value:
        left = self.evaluate(expr.left)
        right = self.evaluate(expr.right)
        op = expr.op

        if isinstance(left, Scalar) and isinstance(right, Scalar):
            return self._fold_scalars(op, left, right)

        if op in ("AND", "OR"):
            lt_ = self._bool_tensor(left)
            rt_ = self._bool_tensor(right)
            fn = ops.logical_and if op == "AND" else ops.logical_or
            return self._plain(fn(lt_, rt_))

        if op in _COMPARE_OPS:
            return self._compare(op, left, right)

        # Arithmetic: tensors with broadcasting (differentiable).
        lt_ = self._numeric_tensor(left)
        rt_ = self._numeric_tensor(right)
        return self._plain(_NUMERIC_OPS[op](lt_, rt_))

    def _eval_BUnary(self, expr: b.BUnary) -> Value:
        operand = self.evaluate(expr.operand)
        if expr.op == "NOT":
            if isinstance(operand, Scalar):
                return Scalar(not bool(operand.value))
            return self._plain(ops.logical_not(self._bool_tensor(operand)))
        if isinstance(operand, Scalar):
            return Scalar(-operand.value)
        return self._plain(ops.neg(self._numeric_tensor(operand)))

    def _eval_BCall(self, expr: b.BCall) -> Value:
        udf = expr.udf
        values = [self.evaluate(arg) for arg in expr.args]

        # Materialization cache: deterministic UDFs outside grad recording
        # consult the session cache. A full hit skips inference entirely; a
        # subset (post-filter) evaluation gathers from a cached full-column
        # entry; a miss computes and inserts. When a scheduler inference
        # batcher is active, arguments are tagged even with the cache off so
        # concurrent queries' encoder micro-batches can coalesce in flight.
        cache = tc.active()
        eligible = (getattr(udf, "deterministic", True)
                    and not _udf_needs_grad(udf)
                    # Modules left in train() mode may be stochastic
                    # (dropout): never cache their outputs.
                    and not any(getattr(m, "training", False)
                                for m in udf.modules))
        use_cache = cache is not None and eligible
        want_tags = use_cache or (eligible and tc.active_batcher() is not None)
        key = None
        tagged = ()
        if want_tags:
            key, full_key, rows, tagged = _bcall_cache_plan(udf, values, self,
                                                            cache)
            if use_cache and key is not None:
                cached = cache.udf_get(key, full_key, rows,
                                       num_rows=self.num_rows)
                if cached is not None:
                    # Attribute the hit to the requesting query's open
                    # operator span (no-op when untraced).
                    tel_count(tensor_cache_hits=1)
                    return cached[0]
                tel_count(tensor_cache_misses=1)

        # Argument data is read only past the cache probe: a hit never
        # touches it, so a deferred row gather (Column.take_deferred) of
        # an argument column is never copied.
        args = []
        for value in values:
            if isinstance(value, Scalar):
                args.append(value.value)
            elif udf.encoded_io or not isinstance(value.encoding, PlainEncoding):
                args.append(value.encoded)
            else:
                args.append(value.tensor)
        tags = []
        for position, tag in tagged:
            arg = args[position]
            tags.append((arg.tensor if isinstance(arg, EncodedTensor) else arg, tag))
        # Tag the argument tensors so encoder memos inside the UDF
        # (model.encode_image) can capture/reuse embeddings. Tags are
        # removed after the invocation: they must never leak into a later
        # call that did not opt into caching (e.g. a deterministic=False UDF
        # sharing the same model).
        for tensor, tag in tags:
            tc.tag_tensor(tensor, tag)

        try:
            columns = _invoke_batched(udf, args, self.num_rows, self.device)
        finally:
            for tensor, _ in tags:
                tc.untag_tensor(tensor)
        column = columns[0]
        if column.num_rows != self.num_rows:
            raise ExecutionError(
                f"UDF {udf.name!r} returned {column.num_rows} rows for "
                f"{self.num_rows} input rows"
            )
        if use_cache and key is not None:
            cache.udf_put(key, columns)
        return column

    def _eval_BBuiltin(self, expr: b.BBuiltin) -> Value:
        name = expr.name
        values = [self.evaluate(a) for a in expr.args]
        if name in ("UPPER", "LOWER", "LENGTH", "TRIM"):
            return self._string_builtin(name, values[0])
        if name in ("SUBSTR", "SUBSTRING"):
            return self._substr(values)
        if name == "COALESCE":
            result = self._numeric_tensor(values[0])
            for value in values[1:]:
                if result.dtype.kind != "f":
                    break   # non-float carries no NULLs; later args unreachable
                mask = Tensor(np.isnan(result.detach().data), device=self.device)
                result = ops.where(mask, self._numeric_tensor(value), result)
            return self._plain(result)
        tensors = [self._numeric_tensor(v) for v in values]
        if name == "ABS":
            return self._plain(ops.abs(tensors[0]))
        if name == "SQRT":
            return self._plain(ops.sqrt(self._to_float(tensors[0])))
        if name == "EXP":
            return self._plain(ops.exp(self._to_float(tensors[0])))
        if name in ("LN", "LOG"):
            return self._plain(ops.log(self._to_float(tensors[0])))
        if name in ("POW", "POWER"):
            return self._plain(ops.pow(self._to_float(tensors[0]), tensors[1]))
        if name == "ROUND":
            if len(tensors) == 2:
                digits_data = tensors[1].data.reshape(-1)
                # Zero-row inputs materialize an empty digits column; any
                # factor yields the same empty output.
                digits = float(digits_data[0]) if digits_data.size else 0.0
                factor = 10.0 ** digits
                return self._plain(ops.div(ops.round(ops.mul(tensors[0], factor)), factor))
            return self._plain(ops.round(tensors[0]))
        if name == "FLOOR":
            return self._plain(ops.floor(tensors[0]))
        if name == "CEIL":
            return self._plain(ops.ceil(tensors[0]))
        if name == "LEAST":
            result = tensors[0]
            for t in tensors[1:]:
                result = ops.minimum(result, t)
            return self._plain(result)
        if name == "GREATEST":
            result = tensors[0]
            for t in tensors[1:]:
                result = ops.maximum(result, t)
            return self._plain(result)
        if name == "SIGMOID":
            return self._plain(ops.sigmoid(self._to_float(tensors[0])))
        raise ExecutionError(f"unknown builtin {name}")

    def _eval_BBetween(self, expr: b.BBetween) -> Value:
        operand = self.evaluate(expr.operand)
        low = self.evaluate(expr.low)
        high = self.evaluate(expr.high)
        low_ok = self._compare(">=", operand, low)
        high_ok = self._compare("<=", operand, high)
        combined = ops.logical_and(self._bool_tensor(low_ok), self._bool_tensor(high_ok))
        if expr.negated:
            combined = ops.logical_not(combined)
        return self._plain(combined)

    def _eval_BIn(self, expr: b.BIn) -> Value:
        operand = self.evaluate(expr.operand)
        if isinstance(operand, Scalar):
            result = operand.value in expr.values
            return Scalar(result != expr.negated)
        column = operand
        if isinstance(column.encoding, DictionaryEncoding):
            codes = [column.encoding.code_for(str(v)) for v in expr.values]
            codes = [c for c in codes if c is not None]
            mask = np.isin(column.tensor.detach().data, np.asarray(codes, dtype=np.int64))
        else:
            mask = np.isin(column.tensor.detach().data, np.asarray(expr.values))
        if expr.negated:
            mask = ~mask
        return self._plain(Tensor(mask, device=self.device))

    def _eval_BLike(self, expr: b.BLike) -> Value:
        column = self.evaluate(expr.operand)
        if isinstance(column, Scalar):
            matched = _like_to_regex(expr.pattern).fullmatch(str(column.value)) is not None
            return Scalar(matched != expr.negated)
        if not isinstance(column.encoding, DictionaryEncoding):
            raise ExecutionError("LIKE requires a string (dictionary-encoded) column")
        # Prefix patterns stay a code-range check; everything else runs the
        # char-code matrix NFA over the dictionary (shared with compiled
        # kernels, so the two paths are bit-identical by construction).
        mask = string_kernels.like_mask(column.encoding,
                                        column.tensor.detach().data,
                                        expr.pattern)
        if expr.negated:
            mask = ~mask
        return self._plain(Tensor(mask, device=self.device))

    def _eval_BIsNull(self, expr: b.BIsNull) -> Value:
        operand = self.evaluate(expr.operand)
        if isinstance(operand, Scalar):
            is_null = operand.value is None
            return Scalar(is_null != expr.negated)
        data = operand.tensor.detach().data
        if data.dtype.kind == "f":
            mask = np.isnan(data)
            if data.ndim > 1:
                mask = mask.reshape(data.shape[0], -1).any(axis=1)
        else:
            mask = np.zeros(operand.num_rows, dtype=bool)
        if expr.negated:
            mask = ~mask
        return self._plain(Tensor(mask, device=self.device))

    def _eval_BCase(self, expr: b.BCase) -> Value:
        result: Optional[Tensor] = None
        taken = None
        for cond, value in expr.whens:
            mask = Tensor(self.evaluate_mask(cond), device=self.device)
            branch = self._numeric_tensor(self.evaluate(value))
            if result is None:
                result = ops.where(mask, branch, ops.mul(branch, 0.0))
                taken = mask
            else:
                fresh = ops.logical_and(mask, ops.logical_not(taken))
                result = ops.where(fresh, branch, result)
                taken = ops.logical_or(taken, mask)
        if expr.else_ is not None:
            else_tensor = self._numeric_tensor(self.evaluate(expr.else_))
            result = ops.where(taken, result, else_tensor)
        return self._plain(result)

    def _eval_BCast(self, expr: b.BCast) -> Value:
        operand = self.evaluate(expr.operand)
        target = expr.data_type
        if isinstance(operand, Scalar):
            return Scalar(_cast_scalar(operand.value, target))
        if target.kind == "string":
            decoded = operand.decode()
            strings = np.asarray([str(v) for v in decoded], dtype=object)
            return Column.from_values("", strings, device=self.device)
        np_dtype = {"int": np.int64, "float": np.float32, "bool": np.bool_}[target.kind]
        if isinstance(operand.encoding, DictionaryEncoding):
            decoded = operand.decode()
            array = decoded.astype(np.float64).astype(np_dtype)
            return self._plain(Tensor(array, device=self.device))
        return self._plain(ops.astype(operand.tensor, np_dtype))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _plain(self, tensor: Tensor) -> Column:
        return Column("", EncodedTensor(tensor, PlainEncoding()))

    def _bool_tensor(self, value: Value) -> Tensor:
        if isinstance(value, Scalar):
            return Tensor(np.full(self.num_rows, bool(value.value)), device=self.device)
        data = value.tensor
        if data.dtype.kind != "b":
            raise ExecutionError(f"expected boolean operand, got {data.dtype}")
        return data

    def _numeric_tensor(self, value: Value) -> Tensor:
        if isinstance(value, Scalar):
            v = value.value
            if isinstance(v, bool):
                array = np.full(self.num_rows, v)
            elif isinstance(v, int):
                array = np.full(self.num_rows, v, dtype=np.int64)
            elif v is None:
                array = np.full(self.num_rows, np.nan, dtype=np.float32)
            else:
                array = np.full(self.num_rows, float(v), dtype=np.float32)
            return Tensor(array, device=self.device)
        if isinstance(value.encoding, DictionaryEncoding):
            raise ExecutionError("arithmetic on string columns is not supported")
        return value.tensor

    @staticmethod
    def _to_float(tensor: Tensor) -> Tensor:
        if tensor.dtype.kind != "f":
            return ops.astype(tensor, np.float32)
        return tensor

    def _fold_scalars(self, op: str, left: Scalar, right: Scalar) -> Scalar:
        return Scalar(fold_scalars(op, left.value, right.value))

    def _compare(self, op: str, left: Value, right: Value) -> Column:
        # Dictionary fast paths: run the comparison on integer codes.
        if isinstance(left, Column) and isinstance(left.encoding, DictionaryEncoding):
            if isinstance(right, Scalar) and isinstance(right.value, str):
                return self._compare_dict_literal(op, left, right.value)
            if isinstance(right, Column) and isinstance(right.encoding, DictionaryEncoding):
                return self._compare_dict_columns(op, left, right)
        if isinstance(right, Column) and isinstance(right.encoding, DictionaryEncoding) \
                and isinstance(left, Scalar) and isinstance(left.value, str):
            flipped = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
            return self._compare_dict_literal(flipped[op], right, left.value)
        # Datetime fast paths: parse the ISO literal once, compare epoch nanos.
        if isinstance(left, Column) and isinstance(left.encoding, DatetimeEncoding) \
                and isinstance(right, Scalar) and isinstance(right.value, str):
            mask = date_kernels.compare_datetime_literal(
                left.tensor.detach().data, op, right.value)
            return self._plain(Tensor(mask, device=self.device))
        if isinstance(right, Column) and isinstance(right.encoding, DatetimeEncoding) \
                and isinstance(left, Scalar) and isinstance(left.value, str):
            flipped = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
            mask = date_kernels.compare_datetime_literal(
                right.tensor.detach().data, flipped[op], left.value)
            return self._plain(Tensor(mask, device=self.device))
        lt_ = self._numeric_tensor(left)
        rt_ = self._numeric_tensor(right)
        return self._plain(_COMPARE_OPS[op](lt_, rt_))

    def _compare_dict_literal(self, op: str, column: Column, literal: str) -> Column:
        encoding: DictionaryEncoding = column.encoding
        codes = column.tensor.detach().data
        if op in ("=", "!="):
            code = encoding.code_for(literal)
            if code is None:
                mask = np.zeros(column.num_rows, dtype=bool)
            else:
                mask = codes == code
            if op == "!=":
                mask = ~mask
        else:
            boundary = encoding.range_for(literal, side="left" if op in ("<", ">=") else "right")
            if op == "<":
                mask = codes < boundary
            elif op == ">=":
                mask = codes >= boundary
            elif op == "<=":
                mask = codes < boundary
            else:  # >
                mask = codes >= boundary
        return self._plain(Tensor(mask, device=self.device))

    def _compare_dict_columns(self, op: str, left: Column, right: Column) -> Column:
        if left.encoding == right.encoding:
            return self._plain(_COMPARE_OPS[op](left.tensor, right.tensor))
        left_strings = left.decode().astype(str)
        right_strings = right.decode().astype(str)
        np_op = {"=": np.equal, "!=": np.not_equal, "<": np.less, "<=": np.less_equal,
                 ">": np.greater, ">=": np.greater_equal}[op]
        return self._plain(Tensor(np_op(left_strings, right_strings), device=self.device))

    def _string_builtin(self, name: str, value: Value) -> Value:
        if isinstance(value, Scalar):
            text = str(value.value)
            if name == "UPPER":
                return Scalar(text.upper())
            if name == "LOWER":
                return Scalar(text.lower())
            if name == "TRIM":
                return Scalar(text.strip())
            return Scalar(len(text))
        strings = value.decode().astype(str)
        if name == "UPPER":
            return Column.from_values("", np.char.upper(strings).astype(object),
                                      device=self.device)
        if name == "LOWER":
            return Column.from_values("", np.char.lower(strings).astype(object),
                                      device=self.device)
        if name == "TRIM":
            # str.strip per row: the compiled kernel applies the same python
            # function per distinct dictionary string, so both legs agree.
            trimmed = np.asarray([t.strip() for t in strings], dtype=object)
            return Column.from_values("", trimmed, device=self.device)
        lengths = np.char.str_len(strings).astype(np.int64)
        return self._plain(Tensor(lengths, device=self.device))

    def _substr(self, values: List[Value]) -> Value:
        start = values[1]
        length = values[2] if len(values) > 2 else None
        if not isinstance(start, Scalar) \
                or not (length is None or isinstance(length, Scalar)):
            raise ExecutionError("SUBSTR start/length must be constant expressions")
        begin = int(start.value)
        count = None if length is None else int(length.value)
        value = values[0]
        if isinstance(value, Scalar):
            return Scalar(string_kernels.substr_value(str(value.value), begin, count))
        strings = value.decode().astype(str)
        out = np.asarray(
            [string_kernels.substr_value(t, begin, count) for t in strings],
            dtype=object)
        return Column.from_values("", out, device=self.device)


def normalize_strings(column: Column) -> Column:
    """Normalise char-code string columns to dictionary form on first touch.

    Every string kernel (LIKE, UPPER/LOWER, code compares) runs on sorted
    dictionaries; the round-trip is lossless, and the per-pass evaluator
    memo makes the conversion happen at most once per operator pass.
    """
    if isinstance(column.encoding, CharCodeEncoding):
        return column.to_dictionary()
    return column


def fold_scalars(op: str, lv, rv):
    """Constant-fold one binary op over python scalar values (shared by the
    interpreter and the expression compiler so folding cannot drift)."""
    table = {
        "+": lambda: lv + rv, "-": lambda: lv - rv, "*": lambda: lv * rv,
        "/": lambda: lv / rv, "%": lambda: lv % rv,
        "=": lambda: lv == rv, "!=": lambda: lv != rv,
        "<": lambda: lv < rv, "<=": lambda: lv <= rv,
        ">": lambda: lv > rv, ">=": lambda: lv >= rv,
        "AND": lambda: bool(lv) and bool(rv), "OR": lambda: bool(lv) or bool(rv),
    }
    return table[op]()


def _cast_scalar(value, target: dt.DataType):
    if target.kind == "int":
        return int(value)
    if target.kind == "float":
        return float(value)
    if target.kind == "bool":
        return bool(value)
    return str(value)


@functools.lru_cache(maxsize=256)
def _like_to_regex(pattern: str) -> "re.Pattern":
    # DOTALL: SQL's % and _ match any character including newlines (the
    # char-code LIKE kernel has no newline special case; the regex path —
    # scalar operands and the tests' oracle — must agree).
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


# ----------------------------------------------------------------------
# CSE structural keys
# ----------------------------------------------------------------------
def _structural_key(expr: b.BoundExpr) -> Optional[tuple]:
    """Hashable structural identity of a bound expression, or None when the
    subtree must not be shared (non-deterministic UDF, unhashable literal)."""
    t = type(expr)
    if t is b.BColumn:
        return ("c", expr.index)
    if t is b.BLiteral:
        v = expr.value
        if isinstance(v, (str, int, float, bool, type(None))):
            return ("l", type(v).__name__, v)
        return None
    if t is b.BBinary:
        left = _structural_key(expr.left)
        right = _structural_key(expr.right)
        if left is None or right is None:
            return None
        return ("b", expr.op, left, right)
    if t is b.BUnary:
        operand = _structural_key(expr.operand)
        return None if operand is None else ("n", expr.op, operand)
    if t is b.BCall:
        if not getattr(expr.udf, "deterministic", True):
            return None
        parts = tuple(_structural_key(a) for a in expr.args)
        if any(p is None for p in parts):
            return None
        return ("u", expr.udf.name.lower(), getattr(expr.udf, "version", 0), parts)
    if t is b.BBuiltin:
        parts = tuple(_structural_key(a) for a in expr.args)
        if any(p is None for p in parts):
            return None
        return ("f", expr.name, parts)
    if t is b.BBetween:
        keys = tuple(_structural_key(e) for e in (expr.operand, expr.low, expr.high))
        if any(k is None for k in keys):
            return None
        return ("btw", expr.negated, keys)
    if t is b.BIn:
        operand = _structural_key(expr.operand)
        if operand is None:
            return None
        try:
            values = tuple(expr.values)
            hash(values)
        except TypeError:
            return None
        return ("in", operand, values, expr.negated)
    if t is b.BLike:
        operand = _structural_key(expr.operand)
        return None if operand is None else ("like", operand, expr.pattern, expr.negated)
    if t is b.BIsNull:
        operand = _structural_key(expr.operand)
        return None if operand is None else ("null", operand, expr.negated)
    if t is b.BCase:
        parts = []
        for cond, value in expr.whens:
            ck, vk = _structural_key(cond), _structural_key(value)
            if ck is None or vk is None:
                return None
            parts.append((ck, vk))
        else_key = None
        if expr.else_ is not None:
            else_key = _structural_key(expr.else_)
            if else_key is None:
                return None
        return ("case", tuple(parts), else_key)
    if t is b.BCast:
        operand = _structural_key(expr.operand)
        return None if operand is None else ("cast", operand, repr(expr.data_type))
    return None


# ----------------------------------------------------------------------
# Materialization-cache keying for UDF calls
# ----------------------------------------------------------------------
def _udf_needs_grad(udf) -> bool:
    from repro.tcr.autograd import is_grad_enabled
    return is_grad_enabled() and any(p.requires_grad for p in udf.parameters())


def _bcall_cache_plan(udf, values, evaluator, cache):
    """Build cache keys for one UDF call from its argument values' content
    identity alone (their data is not read).

    Returns ``(key, full_key, rows, tagged)``: the exact entry key; the
    full-column key usable for a row gather (when every column argument is
    the same row subset of its base column); the subset row indices; and
    ``(argument position, tag)`` pairs whose argument tensors get tagged
    before invoking the UDF. ``key`` is None when an argument has no
    stable content identity. ``cache`` may be None (batcher-only tagging):
    tags are still computed, keys are not usable for insertion but content
    identity is what in-flight encoder dedup runs on.
    """
    state_fp = cache.udf_state_fp(udf) if cache is not None else "nocache"
    head = ("udf", udf.name.lower(), getattr(udf, "version", 0), state_fp,
            str(evaluator.device))
    parts, full_parts, tagged = [head], [head], []
    rows = None
    rows_fps = set()
    any_column = False
    for position, value in enumerate(values):
        if isinstance(value, Scalar):
            v = value.value
            try:
                hash(v)
            except TypeError:
                return None, None, None, ()
            parts.append(("s", v))
            full_parts.append(("s", v))
            continue
        tag = tc.column_tag(value)
        if tag is None:
            return None, None, None, ()
        any_column = True
        rows_fps.add(tag.rows_fp)
        if tag.rows_fp is not None:
            rows = tag.rows
        parts.append(("col", tag.base, tag.rows_fp))
        full_parts.append(("col", tag.base, None))
        tagged.append((position, tag))
    if not any_column:
        # Pure scalar broadcast: the output length is the only data identity.
        parts.append(("nrows", evaluator.num_rows))
    key = tuple(parts)
    subset = (any_column and rows is not None and len(rows_fps) == 1)
    full_key = tuple(full_parts) if subset else None
    return key, full_key, (rows if subset else None), tagged


def _invoke_batched(udf, args: List[object], num_rows: int, device) -> List[Column]:
    """Invoke a UDF, micro-batching row arguments per the device profile.

    This is where the simulated device asymmetry becomes measurable: the CPU
    profile dispatches many small kernels (one per micro-batch) while the
    accelerator profile amortises Python/kernel overhead over large batches —
    the mechanism behind the paper's Fig 2 CPU/GPU gap.
    """
    from repro.tcr.autograd import is_grad_enabled

    batch_rows = device.profile.exec_batch_rows
    needs_grad = is_grad_enabled() and any(
        p.requires_grad for p in udf.parameters()
    )
    if num_rows <= batch_rows or needs_grad:
        return _rehome(udf.invoke(args), device)

    batched_results: List[List[Column]] = []
    for start in range(0, num_rows, batch_rows):
        stop = min(start + batch_rows, num_rows)
        chunk_args = []
        for arg in args:
            if isinstance(arg, Tensor) and arg.ndim >= 1 and arg.shape[0] == num_rows:
                chunk = arg[start:stop]
                _tag_slice(arg, chunk, start, stop)
                chunk_args.append(chunk)
            elif isinstance(arg, EncodedTensor) and arg.num_rows == num_rows:
                chunk = arg.tensor[start:stop]
                _tag_slice(arg.tensor, chunk, start, stop)
                chunk_args.append(EncodedTensor(chunk, arg.encoding))
            else:
                chunk_args.append(arg)
        batched_results.append(udf.invoke(chunk_args))

    stitched: List[Column] = []
    for col_idx in range(len(udf.output_schema)):
        pieces = [chunk[col_idx] for chunk in batched_results]
        tensor = ops.cat([p.tensor for p in pieces], dim=0)
        stitched.append(Column(pieces[0].name, EncodedTensor(tensor, pieces[0].encoding)))
    return _rehome(stitched, device)


def _tag_slice(parent: Tensor, chunk: Tensor, start: int, stop: int) -> None:
    """Propagate content identity onto a micro-batch slice, so encoder memos
    inside the UDF can capture/reuse per-slice embeddings."""
    tag = getattr(parent, "_cache_tag", None)
    if tag is not None:
        tc.tag_tensor(chunk, tc.slice_tag(tag, start, stop))


def _rehome(columns: List[Column], device) -> List[Column]:
    """Move UDF outputs to the query's device (a UDF may compute wherever its
    model weights live; the engine re-homes results, like a runtime copying
    kernel outputs back to the executing stream)."""
    return [col if col.device == device else col.to(device) for col in columns]
