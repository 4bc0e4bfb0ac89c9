"""Seeded TPC-H-shaped tables, query templates and their numpy floors.

The fact table ``lineitem`` has int, float and dictionary-string columns;
the dimension ``customer`` joins on ``l_custkey``. Every template has a
hand-written numpy version over the same arrays. It is both the correctness
oracle and the floor the engine's execution time is divided by.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

FACT_ROWS = 1_000_000
DIM_ROWS = 10_000
PARTS = 200_000
DAYS = 2557
FLAGS = np.array(["A", "N", "R"], dtype=object)
NATIONS = np.array([f"NATION_{i:02d}" for i in range(25)], dtype=object)
# Constant variants per template: repeats give plan-cache hits, the first
# use of each variant compiles.
VARIANTS = 8


class Data:
    """Column arrays plus the dictionary codes the numpy floors use."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        n, d = FACT_ROWS, DIM_ROWS
        self.flag_codes = rng.integers(0, len(FLAGS), n).astype(np.int64)
        self.nation_codes = rng.integers(0, len(NATIONS), d).astype(np.int64)
        self.fact = {
            "l_orderkey": np.arange(n, dtype=np.int64),
            "l_custkey": rng.integers(0, d, n).astype(np.int64),
            "l_partkey": rng.integers(0, PARTS, n).astype(np.int64),
            "l_quantity": rng.integers(1, 51, n).astype(np.int64),
            # Distinct prices, so ORDER BY price has no ties.
            "l_price": (900.0 + rng.permutation(n) * 0.09).astype(np.float32),
            "l_discount": (rng.integers(0, 11, n) / 100.0).astype(np.float32),
            "l_shipdate": rng.integers(0, DAYS, n).astype(np.int64),
            "l_returnflag": FLAGS[self.flag_codes],
        }
        self.dim = {
            "c_custkey": np.arange(d, dtype=np.int64),
            "c_nation": NATIONS[self.nation_codes],
            "c_acctbal": rng.uniform(-999.0, 9999.0, d).astype(np.float32),
        }
        # Each row's nation code through the join (the floor's join).
        self.row_nation = self.nation_codes[self.fact["l_custkey"]]

    def register(self, session, seconds: Optional[List[float]] = None) -> None:
        """Register both tables, appending each call's seconds to ``seconds``."""
        for name, columns in (("lineitem", self.fact), ("customer", self.dim)):
            start = time.perf_counter()
            session.sql.register_dict(columns, name)
            if seconds is not None:
                seconds.append(time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Templates: (SQL with {placeholders}, constant sampler, numpy floor, kind)
# ---------------------------------------------------------------------------
def _count_filter(data, q, d):
    f = data.fact
    return np.count_nonzero((f["l_quantity"] < q) & (f["l_discount"] > d))


def _q1(data, c):
    f = data.fact
    m = f["l_shipdate"] <= c
    codes = data.flag_codes[m]
    k = len(FLAGS)
    n = np.bincount(codes, minlength=k)
    return {"l_returnflag": FLAGS,
            "sum_qty": np.bincount(codes, f["l_quantity"][m], k),
            "sum_price": np.bincount(codes, f["l_price"][m], k),
            "avg_disc": np.bincount(codes, f["l_discount"][m], k) / n,
            "n": n}


def _q6_constants(rng):
    d = rng.integers(2, 9) / 100
    return int(rng.integers(0, 5)) * 365, d - 0.015, d + 0.015, int(rng.integers(24, 26))


def _q6(data, a, lo, hi, q):
    f = data.fact
    ship, disc = f["l_shipdate"], f["l_discount"]
    m = ((ship >= a) & (ship < a + 365) & (disc >= lo) & (disc <= hi)
         & (f["l_quantity"] < q))
    return float(np.dot(f["l_price"][m].astype(np.float64), disc[m]))


def _join_group(data, c):
    f = data.fact
    m = f["l_shipdate"] < c
    codes = data.row_nation[m]
    k = len(NATIONS)
    n = np.bincount(codes, minlength=k)
    return {"c_nation": NATIONS[n > 0],
            "revenue": np.bincount(codes, f["l_price"][m], k)[n > 0],
            "n": n[n > 0]}


def _topn(data, q):
    f = data.fact
    rows = np.flatnonzero(f["l_quantity"] > q)
    price = f["l_price"][rows]
    top = np.argpartition(-price, 10)[:10]
    top = top[np.lexsort((rows[top], -price[top]))]
    return {"l_orderkey": f["l_orderkey"][rows[top]], "l_price": price[top]}


def _high_card_group(data, c):
    f = data.fact
    m = f["l_shipdate"] < c
    sums = np.bincount(f["l_custkey"][m], f["l_quantity"][m], DIM_ROWS)
    seen = np.bincount(f["l_custkey"][m], minlength=DIM_ROWS) > 0
    return {"l_custkey": np.flatnonzero(seen), "sum_qty": sums[seen]}


def _count_distinct(data, c):
    f = data.fact
    m = f["l_shipdate"] < c
    pairs = np.unique(data.flag_codes[m] * PARTS + f["l_partkey"][m])
    counts = np.bincount(pairs // PARTS, minlength=len(FLAGS))
    return {"l_returnflag": FLAGS[counts > 0], "parts": counts[counts > 0]}


# name -> (statement template, constant sampler(rng) -> tuple, floor, ordered)
# ``ordered`` results compare row by row; unordered group-bys compare after
# sorting on their first (key) column.
TEMPLATES: Dict[str, Tuple[str, Callable, Callable, bool]] = {
    "count_filter": (
        "SELECT COUNT(*) AS n FROM lineitem "
        "WHERE l_quantity < {0} AND l_discount > {1:.3f}",
        lambda r: (int(r.integers(20, 30)), r.integers(3, 7) / 100 + 0.005),
        _count_filter, True),
    "q1": (
        "SELECT l_returnflag, SUM(l_quantity) AS sum_qty, "
        "SUM(l_price) AS sum_price, AVG(l_discount) AS avg_disc, "
        "COUNT(*) AS n FROM lineitem WHERE l_shipdate <= {0} "
        "GROUP BY l_returnflag ORDER BY l_returnflag",
        lambda r: (int(r.integers(2300, 2450)),),
        _q1, True),
    "q6": (
        "SELECT SUM(l_price * l_discount) AS revenue FROM lineitem "
        "WHERE l_shipdate >= {0} AND l_shipdate < {0} + 365 "
        "AND l_discount >= {1:.3f} AND l_discount <= {2:.3f} "
        "AND l_quantity < {3}",
        lambda r: _q6_constants(r),
        _q6, True),
    "join_group": (
        "SELECT c.c_nation, SUM(l.l_price) AS revenue, COUNT(*) AS n "
        "FROM lineitem l JOIN customer c ON l.l_custkey = c.c_custkey "
        "WHERE l.l_shipdate < {0} GROUP BY c.c_nation ORDER BY c.c_nation",
        lambda r: (int(r.integers(700, 800)),),
        _join_group, True),
    "topn": (
        "SELECT l_orderkey, l_price FROM lineitem WHERE l_quantity > {0} "
        "ORDER BY l_price DESC LIMIT 10",
        lambda r: (int(r.integers(35, 45)),),
        _topn, True),
    "high_card_group": (
        "SELECT l_custkey, SUM(l_quantity) AS sum_qty FROM lineitem "
        "WHERE l_shipdate < {0} GROUP BY l_custkey",
        lambda r: (int(r.integers(1800, 2000)),),
        _high_card_group, False),
    "count_distinct": (
        "SELECT l_returnflag, COUNT(DISTINCT l_partkey) AS parts "
        "FROM lineitem WHERE l_shipdate < {0} GROUP BY l_returnflag",
        lambda r: (int(r.integers(1100, 1300)),),
        _count_distinct, False),
}


def make_statements(seed: int) -> Dict[str, List[Tuple[str, tuple]]]:
    """``VARIANTS`` seeded (statement, constants) pairs per template."""
    rng = np.random.default_rng(seed + 1)
    out = {}
    for name, (sql, sample, _, _) in TEMPLATES.items():
        variants = []
        for _ in range(VARIANTS):
            consts = sample(rng)
            variants.append((sql.format(*consts), consts))
        out[name] = variants
    return out


def floor(data: Data, template: str, consts: tuple):
    return TEMPLATES[template][2](data, *consts)


def _columns(result) -> Dict[str, np.ndarray]:
    return {name: np.asarray(result.column(name)) for name in result.column_names}


def matches(template: str, result, expected) -> bool:
    """Compare an engine result with its floor's output.

    Integers and strings compare exactly. Float sums may accumulate in
    another order and the engine stores float32, so floats compare with a
    relative tolerance of 1e-5.
    """
    cols = _columns(result)
    if not isinstance(expected, dict):
        if len(cols) != 1:
            return False
        (values,) = cols.values()
        if values.shape != (1,):
            return False
        return _equal(values, np.asarray([expected]))
    if list(cols) != list(expected):
        return False
    if not TEMPLATES[template][3]:
        key = next(iter(cols))
        order = np.argsort(cols[key], kind="stable")
        cols = {name: values[order] for name, values in cols.items()}
    return all(_equal(cols[name], np.asarray(expected[name])) for name in cols)


def _equal(got: np.ndarray, want: np.ndarray) -> bool:
    if got.shape != want.shape:
        return False
    if want.dtype.kind == "f" or got.dtype.kind == "f":
        return bool(np.allclose(got.astype(np.float64), want.astype(np.float64),
                                rtol=1e-5, atol=0.0))
    return bool(np.array_equal(got, want))
