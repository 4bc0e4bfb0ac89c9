"""``train``: in-process trainable queries, LLP and batched MNIST-grid steps.

Each round runs ``LLP_PER_ROUND`` LLP steps (Listing 9, bag-wise Adam) and
one batched grid step. Every step registers a fresh table, runs the
trainable query, then calls ``backward()`` and ``step()``. The forward
output of every step is checked against a numpy forward with the same
parameters, and each app's mean loss over a pass through its batches must
fall over the run.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.apps import llp, mnistgrid
from repro.core.session import Session
from repro.tcr import optim
from repro.tcr.random import manual_seed
from repro.tcr.tensor import Tensor

import trainsets
from common import SETUP_REPEATS, Report, median, peak_rss_mb, repeated_setup
from tracer import Tracer

LLP_PER_ROUND = 9
GRID_BATCH = 8
PHASES = ("register", "forward", "backward", "step")


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _linear(x, weight, bias):
    return x @ weight.T + bias


def _conv3x3(x, weight, bias):
    windows = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))),
                                  (3, 3), axis=(2, 3))
    out = np.tensordot(windows, weight, axes=([1, 4, 5], [1, 2, 3]))
    return out.transpose(0, 3, 1, 2) + bias[None, :, None, None]


def _pool2(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def _cnn(params: List[np.ndarray], x: np.ndarray) -> np.ndarray:
    c1w, c1b, c2w, c2b, l1w, l1b, l2w, l2b = params
    h = _pool2(np.maximum(_conv3x3(x, c1w, c1b), 0))
    h = _pool2(np.maximum(_conv3x3(h, c2w, c2b), 0))
    h = np.maximum(_linear(h.reshape(len(h), -1), l1w, l1b), 0)
    return _linear(h, l2w, l2b)


def llp_forward(app, features: np.ndarray) -> np.ndarray:
    weight, bias = (p.data for p in app.model.parameters())
    return _softmax(_linear(features, weight, bias)).sum(axis=0)


def grid_forward(app, grids: np.ndarray) -> np.ndarray:
    b = len(grids)
    tiles = grids.reshape(b, 3, 28, 3, 28).transpose(0, 1, 3, 2, 4)
    tiles = tiles.reshape(b * 9, 1, 28, 28)
    digit = _softmax(_cnn([p.data for p in app.digit_parser.parameters()], tiles))
    size = _softmax(_cnn([p.data for p in app.size_parser.parameters()], tiles))
    joint = digit[:, :, None] * size[:, None, :]           # (9b, 10, 2)
    return joint.reshape(b, 9, 20).sum(axis=1).reshape(-1)


class _App:
    """One trainable query with its data, optimizer and the step oracle."""

    def __init__(self, name, app, optimizer, register, batches, oracle):
        self.name = name
        self.app = app
        self.optimizer = optimizer
        self.register = register
        self.batches = batches
        self.oracle = oracle
        self.losses: List[float] = []
        self.phase_s: Dict[str, List[float]] = {p: [] for p in PHASES}
        self.step_ms: List[float] = []


def _setup(seed, bags, grids, counts):
    manual_seed(seed)
    session = Session()
    start = time.perf_counter()
    llp_app = llp.build_app(session, trainsets.FEATURES)
    grid_app = mnistgrid.build_batched_app(session, batch_size=GRID_BATCH)
    apps = [
        _App("llp", llp_app, optim.Adam(llp_app.query.parameters(), lr=0.05),
             lambda x: session.sql.register_tensor(Tensor(x), llp.BAG_TABLE),
             bags, llp_forward),
        _App("grid", grid_app, optim.Adam(grid_app.query.parameters(), lr=1e-3),
             lambda x: session.sql.register_tensor(Tensor(x), mnistgrid.GRID_TABLE),
             [(grids[i:i + GRID_BATCH], counts[i:i + GRID_BATCH].reshape(-1))
              for i in range(0, len(grids), GRID_BATCH)],
             grid_forward),
    ]
    # Warm each trainable query once on its first batch (no training step).
    for app in apps:
        app.register(app.batches[0][0])
        app.app.query.run()
    return apps, time.perf_counter() - start


def _step(app: _App, index: int, tracer: Tracer, report: Report) -> None:
    inputs, target = app.batches[index % len(app.batches)]
    seconds = {}
    start = time.perf_counter()
    with tracer.span("storage", request=index):
        app.register(inputs)
    seconds["register"] = time.perf_counter() - start
    start = time.perf_counter()
    with tracer.span("trainable_query", request=index):
        app.optimizer.zero_grad()
        predicted = app.app.query.run()
        loss = ((predicted - Tensor(target)) ** 2).mean()
    seconds["forward"] = time.perf_counter() - start
    # Untimed oracle, before step() moves the parameters.
    report.attempted += 1
    if not np.allclose(predicted.data, app.oracle(app.app, inputs),
                       rtol=1e-4, atol=1e-5):
        report.mismatch(f"{app.name} forward differs from numpy at step {index}")
    start = time.perf_counter()
    with tracer.span("autograd", request=index):
        loss.backward()
    seconds["backward"] = time.perf_counter() - start
    start = time.perf_counter()
    with tracer.span("optim", request=index):
        app.optimizer.step()
    seconds["step"] = time.perf_counter() - start
    for phase in PHASES:
        app.phase_s[phase].append(seconds[phase])
    app.step_ms.append(sum(seconds.values()) * 1e3)
    app.losses.append(loss.item())


def _loop(apps, seconds, tracer, report):
    """Rounds of LLP_PER_ROUND LLP steps and one grid step for ``seconds``.

    Returns (steps, busy seconds): the oracle is not part of a step's time.
    """
    llp_app, grid_app = apps
    done = [len(app.step_ms) for app in apps]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in range(LLP_PER_ROUND):
            _step(llp_app, len(llp_app.losses), tracer, report)
        _step(grid_app, len(grid_app.losses), tracer, report)
    new = [app.step_ms[n:] for app, n in zip(apps, done)]
    return sum(map(len, new)), sum(map(sum, new)) / 1e3


def run(report: Report, seed: int, seconds: float) -> Optional[Tracer]:
    bags = trainsets.make_bags(seed)
    grids, counts = trainsets.make_grids(seed)
    apps, setup_s = repeated_setup(lambda: _setup(seed, bags, grids, counts))
    tracer = Tracer(enabled=False)
    if report.trace:
        steps, busy = _loop(apps, seconds / 2, tracer, report)
        untraced = steps / busy
        for app in apps:
            app.phase_s = {p: [] for p in PHASES}
        tracer.enabled = True
        steps, busy = _loop(apps, seconds / 2, tracer, report)
        traced = steps / busy
        report.add("trace.overhead", traced / untraced, "ratio", steps)
        for app in apps:
            for phase in PHASES:
                values = app.phase_s[phase]
                report.add(f"train.{app.name}.{phase}_ms", median(values) * 1e3,
                           "ms", len(values))
        registers = apps[0].phase_s["register"] + apps[1].phase_s["register"]
        report.add("storage.register_ms", median(registers) * 1e3, "ms",
                   len(registers))
        for layer, spent in tracer.self_seconds().items():
            report.add(f"self_ms.{layer}", spent / steps * 1e3, "ms", steps)
    else:
        steps, busy = _loop(apps, seconds, tracer, report)
        step_ms = apps[0].step_ms + apps[1].step_ms
        report.add("setup_s", setup_s, "s", SETUP_REPEATS)
        report.add("peak_rss_mb", peak_rss_mb(), "MB")
        report.add("throughput_qps", steps / busy, "1/s", steps,
                   f"{LLP_PER_ROUND} LLP steps (bag {trainsets.BAG_SIZE}) "
                   f"per grid step (batch {GRID_BATCH})")
        report.latency("latency", step_ms)
    for app in apps:
        busy_s = sum(app.step_ms) / 1e3
        report.add(f"{app.name}_steps_per_s", len(app.step_ms) / busy_s, "1/s",
                   len(app.step_ms))
        # Mean loss over the last full pass through the batches must be
        # below that over the first pass: both passes see the same batches.
        n = len(app.batches)
        report.attempted += 1
        if len(app.losses) < 2 * n:
            report.mismatch(f"{app.name}: {len(app.losses)} steps, fewer than "
                            f"two passes over {n} batches")
            continue
        first, last = np.mean(app.losses[:n]), np.mean(app.losses[-n:])
        report.notes.append(f"{app.name}: mean loss {first:.4f} over the first "
                            f"pass of {n} batches, {last:.4f} over the last")
        if not last < first:
            report.mismatch(f"{app.name} loss did not fall: {first} -> {last}")
    return tracer if report.trace else None
