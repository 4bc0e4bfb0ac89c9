"""Benchmark entry point.

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the engine is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is non-zero when any output
disagrees with its oracle or the engine cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytics", "serve", "train")


def _import_engine() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    return True


def _declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_engine():
        print(f"engine sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    from common import Report
    report = Report(args.workload, args.seed, bool(args.trace))
    if args.workload == "analytics":
        import analytics
        tracer = analytics.run(report, args.seed, args.seconds)
    elif args.workload == "serve":
        import serve
        tracer = serve.run(report, args.seed, args.seconds)
    else:
        import train
        tracer = train.run(report, args.seed, args.seconds)

    end_to_end, per_layer = _declared_metrics()
    declared = per_layer if args.trace else end_to_end
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in report.metrics:
            # A layer this workload does not cross did no work in it.
            report.add(name, 0.0, spec["unit"], 0, "layer not crossed")
        metrics[name] = {"value": report.metrics[name][0], "unit": spec["unit"]}
    report.print_human()
    if tracer is not None:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, f"spans-{args.workload}-{args.seed}.json"))
    correct = report.failed == 0 and report.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(report.attempted, 1),
                      "failed": report.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
