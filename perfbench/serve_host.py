"""Host process for ``serve``: a ``TdpServer`` at its defaults.

    python3 serve_host.py --seed N

Builds the served session (set-up repeated and timed), binds an ephemeral
port and prints ``READY {json}``. Commands arrive one per line on stdin:
``trace on`` / ``trace off`` toggle the UDF spans, ``stats`` prints
``STATS {json}``, ``quit`` stops the server, writes any spans to
``perfbench/out/`` and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.core.server import TdpServer  # noqa: E402

import servesets  # noqa: E402
from common import median, peak_rss_mb, repeated_setup  # noqa: E402
from tracer import Tracer  # noqa: E402


def _emit(tag: str, payload: dict) -> None:
    print(f"{tag} {json.dumps(payload)}", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed
    corpus = servesets.Corpus(seed)
    statements = servesets.Statements(seed, corpus)
    tracer = Tracer()
    probe = servesets.UdfProbe(tracer)
    register_seconds = []

    def setup():
        start = time.perf_counter()
        session, _ = servesets.setup_session(corpus, probe, statements,
                                             register_seconds)
        return session, time.perf_counter() - start

    session, setup_s = repeated_setup(setup)
    probe.calls = 0
    asyncio.run(_serve(session, tracer, probe, seed, {
        "setup_s": setup_s, "register_ms": median(register_seconds) * 1e3,
        "registers": len(register_seconds)}))


async def _serve(session, tracer, probe, seed, setup) -> None:
    server = TdpServer(session)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def commands() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.enabled = True
            elif command == "trace off":
                tracer.enabled = False
            elif command == "stats":
                spans = tracer.self_seconds()
                _emit("STATS", {"udf_calls": probe.calls, "peak_rss_mb": peak_rss_mb(),
                                "self_s": spans, **setup})
            elif command == "quit":
                break
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=commands, daemon=True).start()
    _emit("READY", {"port": server.port, **setup})
    await stop.wait()
    await server.stop()
    if tracer.spans:
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, f"spans-serve-host-{seed}.json"))


if __name__ == "__main__":
    main()
