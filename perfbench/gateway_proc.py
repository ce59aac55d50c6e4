"""Gateway process of a traced ``serve-lossless`` run.

Starts the same ``repro serve`` command the untraced run starts, after
rebinding the serve layer's public functions to span-recording wrappers
(see ``tracing.SERVE_TARGETS``) plus ``FrameBridge.process``, the
gateway's hop into the streaming runtime.  Each span carries the
``X-Request-Id`` header of its request.  On SIGINT the gateway shuts
down as usual and the spans are written to ``--trace-out``.

    python3 perfbench/gateway_proc.py --trace-out spans.json serve --port 0 ...
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import harness
from tracing import SERVE_TARGETS, Tracer, write_spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", type=Path, required=True)
    args, serve_argv = parser.parse_known_args()
    harness.prepare_environment()

    from repro.core.packing.tiers import resolve_codec

    tracer = Tracer()
    # The gateway resolves the codec tier first thing on start; doing it
    # here instead times that first (object-loading) resolve.
    t0 = time.perf_counter()
    resolve_codec("auto")
    tracer.record("core.packing.native_load", t0, time.perf_counter())

    from repro.cli import main as repro_main
    from repro.serve.bridge import FrameBridge
    from repro.serve.http import HttpRequest

    parse = HttpRequest.json

    def parse_with_id(self: HttpRequest) -> dict[str, object]:
        # Body parsing is the first call of a frame request: tag the
        # request's context with its id before any span is recorded.
        tracer.op_id.set(int(self.headers.get("x-request-id", "-1")))
        return parse(self)

    tracer.patch(HttpRequest, "json", parse_with_id)
    tracer.install(SERVE_TARGETS)
    process = FrameBridge.process

    async def traced_process(self: FrameBridge, frame, *, spec=None):
        start = time.perf_counter()
        outcome = await process(self, frame, spec=spec)
        tracer.record(
            "runtime.roundtrip",
            start,
            time.perf_counter(),
            worker_seconds=getattr(outcome, "seconds", None),
        )
        return outcome

    tracer.patch(FrameBridge, "process", traced_process)
    try:
        return repro_main(serve_argv)
    finally:
        write_spans(args.trace_out, {}, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
