"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload lossless-frame --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-lossless --seed 0 --seconds 10 --trace 1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is the
separate traced run and prints every per-layer metric, writing its spans
to ``.bench_build/perfbench/``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every frame or request checked out; without the
package sources next to this directory the run exits 2 before measuring.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

import harness
from tracing import write_spans


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny geometry (self-test)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {harness.SRC}", file=sys.stderr)
        return 2
    harness.prepare_environment()
    cores = len(os.sched_getaffinity(0))
    from repro.core.packing.tiers import resolve_codec

    # Builds the native object cache on first use, before any timing.
    codec = resolve_codec("auto")
    wl = (harness.SMOKE if args.smoke else harness.WORKLOADS)[args.workload]
    trace = bool(args.trace)
    steal0, total0 = harness.cpu_ticks()
    if wl.mode == "serve":
        import serving

        outcome = serving.run(wl, args.seed, args.seconds, trace)
    else:
        import inproc

        outcome = inproc.run(wl, args.seed, args.seconds, trace)
    steal1, total1 = harness.cpu_ticks()
    prov = harness.provenance(wl, args.seed, codec, args.smoke)
    prov["affinity_cores"] = cores
    prov["cpu_steal_pct"] = 100.0 * (steal1 - steal0) / max(total1 - total0, 1)
    if trace:
        path = harness.OUT / f"trace-{wl.name}-seed{args.seed}.json"
        write_spans(path, {**prov, **outcome.details}, outcome.spans)
        outcome.notes.append(f"spans written to {path}")
    return 0 if harness.emit(outcome, prov, trace) else 1


if __name__ == "__main__":
    sys.exit(main())
