"""In-process workloads: ``CompressedEngine.run`` on seeded frames.

One engine runs closed loop on the run's frame pool for ``--seconds``
(and at least ``MIN_SAMPLES`` timed frames).  Every output is checked
against its reference digest outside the timed call.  In a traced run
every other timed frame runs with the engine's collaborators rebound to
span-recording wrappers; the untraced frames in between give the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import harness
import reference
from tracing import ENGINE_TARGETS, Tracer

#: Span names whose per-frame time becomes a layer metric.
LAYER_SPANS = {
    "kernels.apply_image": "kernels.apply_image_ms",
    "core.stats.band_stack_sizes": "core.stats.band_stack_sizes_ms",
    "core.stats.analyze_band": "core.stats.analyze_band_ms",
    "core.stats.reconstruct": "core.stats.reconstruct_ms",
    "core.stats.occupancy": "core.stats.occupancy_ms",
}
ROOT_SPAN = "core.window.run"


@dataclass(frozen=True)
class FrameFacts:
    """Deterministic facts of one pool frame's run."""

    mse: float
    saving_pct: float
    traversals: int
    total_bits: int


def setup_probes(wl: harness.Workload, frame) -> tuple[list[float], list[float]]:
    """Cold-start ``SETUP_REPEATS`` fresh processes; (setup_s, native_load_s)."""
    import numpy as np

    path = harness.OUT / f"setup-frame-{os.getpid()}.npy"
    np.save(path, frame)
    setups: list[float] = []
    loads: list[float] = []
    cmd = [
        sys.executable,
        str(harness.HERE / "setup_probe.py"),
        "--resolution", str(wl.resolution),
        "--window", str(wl.window),
        "--threshold", str(wl.threshold),
        "--frame", str(path),
    ]
    try:
        for _ in range(harness.SETUP_REPEATS):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, text=True, env=harness.child_env()
            )
            try:
                line = harness.read_line(proc, timeout=120)
                setups.append(time.perf_counter() - t0)
            finally:
                proc.stdout.close()
                if proc.wait(timeout=60) != 0:
                    raise RuntimeError(f"setup probe exited {proc.returncode}")
            loads.append(json.loads(line)["native_load_s"])
    finally:
        Path(path).unlink(missing_ok=True)
    return setups, loads


def run(wl: harness.Workload, seed: int, seconds: float, trace: bool) -> harness.Outcome:
    """Measure one in-process workload run."""
    import numpy as np
    from repro import CompressedEngine, TraditionalEngine
    from repro.kernels import BoxFilterKernel

    cfg, kernel = wl.config(), BoxFilterKernel(wl.window)
    frames = harness.scene_pool(wl, seed)
    traditional = [TraditionalEngine(cfg, kernel).run(f).outputs for f in frames]
    expected, source = reference.expected_digests(
        wl, cfg, kernel, seed, frames, traditional
    )
    setups, loads = setup_probes(wl, frames[0])

    engine = CompressedEngine(cfg, kernel)
    tracer = Tracer() if trace else None
    out = harness.Outcome()
    facts: dict[int, FrameFacts] = {}
    plain: list[float] = []
    traced: list[float] = []
    started = 0.0
    i = 0
    while True:
        k = i % len(frames)
        warm = i < wl.warmup
        if not warm and not started:
            started = time.perf_counter()
        timed = len(plain) + len(traced)
        with_trace = tracer is not None and not warm and timed % 2 == 1
        if with_trace:
            tracer.op_id.set(i)
            tracer.install(ENGINE_TARGETS)
            try:
                t0 = time.perf_counter()
                result = tracer.call(ROOT_SPAN, engine.run, frames[k])
                t1 = time.perf_counter()
            finally:
                tracer.unpatch()
        else:
            t0 = time.perf_counter()
            result = engine.run(frames[k])
            t1 = time.perf_counter()
        out.record(reference.digest(result.outputs) == expected[k])
        if k not in facts:
            err = result.outputs - traditional[k]
            facts[k] = FrameFacts(
                mse=float(np.mean(err * err)),
                saving_pct=result.stats.memory_saving_percent,
                traversals=len(result.stats.band_total_bits),
                total_bits=int(sum(result.stats.band_total_bits)),
            )
        if not warm:
            (traced if with_trace else plain).append(t1 - t0)
        i += 1
        elapsed = time.perf_counter() - started
        if (
            not warm
            and len(plain) + len(traced) >= harness.MIN_SAMPLES
            and elapsed >= seconds
        ):
            break

    pool = [facts[k] for k in sorted(facts)]
    out.details.update(
        reference=source,
        frames_timed=len(plain) + len(traced),
        percentile_samples=len(plain),
        setup_samples=len(setups),
    )
    out.notes.append(
        f"{wl.name}: {len(plain)} untraced frames, {len(traced)} traced, "
        f"{wl.warmup} warm-up; references from {source}"
    )
    if tracer is None:
        out.metrics.update(
            {
                "latency_ms.p50": 1e3 * harness.nearest_rank(plain, 50),
                "latency_ms.p90": 1e3 * harness.nearest_rank(plain, 90),
                "throughput_mpx_s": len(plain) * wl.megapixels / elapsed,
                "setup_s": harness.median(setups),
                "peak_rss_mb": harness.peak_rss_mb([os.getpid()]),
                "buffer_saving_pct": sum(f.saving_pct for f in pool) / len(pool),
                "output_psnr_db": harness.psnr_db(
                    sum(f.mse for f in pool) / len(pool)
                ),
                "success_pct": 100.0 - out.failed_pct,
            }
        )
        return out

    overhead = harness.median(traced) / harness.median(plain) - 1.0
    out.details["trace_overhead_pct"] = 100.0 * overhead
    out.notes.append(
        f"trace overhead: {100.0 * overhead:+.2f}% on the median frame "
        f"({len(traced)} traced vs {len(plain)} untraced frames)"
    )
    out.spans = tracer.spans
    out.metrics.update(layer_metrics(tracer.spans))
    out.metrics.update(
        {
            "core.window.traversals": harness.median([f.traversals for f in pool]),
            "core.packing.payload_bits": sum(f.total_bits for f in pool),
            "core.packing.native_load_s": harness.median(loads),
        }
    )
    for name in harness.LAYER_UNITS:
        out.metrics.setdefault(name, 0.0)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-frame medians of layer time and of the engine's own time."""
    per_frame: dict[int, dict[str, float]] = {}
    roots: dict[int, tuple[int, float]] = {}
    for s in spans:
        if s.name == ROOT_SPAN:
            roots[s.op_id] = (s.span_id, s.seconds)
    children: dict[int, float] = {op: 0.0 for op in roots}
    for s in spans:
        if s.name == ROOT_SPAN:
            continue
        frame = per_frame.setdefault(s.op_id, {})
        frame[s.name] = frame.get(s.name, 0.0) + s.seconds
        if s.parent == roots[s.op_id][0]:
            children[s.op_id] += s.seconds
    metrics = {
        "core.window.run_ms": 1e3 * harness.median([r for _, r in roots.values()]),
        "core.window.unattributed_ms": 1e3
        * harness.median([roots[op][1] - children[op] for op in roots]),
    }
    for span, metric in LAYER_SPANS.items():
        metrics[metric] = 1e3 * harness.median(
            [per_frame.get(op, {}).get(span, 0.0) for op in roots]
        )
    return metrics
