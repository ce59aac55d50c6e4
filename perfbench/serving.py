"""The ``serve-lossless`` workload: a ``repro serve`` gateway over HTTP.

The gateway runs in its own process (one worker) so checking responses
here never competes for its interpreter lock.  One client drives it
closed loop over a keep-alive connection, because ``/v1/frames`` callers
wait for each reply.  A second connection would add queueing inside the
gateway: on a 2-core host that made request p90 swing by about 10 %
between gateway instances, against about 2 % with one connection.  Every request has the same
class: the same explicit lossless ``params`` and one geometry, so the
latency distribution has one mode.  Every 200 body must carry exactly
``encode_array(CompressedEngine.run(frame).outputs)``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import harness
from tracing import load_spans

#: The one request class this workload sends.
PARAMS = {"threshold": 0, "engine": "compressed", "codec": "auto", "recirculate": True}
HOST = "127.0.0.1"
#: Gateway span -> per-layer metric.
SERVE_SPANS = {
    "serve.body_parse": "serve.body_parse_ms",
    "serve.payload.decode": "serve.payload.decode_ms",
    "serve.cache.resolve": "serve.cache.resolve_ms",
    "serve.payload.encode": "serve.payload.encode_ms",
    "serve.response_render": "serve.response_render_ms",
}
_PROM_LINE = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")
_gateway_ids = itertools.count()


@dataclass(frozen=True)
class Reference:
    """Request bodies and the response fields each must come back with."""

    bodies: list[bytes]
    outputs_b64: list[str]
    buffer_bits_peak: list[int]


@dataclass(frozen=True)
class Sample:
    """One request as the client saw it."""

    rid: int
    start: float
    end: float
    ok: bool

    @property
    def seconds(self) -> float:
        """Client-side latency."""
        return self.end - self.start


def post(conn: http.client.HTTPConnection, rid: int, ref: Reference) -> Sample:
    """Send request ``rid`` and check its response."""
    k = rid % len(ref.bodies)
    headers = {"Content-Type": "application/json", "X-Request-Id": str(rid)}
    start = time.perf_counter()
    try:
        conn.request("POST", "/v1/frames", ref.bodies[k], headers)
        resp = conn.getresponse()
        data = resp.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return Sample(rid, start, time.perf_counter(), False)
    end = time.perf_counter()
    if resp.status != 200:
        return Sample(rid, start, end, False)
    doc = json.loads(data)
    ok = (
        doc.get("outputs_b64") == ref.outputs_b64[k]
        and doc.get("stats", {}).get("buffer_bits_peak") == ref.buffer_bits_peak[k]
    )
    return Sample(rid, start, end, ok)


class Gateway:
    """One gateway process, started and warmed on construction."""

    def __init__(self, wl: harness.Workload, trace_out: Path | None) -> None:
        serve = [
            "serve", "--port", "0", "--workers", "1",
            "--resolution", str(wl.resolution),
            "--window", str(wl.window),
            "--threshold", str(wl.threshold),
        ]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            script = str(harness.HERE / "gateway_proc.py")
            cmd = [sys.executable, script, "--trace-out", str(trace_out), *serve]
        self.log_path = harness.OUT / f"gateway-{os.getpid()}-{next(_gateway_ids)}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.tree: list[int] = []
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=harness.child_env(),
            cwd=harness.ROOT,
            start_new_session=True,
        )
        try:
            line = harness.read_line(self.proc, timeout=120)
            match = re.search(r":(\d+) ", line)
            if match is None:
                raise RuntimeError(f"unexpected gateway banner {line!r}")
            self.port = int(match.group(1))
            self._get("/healthz")
            self.pool_start_s = time.perf_counter() - self.t0
        except BaseException:
            self.close()
            raise

    def _get(self, path: str) -> str:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=60)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read().decode()
        finally:
            conn.close()
        if resp.status != 200:
            raise RuntimeError(f"GET {path} answered {resp.status}")
        return body

    def first_frame(self, ref: Reference, out: harness.Outcome) -> float:
        """Serve one checked frame; seconds from process launch to it."""
        conn = http.client.HTTPConnection(HOST, self.port, timeout=60)
        try:
            sample = post(conn, 0, ref)
        finally:
            conn.close()
        out.record(sample.ok)
        return sample.end - self.t0

    def metrics(self) -> list[tuple[str, str, float]]:
        """``/metrics`` as (name, labels, value) series."""
        series = []
        for line in self._get("/metrics").splitlines():
            match = _PROM_LINE.match(line)
            if match:
                series.append((match[1], match[2] or "", float(match[3])))
        return series

    def peak_rss_mb(self) -> float:
        """Peak RSS of the gateway and every process below it."""
        self.tree = [self.proc.pid, *harness.descendants(self.proc.pid)]
        return harness.peak_rss_mb(self.tree)

    def close(self) -> None:
        """Stop the gateway (SIGINT, then SIGKILL) and wait for its tree."""
        if self.proc.poll() is None:
            self.tree = [self.proc.pid, *harness.descendants(self.proc.pid)]
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._kill_group()
                self.proc.wait()
        deadline = time.monotonic() + 10
        while any(harness.alive(p) for p in self.tree):
            if time.monotonic() > deadline:
                self._kill_group()
                deadline = time.monotonic() + 10
            time.sleep(0.02)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        if self.proc.returncode == 0:
            self.log_path.unlink(missing_ok=True)

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def pin_to_one_core() -> int:
    """Pin this process, and the gateway tree it starts, to one core.

    A request is sequential (client, gateway, worker, gateway, client),
    so one core costs it no parallelism.  On a virtual machine a wake-up
    on another, idle vCPU goes through the hypervisor; on a 2-vCPU Xeon
    VM, in contended periods, pinning cut the request p90 from 13-19 ms
    to 11-13 ms.
    """
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def counter(series, name: str, **labels: str) -> float:
    """Sum of every series of ``name`` whose labels include ``labels``."""
    want = [f'{k}="{v}"' for k, v in labels.items()]
    return sum(
        value
        for n, lab, value in series
        if n == name and all(w in lab for w in want)
    )


def drive(
    port: int, ref: Reference, seconds: float, warmup: int
) -> tuple[list[Sample], list[Sample], float]:
    """Closed-loop load on one keep-alive connection.

    Returns (warm-up samples, timed samples, window seconds); the timed
    window lasts ``seconds`` and at least ``MIN_SAMPLES`` requests.
    """
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    ids = itertools.count(1)
    try:
        warm = [post(conn, next(ids), ref) for _ in range(warmup)]
        start = time.perf_counter()
        timed: list[Sample] = []
        while len(timed) < harness.MIN_SAMPLES or timed[-1].end < start + seconds:
            timed.append(post(conn, next(ids), ref))
    finally:
        conn.close()
    return warm, timed, timed[-1].end - start


def reference_for(wl: harness.Workload, frames) -> tuple[Reference, float, float]:
    """Expected responses plus the pool's mean buffer saving and MSE."""
    import numpy as np
    from repro import CompressedEngine, TraditionalEngine
    from repro.kernels import BoxFilterKernel
    from repro.serve import encode_array

    cfg, kernel = wl.config(), BoxFilterKernel(wl.window)
    engine = CompressedEngine(cfg, kernel)
    traditional = TraditionalEngine(cfg, kernel)
    runs = [engine.run(f) for f in frames]
    mses = []
    for frame, run in zip(frames, runs):
        err = run.outputs - traditional.run(frame).outputs
        mses.append(float(np.mean(err * err)))
    ref = Reference(
        bodies=[
            json.dumps({"frame_b64": encode_array(f), "params": PARAMS}).encode()
            for f in frames
        ],
        outputs_b64=[encode_array(r.outputs) for r in runs],
        buffer_bits_peak=[r.stats.buffer_bits_peak for r in runs],
    )
    saving = sum(r.stats.memory_saving_percent for r in runs) / len(runs)
    return ref, saving, sum(mses) / len(mses)


def run(wl: harness.Workload, seed: int, seconds: float, trace: bool) -> harness.Outcome:
    """Measure one serving run (untraced, or traced against an untraced half)."""
    frames = harness.scene_pool(wl, seed)
    ref, saving, mse = reference_for(wl, frames)
    out = harness.Outcome()
    out.details["pinned_core"] = pin_to_one_core()
    # Gateways stop on SIGINT.  A process started with SIGINT ignored (a
    # non-interactive shell's ``&`` does that) would pass the ignored
    # disposition on to them; a handled one is reset to default on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    setups: list[float] = []
    pool_starts: list[float] = []
    gateways: list[Gateway] = []

    def start(trace_out: Path | None) -> Gateway:
        gw = Gateway(wl, trace_out)
        gateways.append(gw)
        setups.append(gw.first_frame(ref, out))
        pool_starts.append(gw.pool_start_s)
        return gw

    try:
        for _ in range(harness.SETUP_REPEATS - 1):
            start(None).close()
        gw = start(None)
        span = seconds / 2 if trace else seconds
        warm, plain, window = drive(gw.port, ref, span, wl.warmup)
        for s in warm + plain:
            out.record(s.ok)
        if not trace:
            rss = gw.peak_rss_mb()
            gw.close()
            lat = [s.seconds for s in plain]
            out.metrics.update(
                {
                    "latency_ms.p50": 1e3 * harness.nearest_rank(lat, 50),
                    "latency_ms.p90": 1e3 * harness.nearest_rank(lat, 90),
                    "throughput_mpx_s": sum(s.ok for s in plain) * wl.megapixels / window,
                    "setup_s": harness.median(setups),
                    "peak_rss_mb": rss,
                    "buffer_saving_pct": saving,
                    "output_psnr_db": harness.psnr_db(mse),
                    "success_pct": 100.0 - out.failed_pct,
                }
            )
            out.details.update(percentile_samples=len(lat), setup_samples=len(setups))
            out.notes.append(
                f"{wl.name}: {len(lat)} timed requests in {window:.2f}s, "
                f"{len(warm)} warm-up"
            )
            return out

        gw.close()
        trace_out = harness.OUT / f"gateway-spans-{os.getpid()}.json"
        tgw = start(trace_out)
        before = tgw.metrics()
        warm, traced, window = drive(tgw.port, ref, span, wl.warmup)
        after = tgw.metrics()
        for s in warm + traced:
            out.record(s.ok)
        tgw.close()
        spans = load_spans(trace_out)
        trace_out.unlink()
    finally:
        for g in gateways:
            g.close()

    overhead = harness.median([s.seconds for s in traced]) / harness.median(
        [s.seconds for s in plain]
    ) - 1.0
    out.details.update(
        trace_overhead_pct=100.0 * overhead,
        percentile_samples=len(traced),
        setup_samples=len(setups),
    )
    out.notes.append(
        f"trace overhead: {100.0 * overhead:+.2f}% on the median request "
        f"({len(traced)} traced vs {len(plain)} untraced requests)"
    )
    out.spans = spans
    out.metrics.update(layer_metrics(traced, spans, before, after))
    out.metrics["runtime.pool_start_s"] = harness.median(pool_starts)
    for name in harness.LAYER_UNITS:
        out.metrics.setdefault(name, 0.0)
    return out


def layer_metrics(samples: list[Sample], spans, before, after) -> dict[str, float]:
    """Per-request medians of each gateway layer, plus ``/metrics`` deltas."""
    by_request: dict[int, dict[str, float]] = {}
    worker: dict[int, float] = {}
    native_load = 0.0
    for s in spans:
        if s.name == "core.packing.native_load":
            native_load = s.seconds
            continue
        layers = by_request.setdefault(s.op_id, {})
        layers[s.name] = layers.get(s.name, 0.0) + s.seconds
        if s.worker_seconds is not None:
            worker[s.op_id] = s.worker_seconds
    rows = [
        (smp, by_request[smp.rid], worker[smp.rid])
        for smp in samples
        if smp.ok and smp.rid in worker
    ]

    def med_ms(values) -> float:
        return 1e3 * harness.median(list(values))

    metrics = {
        metric: med_ms(layers.get(span, 0.0) for _, layers, _ in rows)
        for span, metric in SERVE_SPANS.items()
    }
    metrics["runtime.roundtrip_ms"] = med_ms(
        layers["runtime.roundtrip"] - w for _, layers, w in rows
    )
    metrics["core.window.run_ms"] = med_ms(w for _, _, w in rows)
    metrics["serve.unattributed_ms"] = med_ms(
        smp.seconds - sum(layers.values()) for smp, layers, _ in rows
    )

    def delta(name: str, **labels: str) -> float:
        return counter(after, name, **labels) - counter(before, name, **labels)

    frames = {"route": "POST /v1/frames"}
    attempted = delta("repro_requests_total", **frames)
    kernel_calls = delta("repro_span_seconds_count", span="run/kernel")
    metrics.update(
        {
            "serve.shed": delta("repro_requests_shed_total"),
            "serve.timeouts": delta("repro_request_deadline_exceeded_total"),
            "runtime.retries": delta("repro_frames_retried_total"),
            "runtime.inline_degraded": delta("repro_frames_degraded_total"),
            "serve.useful_ratio": (
                delta("repro_requests_total", status="200", **frames) / attempted
                if attempted
                else 0.0
            ),
            # Worker-side kernel time is not traced here; the mean from the
            # engine's own MetricsProbe spans stands in for it.
            "kernels.apply_image_ms": (
                1e3 * delta("repro_span_seconds_sum", span="run/kernel") / kernel_calls
                if kernel_calls
                else 0.0
            ),
            "core.packing.native_load_s": native_load,
        }
    )
    return metrics
