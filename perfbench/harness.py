"""Shared pieces of the benchmark: workloads, inputs, statistics, reporting.

The benchmark drives the system through the ``repro`` package's public
API (only the traced run also rebinds a few module attributes, see
``tracing.py``).  This module also owns the process plumbing (build
directory, child environment, peak-RSS reads) that the workload modules
share.
"""

from __future__ import annotations

import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes (native object cache, traces, logs)
#: lives here, inside the checkout and ignored by git.
BUILD = ROOT / ".bench_build"
NATIVE_CACHE = BUILD / "native"
OUT = BUILD / "perfbench"

#: Samples a percentile needs so that p90 has at least ten beyond it.
MIN_SAMPLES = 100
#: Process start-ups per run behind the reported ``setup_s`` median.
SETUP_REPEATS = 7
#: Distinct seeded scenes each run cycles through.
POOL = 16
#: PSNR reported for outputs identical to the reference (MSE 0).
PSNR_CAP_DB = 100.0


def _metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of one metric list in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


#: End-to-end metric -> unit (``--trace 0``).
E2E_UNITS = _metric_units("end_to_end")
#: Per-layer metric -> unit (``--trace 1``).
LAYER_UNITS = _metric_units("per_layer")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an engine geometry and how it is driven."""

    name: str
    resolution: int
    window: int
    threshold: int
    #: Frames (or requests per connection) run before timing starts.
    warmup: int
    #: ``"inproc"`` runs ``CompressedEngine`` in this process; ``"serve"``
    #: drives a ``repro serve`` gateway process over HTTP.
    mode: str

    def config(self):  # -> repro.ArchitectureConfig
        """The architecture every frame of this workload runs with."""
        from repro import ArchitectureConfig

        return ArchitectureConfig(
            image_width=self.resolution,
            image_height=self.resolution,
            window_size=self.window,
            threshold=self.threshold,
        )

    @property
    def megapixels(self) -> float:
        """Input megapixels per frame."""
        return self.resolution * self.resolution / 1e6


# Window sizes are powers of two so a summed-area-table box filter stays
# bit-identical to the direct one.  Every engine runs recirculate=True
# (the engine default); on the lossy workload that forces the sequential
# per-traversal loop, on the lossless ones the frame-at-once fast path.
# ``lossy-recirculate`` is not in BENCHMARK.json: its host times move
# with the host's load by more than a bound allows (README.md), so it is
# run by name to measure the per-band path.
WORKLOADS: dict[str, Workload] = {
    "lossless-frame": Workload("lossless-frame", 512, 16, 0, 3, "inproc"),
    "lossy-recirculate": Workload("lossy-recirculate", 128, 16, 4, 3, "inproc"),
    "serve-lossless": Workload("serve-lossless", 128, 8, 0, 10, "serve"),
}

#: Tiny geometries of the same three workloads for the self-test.
SMOKE: dict[str, Workload] = {
    "lossless-frame": Workload("lossless-frame", 64, 8, 0, 1, "inproc"),
    "lossy-recirculate": Workload("lossy-recirculate", 32, 8, 4, 1, "inproc"),
    "serve-lossless": Workload("serve-lossless", 64, 8, 0, 2, "serve"),
}


def prepare_environment() -> None:
    """Point imports and the native object cache into the checkout.

    Child processes (setup probes, the gateway and its workers) inherit
    the same environment, so they load the object this process built.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scene_seeds(seed: int) -> list[int]:
    """Scene seeds of one run: ``POOL`` consecutive seeds per run seed."""
    return [seed * POOL + i for i in range(POOL)]


def scene_pool(wl: Workload, seed: int) -> list:
    """The run's input frames (``int64``), generated from ``seed`` only."""
    import numpy as np
    from repro.imaging import generate_scene

    return [
        generate_scene(s, wl.resolution).astype(np.int64)
        for s in scene_seeds(seed)
    ]


def nearest_rank(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of the raw samples."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    """Median of ``values`` (``0.0`` when there are none)."""
    return statistics.median(values) if values else 0.0


def psnr_db(mse: float) -> float:
    """PSNR of 8-bit outputs for ``mse``, capped for identical outputs."""
    if mse <= 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(255.0 * 255.0 / mse))


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> value; units come from the tables above.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Provenance details the workload module adds (sample counts, ...).
    details: dict[str, object] = field(default_factory=dict)
    #: Human-readable lines printed above the result.
    notes: list[str] = field(default_factory=list)
    #: Spans of a traced run (``tracing.Span``), written to the trace file.
    spans: list = field(default_factory=list)

    def record(self, ok: bool) -> None:
        """Count one attempted frame or request."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def failed_pct(self) -> float:
        """Share of attempted operations that failed, in percent."""
        return 100.0 * self.failed / max(self.attempted, 1)


def _git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.splitlines()
    # Only trust git when the checkout itself is the work tree; a parent
    # directory's repository says nothing about these files.
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(wl: Workload, seed: int, codec: str, smoke: bool) -> dict:
    """Commit, machine fingerprint and inputs behind one result."""
    import numpy as np

    return {
        "commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "codec_tier": codec,
        "workload": wl.name,
        "geometry": {
            "resolution": wl.resolution,
            "window": wl.window,
            "threshold": wl.threshold,
        },
        "smoke": smoke,
        "seed": seed,
        "scene_seeds": scene_seeds(seed),
    }


def emit(outcome: Outcome, prov: dict, trace: bool) -> bool:
    """Print the run's report; the last line is the result object.

    Returns whether the run is correct (every operation checked out).
    """
    units = LAYER_UNITS if trace else E2E_UNITS
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    for line in outcome.notes:
        print(line)
    for name, unit in units.items():
        print(f"  {name:34s} {outcome.metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_pct':34s} {outcome.failed_pct:>14.6g} %")
    print("provenance " + json.dumps({**prov, **outcome.details}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return correct


# -- process plumbing ------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment for processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The next stdout line of ``proc``; raises if none comes in time."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise RuntimeError(
            f"{proc.args[1:3]} printed nothing within {timeout:g}s "
            f"(exit code {proc.poll()})"
        )
    return line


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host so far, ``(0, 0)`` if unknown.

    Steal is time the hypervisor ran something else while this machine
    wanted the CPU; the run records its share as a noise diagnostic.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def _proc_stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError:
        return None
    # Fields after the parenthesised command name (which may hold spaces).
    return raw[raw.rindex(")") + 2 :].split()


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie counts as ended)."""
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` in the process tree."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _proc_stat(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found: list[int] = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def peak_rss_mb(pids: list[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
