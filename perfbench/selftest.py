"""Self-test of the benchmark on tiny geometries (about a minute).

    python3 perfbench/selftest.py

Checks that:

- ``BENCHMARK.json`` lists exactly the metrics named below;
- each workload's untraced run prints every end-to-end metric with its
  unit, and its traced run exactly the per-layer metrics plus its
  overhead against the untraced frames;
- a corrupted reference digest makes ``lossy-recirculate`` fail with
  ``failed > 0`` and a non-zero exit code;
- in a directory holding only ``BENCHMARK.json`` and this directory the
  command exits non-zero without printing a result.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness
import reference

#: Workloads ``BENCHMARK.json`` runs; ``lossy-recirculate`` is run by name
#: only (see README.md), and the self-test covers all three.
BENCHMARK_WORKLOADS = ["lossless-frame", "serve-lossless"]
END_TO_END = [
    "latency_ms.p50",
    "latency_ms.p90",
    "throughput_mpx_s",
    "setup_s",
    "peak_rss_mb",
    "buffer_saving_pct",
    "output_psnr_db",
    "success_pct",
]
PER_LAYER = [
    "kernels.apply_image_ms",
    "core.stats.band_stack_sizes_ms",
    "core.stats.analyze_band_ms",
    "core.stats.reconstruct_ms",
    "core.stats.occupancy_ms",
    "core.window.run_ms",
    "core.window.unattributed_ms",
    "core.window.traversals",
    "core.packing.payload_bits",
    "serve.body_parse_ms",
    "serve.payload.decode_ms",
    "serve.cache.resolve_ms",
    "serve.payload.encode_ms",
    "serve.response_render_ms",
    "runtime.roundtrip_ms",
    "serve.unattributed_ms",
    "serve.shed",
    "serve.timeouts",
    "runtime.retries",
    "runtime.inline_degraded",
    "serve.useful_ratio",
    "core.packing.native_load_s",
    "runtime.pool_start_s",
]

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    """Record a failed check without stopping the others."""
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd=harness.ROOT) -> tuple[int, dict | None, str]:
    """Run the benchmark command; (exit code, result object, stdout)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode, result, proc.stdout


def check_spec() -> None:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(
        [m["name"] for m in spec["end_to_end"]] == END_TO_END,
        "BENCHMARK.json end_to_end names the documented metrics",
    )
    check(
        [m["name"] for m in spec["per_layer"]] == PER_LAYER,
        "BENCHMARK.json per_layer names the documented metrics",
    )
    check(
        [w["name"] for w in spec["workloads"]] == BENCHMARK_WORKLOADS,
        "BENCHMARK.json names the measured workloads",
    )


def check_workload(name: str) -> None:
    smoke = ("--seed", "0", "--seconds", "1", "--smoke")
    code, result, _ = bench("--workload", name, "--trace", "0", *smoke)
    check(code == 0 and result is not None and result["correct"], f"{name}: untraced run is correct")
    if result is None:
        return
    metrics = result["metrics"]
    check(
        list(metrics) == END_TO_END and all(v["unit"] for v in metrics.values()),
        f"{name}: every end-to-end metric printed with its unit",
    )
    check(
        all(v["value"] > 0 for v in metrics.values()),
        f"{name}: no end-to-end metric reads 0",
    )
    code, result, stdout = bench("--workload", name, "--trace", "1", *smoke)
    check(code == 0 and result is not None and result["correct"], f"{name}: traced run is correct")
    check(
        result is not None
        and list(result["metrics"]) == PER_LAYER
        and all(v["unit"] for v in result["metrics"].values()),
        f"{name}: traced run prints exactly the per-layer metrics, with units",
    )
    check("trace overhead:" in stdout, f"{name}: traced run states its overhead")


def copy_benchmark(dest) -> None:
    """Put ``BENCHMARK.json`` and a copy of this directory under ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(
        harness.HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(harness.ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def check_corrupt_digest() -> None:
    # A copy of the benchmark next to the package sources, with one
    # reference digest of the run's first scene overwritten.
    copy = harness.OUT / "corrupt"
    copy_benchmark(copy)
    (copy / "src").symlink_to(harness.SRC, target_is_directory=True)
    digests = copy / "perfbench" / reference.DIGESTS.name
    doc = json.loads(digests.read_text(encoding="utf-8"))
    wl = harness.SMOKE["lossy-recirculate"]
    doc["geometries"][reference.geometry_key(wl)][str(harness.scene_seeds(0)[0])] = "0" * 64
    digests.write_text(json.dumps(doc), encoding="utf-8")
    code, result, _ = bench(
        "--workload", "lossy-recirculate", "--seed", "0", "--seconds", "1",
        "--trace", "0", "--smoke",
        cwd=copy,
    )
    shutil.rmtree(copy)
    check(code != 0, "corrupted digest: non-zero exit")
    check(
        result is not None
        and not result["correct"]
        and result["failed"] > 0
        and result["metrics"]["success_pct"]["value"] < 100.0,
        "corrupted digest: failed > 0 and success_pct < 100",
    )


def check_bare_directory() -> None:
    bare = harness.OUT / "bare"
    copy_benchmark(bare)
    code, result, _ = bench(
        "--workload", "lossless-frame", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=bare,
    )
    shutil.rmtree(bare)
    check(code != 0 and result is None, "without sources: non-zero exit, no result")


def main() -> int:
    harness.OUT.mkdir(parents=True, exist_ok=True)
    check_spec()
    for name in harness.WORKLOADS:
        check_workload(name)
    check_corrupt_digest()
    check_bare_directory()
    print(f"selftest: {len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
