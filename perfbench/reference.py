"""Reference outputs the benchmark checks every frame against.

- Lossless workloads must equal ``TraditionalEngine`` exactly.
- ``lossy-recirculate`` must match the sha256 digests checked in beside
  this file (``digests.json``) for the seeds they cover.  For any other
  seed the reference is a replay of the recirculating datapath built
  from the per-band public functions (``golden_apply``,
  ``analyze_band``, ``BandAnalysis.reconstruct``), independent of the
  engine's own loop.

Regenerate the digests (after an intended change of lossy outputs)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json

import harness

DIGESTS = harness.HERE / "digests.json"
SCHEMA = "perfbench-digests/1"
#: Run seeds ``0..SEEDS-1`` the table covers at the measured geometry.
SEEDS = 32
#: Run seeds the table covers at the self-test's tiny geometry.
SMOKE_SEEDS = 4


def digest(outputs) -> str:
    """sha256 of an output map's shape and little-endian float64 bytes."""
    import numpy as np

    data = np.ascontiguousarray(outputs, dtype="<f8")
    h = hashlib.sha256(repr(data.shape).encode())
    h.update(data.tobytes())
    return h.hexdigest()


def geometry_key(wl: harness.Workload) -> str:
    """Digest-table key of a workload geometry."""
    return f"{wl.resolution}x{wl.resolution}/N{wl.window}/T{wl.threshold}"


def replay_recirculate(cfg, kernel, frame):
    """Kernel outputs of the recirculating compressed line buffer.

    Traversal ``y`` applies the kernel to the band the hardware presents:
    rows reconstructed on the previous traversal plus the raw new row.
    """
    import numpy as np
    from repro import analyze_band
    from repro.core.window import golden_apply

    n, h = cfg.window_size, cfg.image_height
    state = frame[:n].copy()
    rows = []
    for y in range(n - 1, h):
        rows.append(golden_apply(state, n, kernel)[0])
        if y + 1 < h:
            decoded = analyze_band(cfg, state).reconstruct()
            state = np.vstack([decoded[1:], frame[y + 1 : y + 2]])
    return np.vstack(rows)


def load_table() -> dict[str, dict[str, str]]:
    """The checked-in digest table, by geometry key then scene seed."""
    doc = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{DIGESTS}: expected schema {SCHEMA!r}")
    return doc["geometries"]


def expected_digests(
    wl: harness.Workload, cfg, kernel, seed: int, frames, traditional
) -> tuple[list[str], str]:
    """Expected output digest per pool frame, plus where they came from.

    ``traditional`` holds ``TraditionalEngine`` outputs of ``frames``.
    """
    if wl.threshold == 0:
        return [digest(t) for t in traditional], "traditional"
    table = load_table().get(geometry_key(wl), {})
    seeds = [str(s) for s in harness.scene_seeds(seed)]
    if all(s in table for s in seeds):
        return [table[s] for s in seeds], "digests"
    return [digest(replay_recirculate(cfg, kernel, f)) for f in frames], "replay"


def main() -> None:
    harness.prepare_environment()
    from repro import CompressedEngine
    from repro.kernels import BoxFilterKernel

    geometries: dict[str, dict[str, str]] = {}
    for workloads, n_seeds in ((harness.WORKLOADS, SEEDS), (harness.SMOKE, SMOKE_SEEDS)):
        wl = workloads["lossy-recirculate"]
        cfg, kernel = wl.config(), BoxFilterKernel(wl.window)
        engine = CompressedEngine(cfg, kernel)
        table: dict[str, str] = {}
        for seed in range(n_seeds):
            frames = harness.scene_pool(wl, seed)
            for scene, frame in zip(harness.scene_seeds(seed), frames):
                want = digest(replay_recirculate(cfg, kernel, frame))
                if digest(engine.run(frame).outputs) != want:
                    raise SystemExit(f"engine disagrees with replay on scene {scene}")
                table[str(scene)] = want
        geometries[geometry_key(wl)] = table
    doc = {"schema": SCHEMA, "geometries": geometries}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, geometries.values()))} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
