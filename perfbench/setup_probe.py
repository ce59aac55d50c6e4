"""One cold start of an in-process workload, timed by the parent.

Run as a fresh process: import the package, resolve the codec tier
(loading the native object the parent already built), build the engine,
run one frame, then print one JSON line.  The parent's clock from
process launch to that line is ``setup_s``; the line carries the codec
resolve time (``core.packing.native_load_s``).

    python3 perfbench/setup_probe.py --resolution 512 --window 16 \
        --threshold 0 --frame frame.npy
"""

from __future__ import annotations

import argparse
import json
import time

import harness


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, required=True)
    parser.add_argument("--window", type=int, required=True)
    parser.add_argument("--threshold", type=int, required=True)
    parser.add_argument("--frame", required=True, help=".npy input frame")
    args = parser.parse_args()
    harness.prepare_environment()

    import numpy as np
    from repro import ArchitectureConfig, CompressedEngine
    from repro.core.packing.tiers import resolve_codec
    from repro.kernels import BoxFilterKernel

    t0 = time.perf_counter()
    codec = resolve_codec("auto")
    native_load_s = time.perf_counter() - t0
    cfg = ArchitectureConfig(
        image_width=args.resolution,
        image_height=args.resolution,
        window_size=args.window,
        threshold=args.threshold,
    )
    engine = CompressedEngine(cfg, BoxFilterKernel(args.window))
    engine.run(np.load(args.frame))
    print(json.dumps({"native_load_s": native_load_s, "codec": codec}), flush=True)


if __name__ == "__main__":
    main()
