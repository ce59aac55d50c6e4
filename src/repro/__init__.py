"""repro — compressed line-buffer sliding window architecture.

A production-quality Python reproduction of *"A Modified Sliding Window
Architecture for Efficient BRAM Resource Utilization"* (Qasaimeh,
Zambreno, Jones — IPPS 2017): integer-Haar compression of FPGA sliding
window line buffers, the traditional baseline, cycle-accurate register
models of every hardware block, BRAM/LUT resource models and a complete
benchmark harness regenerating every table and figure of the paper's
evaluation.

Quick start — one :class:`EngineSpec` describes a run, and every
front-end (direct calls, the streaming runtime, the CLI) builds its
engine from it::

    import numpy as np
    from repro import ArchitectureConfig, EngineSpec, make_engine
    from repro.kernels import GaussianKernel
    from repro.imaging import generate_scene

    image = generate_scene(seed=7, resolution=256)
    config = ArchitectureConfig(image_width=256, image_height=256,
                                window_size=32, threshold=0)
    spec = EngineSpec(config=config,
                      kernel=GaussianKernel(sigma=6.0, window_size=32))

    run = make_engine(spec).run(image)
    base = make_engine(spec.replace(engine="traditional")).run(image)
    assert np.allclose(run.outputs, base.outputs)   # lossless == exact
    print(f"buffer saving: {run.stats.memory_saving_percent:.1f}%")

Attach a probe to see inside the pipeline — the output is bit-identical
either way::

    from repro import MetricsProbe
    from repro.observability import stage_table

    probe = MetricsProbe()
    make_engine(spec, probe=probe).run(image)
    for path, calls, total, _mean in stage_table(probe.snapshot()):
        print(f"{path:20s} {calls:4d} calls  {total * 1e3:8.2f} ms")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .config import (
    ArchitectureConfig,
    PAPER_IMAGE_WIDTHS,
    PAPER_THRESHOLDS,
    PAPER_WINDOW_SIZES,
    paper_configs,
)
from .errors import (
    BitstreamError,
    CapacityError,
    ConfigError,
    DatasetError,
    ReproError,
    StateError,
)
from .core.stats import BandAnalysis, ImageCompressionReport, analyze_band, analyze_image
from .core.threshold import AdaptiveThresholdController, choose_threshold_for_budget
from .core.packing.packer import BandCodec, EncodedBand
from .core.window import (
    CompressedEngine,
    GoldenEngine,
    MultiChannelEngine,
    SameSizeEngine,
    SlidingWindowPipeline,
    PipelineStage,
    TraditionalCycleEngine,
    TraditionalEngine,
    WindowRun,
)
from .core.video import FrameRecord, FrameStreamProcessor
from .observability import MetricsProbe, MetricsRegistry, NullProbe, Probe
from .runtime import StreamingProcessor, StreamResult, stream_frames
from .spec import ENGINE_KINDS, EngineSpec, make_engine
from .resilience import (
    EngineFaultSummary,
    FaultInjector,
    ProtectionPolicy,
    ResilientBandCodec,
    resolve_policy,
)

__version__ = "1.0.0"

__all__ = [
    "ArchitectureConfig",
    "PAPER_IMAGE_WIDTHS",
    "PAPER_THRESHOLDS",
    "PAPER_WINDOW_SIZES",
    "paper_configs",
    "ReproError",
    "ConfigError",
    "BitstreamError",
    "CapacityError",
    "StateError",
    "DatasetError",
    "BandAnalysis",
    "ImageCompressionReport",
    "analyze_band",
    "analyze_image",
    "AdaptiveThresholdController",
    "choose_threshold_for_budget",
    "BandCodec",
    "EncodedBand",
    "GoldenEngine",
    "TraditionalEngine",
    "TraditionalCycleEngine",
    "CompressedEngine",
    "SlidingWindowPipeline",
    "PipelineStage",
    "WindowRun",
    "MultiChannelEngine",
    "SameSizeEngine",
    "FrameRecord",
    "FrameStreamProcessor",
    "StreamingProcessor",
    "StreamResult",
    "stream_frames",
    "ENGINE_KINDS",
    "EngineSpec",
    "make_engine",
    "MetricsProbe",
    "MetricsRegistry",
    "NullProbe",
    "Probe",
    "EngineFaultSummary",
    "FaultInjector",
    "ProtectionPolicy",
    "ResilientBandCodec",
    "resolve_policy",
    "__version__",
]
