"""Sliding-window engines.

- :mod:`repro.core.window.golden` — NumPy stride-tricks oracle (no
  architecture, just the mathematical sliding-window result).
- :mod:`repro.core.window.traditional` — the Section III line-buffering
  architecture: fast analytic engine plus a cycle-accurate FIFO simulator.
- :mod:`repro.core.window.compressed` — the paper's modified architecture:
  a fast vectorised engine (band codec, with optional recirculation error
  feedback).
- :mod:`repro.core.window.stream` — the one register-level model: the
  Fig 4 dataflow streamed pixel by pixel through the hardware block models.
- :mod:`repro.core.window.active` — the active-window shift-register model.
- :mod:`repro.core.window.pipeline` — cascades of 2-5 sequential window
  operations (Section I's multi-stage motivation).
"""

from .base import EngineStats, WindowRun, SlidingWindowEngine
from .golden import sliding_windows, golden_apply, GoldenEngine
from .active import ActiveWindow
from .traditional import TraditionalEngine, TraditionalCycleEngine
from .compressed import CompressedEngine
from .pipeline import PipelineStage, SlidingWindowPipeline
from .boundary import SameSizeEngine, pad_image
from .color import MultiChannelEngine, MultiChannelRun
from .stream import PixelStreamSimulator

__all__ = [
    "EngineStats",
    "WindowRun",
    "SlidingWindowEngine",
    "sliding_windows",
    "golden_apply",
    "GoldenEngine",
    "ActiveWindow",
    "TraditionalEngine",
    "TraditionalCycleEngine",
    "CompressedEngine",
    "PipelineStage",
    "SlidingWindowPipeline",
    "SameSizeEngine",
    "pad_image",
    "MultiChannelEngine",
    "MultiChannelRun",
    "PixelStreamSimulator",
]
