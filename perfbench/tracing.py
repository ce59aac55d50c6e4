"""In-memory span recording around calls into the system's public functions.

The benchmark adds no instrumentation to the program.  For a traced
frame it temporarily rebinds a handful of public functions, at the
module attribute the caller looks them up through, to wrappers that
record a span (name, start, end, parent span, frame or request id) and
call straight through.  Spans stay in memory and are written out once,
when the run ends.

A rebinding only sees calls made through the patched attribute.  If the
program stops calling a function there, its layer time reads 0 and the
time shows up as unattributed instead, which is the signal to update
the target list below.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: (module, attribute path, span name) rebound for in-process frames.
#: ``compressed`` looks its collaborators up as module globals, so the
#: engine's own calls go through these attributes.
ENGINE_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.window.compressed", "golden_apply", "kernels.apply_image"),
    ("repro.core.window.compressed", "band_stack_sizes", "core.stats.band_stack_sizes"),
    ("repro.core.window.compressed", "analyze_band", "core.stats.analyze_band"),
    ("repro.core.stats", "BandAnalysis.reconstruct", "core.stats.reconstruct"),
    ("repro.core.window.compressed", "sliding_occupancy", "core.stats.occupancy"),
    ("repro.core.packing.native", "occupancy_peaks", "core.stats.occupancy"),
)

#: Rebound inside the gateway process (see ``gateway_proc.py``).
SERVE_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.serve.http", "HttpRequest.json", "serve.body_parse"),
    ("repro.serve.cache", "SpecCache.resolve", "serve.cache.resolve"),
    ("repro.serve.gateway", "decode_frame", "serve.payload.decode"),
    ("repro.serve.gateway", "encode_array", "serve.payload.encode"),
    ("repro.serve.gateway", "json_response", "serve.response_render"),
)


@dataclass(slots=True)
class Span:
    """One timed call."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    #: Frame index (in-process) or request id (gateway).
    op_id: int
    #: Worker-side ``engine.run`` seconds, for bridge round trips.
    worker_seconds: float | None = None

    def to_json(self) -> dict[str, Any]:
        """JSON-plain form written to the trace file."""
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op_id,
            "worker_seconds": self.worker_seconds,
        }

    @property
    def seconds(self) -> float:
        """Span duration."""
        return self.end - self.start


class Tracer:
    """Collects spans; nesting follows the open-span stack of one thread.

    The gateway's asyncio tasks interleave, so there every span is a
    direct child of its request and ``op_id`` comes from a context
    variable each request sets; in-process frames nest normally.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count()
        self.op_id = contextvars.ContextVar("perfbench_op", default=-1)

    def _open(self) -> tuple[int, int | None]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        span_id: int | None = None,
        parent: int | None = None,
        worker_seconds: float | None = None,
    ) -> Span:
        """Append a finished span."""
        span = Span(
            span_id=next(self._ids) if span_id is None else span_id,
            name=name,
            start=start,
            end=end,
            parent=parent,
            op_id=self.op_id.get(),
            worker_seconds=worker_seconds,
        )
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span nested under the open one."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.record(name, start, end, span_id=span_id, parent=parent)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A stand-in for ``fn`` that records a span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Rebind ``owner.attr`` until :meth:`unpatch`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, targets: tuple[tuple[str, str, str], ...]) -> None:
        """Rebind every target to a recording wrapper."""
        for module_name, path, name in targets:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def unpatch(self) -> None:
        """Restore every rebound attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path: Path, header: dict[str, Any], spans: list[Span]) -> None:
    """Write ``header`` plus every span as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {**header, "spans": [s.to_json() for s in spans]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def load_spans(path: Path) -> list[Span]:
    """Spans written by :func:`write_spans`."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [
        Span(
            span_id=s["id"],
            name=s["name"],
            start=s["start"],
            end=s["end"],
            parent=s["parent"],
            op_id=s["op"],
            worker_seconds=s["worker_seconds"],
        )
        for s in doc["spans"]
    ]
