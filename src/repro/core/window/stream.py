"""Pixel-level, register-level model of the Fig 4 dataflow.

This is the repository's one register-level hardware model.  The
band-granular :class:`~repro.core.window.compressed.CompressedEngine`
proves the architecture's *functional* behaviour; this simulator streams
every pixel through the hardware blocks and checks the *dataflow*:

- **write side** — each exiting column pair goes through the Fig 5 IWT
  blocks; each coefficient column is thresholded (the LL sub-band is
  exempt under ``threshold_bands="details"``), its two sub-band NBits come
  from the Fig 7 gate tree, and N Fig 6 Bit Packing units (one per window
  row) append its significant coefficients to per-row word FIFOs while an
  (NBits, BitMap) record enters the management FIFO;
- **read side** — exactly one traversal later the column's management
  record is popped and N Fig 8 Bit Unpacking units drain the row word
  FIFOs; the Fig 10 IIWT blocks return pixels.

The simulator raises :class:`~repro.errors.StateError` on a management
FIFO underflow, an out-of-order pop, or an NBits disagreement between the
Fig 7 gate tree and the codec's
:func:`~repro.core.packing.nbits.min_bits_signed`.

Dataflow conventions (matching Section III's state machine):

- *fill state* (rows 0..N-2): pixels are only pushed into the buffers; no
  compression, no outputs ("no output or operations are done");
- *processing* (each traversal y >= N-1): position ``x`` assembles the
  incoming column from the previous traversal's reconstructed column
  (rows shifted up one) plus the new raw pixel, the kernel fires for
  ``x >= N-1``, and the exiting column joins its 2x2 partner in the IWT
  before being packed and stored.  The packers flush their partial words
  at the end of each traversal, so every traversal's bits are in the row
  FIFOs before the next traversal reads them.

The control flow is per-pixel Python (use small images), but the
per-pair Fig 5 / Fig 10 column transforms run through the batched Haar
column math (all ``N/2`` 2x2 blocks of a pair at once — bit-exact against
the scalar block models, property-tested).  Outputs and reconstruction
are property-tested bit-identical to ``CompressedEngine(recirculate=True)``
— lossless and lossy, both threshold policies, wrapped and clipped
datapaths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ...config import ArchitectureConfig
from ...errors import ConfigError, StateError
from ...kernels.base import WindowKernel, as_kernel
from ..packing.bitmap import apply_threshold
from ..packing.hw_pack import BitPackingUnit
from ..packing.hw_unpack import BitUnpackingUnit
from ..packing.nbits import NBitsGateModel, min_bits_signed
from ..transform.haar2d import Subbands, forward_column_pair, inverse_column_pair
from .base import EngineStats, SlidingWindowEngine, WindowRun
from .traditional import traditional_fill_cycles

#: Memory word width of the Fig 6 / Fig 8 units (``BitMax`` in the paper).
WORD_BITS = 8


@dataclass(frozen=True, slots=True)
class _ColumnRecord:
    """Management-FIFO entry of one compressed column: NBits and BitMap."""

    column_index: int
    nbits_even: int
    nbits_odd: int
    bitmap: tuple[int, ...]
    #: Bits the packers appended to the row word FIFOs for this column.
    payload_bits: int

    def total_bits(self, nbits_field_width: int) -> int:
        """Payload plus management (two NBits fields, one BitMap bit each)."""
        return self.payload_bits + 2 * nbits_field_width + len(self.bitmap)


class PixelStreamSimulator(SlidingWindowEngine):
    """Cycle-by-cycle, register-level model of the modified architecture."""

    def __init__(self, config: ArchitectureConfig, kernel: WindowKernel) -> None:
        super().__init__(config, kernel)
        if config.decomposition_levels != 1 or config.ll_dpcm:
            raise ConfigError(
                "the pixel-stream simulator models the paper's single-level "
                "datapath; use CompressedEngine for multi-level configs"
            )
        self._wrap = config.coefficient_bits if config.wrap_coefficients else None
        self._gate = NBitsGateModel(max(config.coefficient_bits, 2))
        self._ll_exempt = config.threshold_bands == "details"
        self._records: deque[_ColumnRecord] = deque()
        self._packers: list[BitPackingUnit] = []
        self._unpackers: list[BitUnpackingUnit] = []
        #: High-water mark of the management FIFO in the last run.
        self.fifo_peak = 0
        #: Peak resident bits (payload + per-record management) in the last run.
        self.bits_peak = 0

    # -- column-pair transforms (Fig 5 / Fig 10 blocks) -----------------

    def _transform_pair(
        self, even_col: np.ndarray, odd_col: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """2D IWT of an aligned column pair -> interleaved coefficient cols.

        All ``N/2`` 2x2 blocks of the pair go through the batched Haar
        column math at once (:func:`forward_column_pair`, bit-exact
        against the scalar Fig 5 block model — property-tested); the
        sub-band vectors re-interleave into the two coefficient columns
        the packers consume: ``col_a`` carries (LL, LH, ...), ``col_b``
        (HL, HH, ...).
        """
        pair = np.stack([even_col, odd_col], axis=1)  # (N, 2) image block
        plane = forward_column_pair(pair, wrap_bits=self._wrap).interleaved()
        return (
            plane[:, 0].astype(np.int64, copy=False),
            plane[:, 1].astype(np.int64, copy=False),
        )

    def _inverse_pair(
        self, col_a: np.ndarray, col_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact inverse of :meth:`_transform_pair` (batched Fig 10 math)."""
        plane = np.stack([col_a, col_b], axis=1)  # (N, 2) interleaved
        pair = inverse_column_pair(
            Subbands.from_interleaved(plane), wrap_bits=self._wrap
        )
        return (
            pair[:, 0].astype(np.int64, copy=False),
            pair[:, 1].astype(np.int64, copy=False),
        )

    # -- write side: Fig 7 gates + Fig 6 packers --------------------------

    def _pack_column(self, index: int, coeff_col: np.ndarray) -> _ColumnRecord:
        """Threshold, size and pack one coefficient column into the FIFOs.

        The even-row coefficients of an even column are the LL sub-band,
        exempt from the threshold under ``threshold_bands="details"``.
        """
        threshold = self.config.threshold
        exempt_even = self._ll_exempt and index % 2 == 0
        exempt = np.arange(coeff_col.size) % 2 == 0 if exempt_even else None
        significant = apply_threshold(coeff_col, threshold, exempt_mask=exempt)
        nbits = (
            self._gate.min_bits(significant[0::2]),
            self._gate.min_bits(significant[1::2]),
        )
        if nbits != (
            min_bits_signed(significant[0::2]),
            min_bits_signed(significant[1::2]),
        ):
            raise StateError(
                f"gate-tree NBits {nbits} disagree with the codec for column "
                f"{index}"
            )
        bitmap: list[int] = []
        payload_bits = 0
        for i, value in enumerate(coeff_col.tolist()):
            nb = nbits[i % 2]
            bit, words = self._packers[i].step(
                value, nb, exempt=exempt_even and i % 2 == 0
            )
            self._unpackers[i].feed(words)  # row i's word FIFO
            bitmap.append(bit)
            payload_bits += nb * bit
        return _ColumnRecord(
            column_index=index,
            nbits_even=nbits[0],
            nbits_odd=nbits[1],
            bitmap=tuple(bitmap),
            payload_bits=payload_bits,
        )

    def _write_pair(self, x: int, even_col: np.ndarray, odd_col: np.ndarray) -> int:
        """Compress the pair ending at odd position ``x``; returns bits stored."""
        col_a, col_b = self._transform_pair(even_col, odd_col)
        stored = 0
        for index, coeff in ((x - 1, col_a), (x, col_b)):
            record = self._pack_column(index, coeff)
            self._records.append(record)
            stored += record.total_bits(self.config.nbits_field_width)
        return stored

    # -- read side: Fig 8 unpackers ---------------------------------------

    def _read_column(self, index: int, where: tuple[int, int]) -> _ColumnRecord:
        """Pop column ``index``'s management record, checking order."""
        if not self._records:
            raise StateError(f"record FIFO underflow at {where}")
        record = self._records.popleft()
        if record.column_index != index:
            raise StateError(
                f"out-of-order pop at {where}: expected col {index}, got "
                f"{record.column_index}"
            )
        return record

    def _unpack_column(self, record: _ColumnRecord) -> np.ndarray:
        """Drive the N unpacking units with one management record."""
        nbits = (record.nbits_even, record.nbits_odd)
        return np.array(
            [
                unpacker.step(bit, nbits[i % 2])
                for i, (unpacker, bit) in enumerate(
                    zip(self._unpackers, record.bitmap)
                )
            ],
            dtype=np.int64,
        )

    def _to_pixels(self, column: np.ndarray) -> np.ndarray:
        cfg = self.config
        if cfg.wrap_coefficients:
            return column & cfg.pixel_max
        return np.clip(column, 0, cfg.pixel_max)

    # -- main loop -------------------------------------------------------

    def run(self, image: np.ndarray) -> WindowRun:
        """Stream every pixel of ``image`` through the architecture."""
        arr = self._validate_image(image).astype(np.int64)
        cfg = self.config
        n, w, h = cfg.window_size, cfg.image_width, cfg.image_height
        kern = as_kernel(self.kernel, window_size=n)

        width = self._gate.width
        self.fifo_peak = self.bits_peak = 0
        self._records = deque()
        self._packers = [
            BitPackingUnit(
                word_bits=WORD_BITS, threshold=cfg.threshold, max_nbits=width
            )
            for _ in range(n)
        ]
        self._unpackers = [
            BitUnpackingUnit(word_bits=WORD_BITS, max_nbits=width) for _ in range(n)
        ]
        window = np.zeros((n, n), dtype=np.int64)
        out: np.ndarray | None = None
        reconstruction = arr.copy()
        bits_resident = 0

        for y in range(n - 1, h):
            decoded_pair: dict[int, np.ndarray] = {}
            state_cols: list[np.ndarray] = []  # this traversal's columns

            for x in range(w):
                # ---- read side: decode the re-entry column for position x
                if y == n - 1:
                    incoming = arr[0:n, x].copy()  # fill state: raw rows
                else:
                    if x % 2 == 0:
                        for idx in (x, x + 1):
                            record = self._read_column(idx, (y, x))
                            bits_resident -= record.total_bits(cfg.nbits_field_width)
                            decoded_pair[idx] = self._unpack_column(record)
                        even_col, odd_col = self._inverse_pair(
                            decoded_pair[x], decoded_pair[x + 1]
                        )
                        decoded_pair[x] = self._to_pixels(even_col)
                        decoded_pair[x + 1] = self._to_pixels(odd_col)
                    prev_col = decoded_pair.pop(x)
                    # Rows shift down one: the record's rows 1..N-1 feed
                    # window rows 0..N-2; the raw pixel is the new row.
                    incoming = np.concatenate([prev_col[1:], [arr[y, x]]])

                state_cols.append(incoming)
                reconstruction[y - n + 1 : y + 1, x] = incoming

                # ---- active window shift; kernel fires once valid
                window[:, :-1] = window[:, 1:]
                window[:, -1] = incoming
                if x >= n - 1:
                    value = np.asarray(kern.apply(window))
                    if out is None:
                        out = np.zeros((h - n + 1, w - n + 1), dtype=value.dtype)
                    out[y - n + 1, x - n + 1] = value

                # ---- write side: compress the column pair on odd columns
                if y < h - 1 and x % 2 == 1:
                    bits_resident += self._write_pair(
                        x, state_cols[x - 1], state_cols[x]
                    )
                    self.fifo_peak = max(self.fifo_peak, len(self._records))
                    self.bits_peak = max(self.bits_peak, bits_resident)

            if y < h - 1:  # end of traversal: flush partial words
                for packer, unpacker in zip(self._packers, self._unpackers):
                    unpacker.feed(packer.flush())

        assert out is not None
        fill = traditional_fill_cycles(n, w)
        stats = EngineStats(
            fill_cycles=fill,
            process_cycles=arr.size - fill,
            pixels_in=arr.size,
            outputs=out.size,
            buffer_bits_peak=self.bits_peak,
            traditional_buffer_bits=cfg.traditional_buffer_bits,
        )
        return WindowRun(outputs=out, stats=stats, reconstruction=reconstruction)
