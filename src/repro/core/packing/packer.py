"""Vectorised band codec (the fast-path compression engine).

The hardware compresses the active window's exiting column every cycle; a
whole row-band of the image therefore passes through the compressor exactly
once per buffer generation.  :class:`BandCodec` performs that work for an
entire ``(N, W)`` band in a handful of NumPy operations and exposes the bit
accounting (per row, per column, per sub-band) that the BRAM-sizing
experiments consume.

Layout: the codec operates on the *interleaved* coefficient plane (see
:meth:`repro.core.transform.haar2d.Subbands.interleaved`), where the
sub-band of element ``(i, j)`` follows from the parities — LL at
(even, even), HL at (even, odd), LH at (odd, even), HH at (odd, odd).
Each plane column ``j`` carries two sub-bands (even rows and odd rows) and
therefore two NBits fields, matching Section V.E's "each column in the
decomposed image has two sub-bands".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ...config import ArchitectureConfig
from ...errors import BitstreamError, ConfigError
from ..transform.haar2d import (
    forward_inplace,
    inverse_inplace,
    ll_dpcm_forward,
    ll_dpcm_inverse,
    ll_mask_inplace,
)
from .bitmap import apply_threshold
from .bitstream import values_to_bits
from .nbits import min_bits_signed

#: Names of the four sub-bands in (row parity, column parity) order.
SUBBAND_NAMES = ("LL", "HL", "LH", "HH")


def subband_of(row: int, col: int) -> str:
    """Sub-band name of interleaved-plane element ``(row, col)``."""
    return SUBBAND_NAMES[(row % 2) * 2 + (col % 2)]


@dataclass(frozen=True)
class EncodedBand:
    """A fully compressed ``(N, W)`` image band.

    ``nbits[0, j]`` / ``nbits[1, j]`` hold the even-row / odd-row NBits of
    plane column ``j``; ``bitmap`` is the full significance plane; the
    packed payload is organised *per coefficient row* (``row_payloads[i]``)
    exactly as the N per-row Bit Packing blocks of the hardware would fill
    their FIFOs.
    """

    config: ArchitectureConfig
    nbits: np.ndarray
    bitmap: np.ndarray
    row_payloads: tuple[np.ndarray, ...]

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @cached_property
    def widths(self) -> np.ndarray:
        """Per-coefficient packed widths, shape ``(N, W)``."""
        n_rows = self.bitmap.shape[0]
        parity = (np.arange(n_rows) % 2)[:, None]
        per_element = np.where(parity == 0, self.nbits[0][None, :], self.nbits[1][None, :])
        return np.where(self.bitmap, per_element, 0)

    @property
    def payload_bits_per_row(self) -> np.ndarray:
        """Packed payload bits produced by each of the N row streams."""
        return self.widths.sum(axis=1)

    @property
    def payload_bits_per_column(self) -> np.ndarray:
        """Packed payload bits contributed by each plane column."""
        return self.widths.sum(axis=0)

    @property
    def payload_bits(self) -> int:
        """Total packed payload bits for the band."""
        return int(self.widths.sum())

    @property
    def management_bits_per_column(self) -> int:
        """Management bits per column: two NBits fields plus N bitmap bits."""
        return 2 * self.config.nbits_field_width + self.bitmap.shape[0]

    @property
    def management_bits(self) -> int:
        """Total management bits for the band."""
        return self.management_bits_per_column * self.bitmap.shape[1]

    @property
    def total_bits(self) -> int:
        """Payload plus management bits for the band."""
        return self.payload_bits + self.management_bits

    def subband_payload_bits(self) -> dict[str, int]:
        """Packed payload bits split by sub-band (Fig 3's four series)."""
        out: dict[str, int] = {}
        for name, (rp, cp) in {
            "LL": (0, 0),
            "HL": (0, 1),
            "LH": (1, 0),
            "HH": (1, 1),
        }.items():
            out[name] = int(self.widths[rp::2, cp::2].sum())
        return out

    def subband_payload_bits_per_column(self) -> dict[str, np.ndarray]:
        """Per plane-column payload split by sub-band.

        Each array has W entries; sub-bands present only on the other column
        parity contribute zeros there, so the four arrays sum to
        :attr:`payload_bits_per_column`.
        """
        w = self.bitmap.shape[1]
        out: dict[str, np.ndarray] = {}
        for name, (rp, cp) in {
            "LL": (0, 0),
            "HL": (0, 1),
            "LH": (1, 0),
            "HH": (1, 1),
        }.items():
            per_col = np.zeros(w, dtype=np.int64)
            per_col[cp::2] = self.widths[rp::2, cp::2].sum(axis=0)
            out[name] = per_col
        return out


class BandCodec:
    """Forward/backward compression of N-row image bands.

    This is the vectorised functional equivalent of the hardware loop
    IWT -> threshold -> NBits -> pack (and its inverse), applied to a whole
    band at once.  ``decode_band(encode_band(band)) == band`` exactly when
    ``config.lossless`` (property-tested), and encoding is idempotent in
    steady state: ``encode(decode(encode(x)))`` produces identical bits.
    """

    def __init__(self, config: ArchitectureConfig, *, codec: str = "numpy") -> None:
        self.config = config
        self._wrap_bits = config.coefficient_bits if config.wrap_coefficients else None
        #: Resolved codec tier for the bit-stream assembly loops
        #: (``"numpy"`` or ``"native"``; see ``repro.core.packing.tiers``).
        self.codec = codec

    # ------------------------------------------------------------------

    def transform_band(self, band: np.ndarray) -> np.ndarray:
        """Forward IWT of a band, returned as the in-place (Mallat) plane."""
        arr = self._validate_band(band)
        plane = forward_inplace(
            arr, self.config.decomposition_levels, wrap_bits=self._wrap_bits
        )
        if self.config.ll_dpcm:
            plane = ll_dpcm_forward(plane, self.config.decomposition_levels)
        return plane

    def threshold_plane(self, plane: np.ndarray) -> np.ndarray:
        """Apply the configured threshold policy to an interleaved plane."""
        exempt = None
        if self.config.threshold_bands == "details" or self.config.ll_dpcm:
            exempt = ll_mask_inplace(
                plane.shape, self.config.decomposition_levels
            )
        return apply_threshold(plane, self.config.threshold, exempt_mask=exempt)

    def encode_band(self, band: np.ndarray) -> EncodedBand:
        """Compress one ``(N, W)`` pixel band into an :class:`EncodedBand`."""
        plane = self.threshold_plane(self.transform_band(band))
        nbits = np.stack(
            [
                min_bits_signed(plane[0::2, :], axis=0),
                min_bits_signed(plane[1::2, :], axis=0),
            ]
        ).astype(np.int64)
        bitmap = plane != 0
        parity = (np.arange(plane.shape[0]) % 2)[:, None]
        per_element = np.where(parity == 0, nbits[0][None, :], nbits[1][None, :])
        widths = np.where(bitmap, per_element, 0)
        if self.codec == "native":
            from . import native  # deferred: only tier-selected codecs load it

            row_payloads = tuple(
                native.pack_values(plane[i], widths[i])
                for i in range(plane.shape[0])
            )
        else:
            row_payloads = tuple(
                values_to_bits(plane[i], widths[i]) for i in range(plane.shape[0])
            )
        return EncodedBand(
            config=self.config, nbits=nbits, bitmap=bitmap, row_payloads=row_payloads
        )

    def decode_band(self, encoded: EncodedBand, *, clip: bool = True) -> np.ndarray:
        """Reconstruct the pixel band from its compressed representation.

        With ``clip=True`` (default) reconstructed pixels are mapped back to
        the pixel range: saturating for the wide-coefficient datapath,
        modulo for a wrap-around datapath (whose arithmetic is exact mod
        ``2**pixel_bits`` by construction).  Pass ``clip=False`` for the raw
        integer reconstruction (used by the steady-state idempotence
        analysis).
        """
        plane = self.decode_plane(encoded)
        if self.config.ll_dpcm:
            plane = ll_dpcm_inverse(plane, self.config.decomposition_levels)
        band = inverse_inplace(
            plane, self.config.decomposition_levels, wrap_bits=self._wrap_bits
        )
        if clip:
            if self.config.wrap_coefficients:
                band = band & self.config.pixel_max
            else:
                band = np.clip(band, 0, self.config.pixel_max)
        return band

    def decode_plane(self, encoded: EncodedBand) -> np.ndarray:
        """Reconstruct the thresholded coefficient plane from packed bits."""
        from .bitstream import bits_to_values  # local import avoids cycle at module load

        if self.codec == "native":
            from . import native

            decode = native.unpack_values
        else:
            decode = bits_to_values
        widths = encoded.widths
        n_rows, n_cols = widths.shape
        plane = np.zeros((n_rows, n_cols), dtype=np.int64)
        for i in range(n_rows):
            expected = int(widths[i].sum())
            if encoded.row_payloads[i].size != expected:
                raise BitstreamError(
                    f"row {i} payload has {encoded.row_payloads[i].size} bits, "
                    f"management implies {expected}"
                )
            plane[i] = decode(encoded.row_payloads[i], widths[i], signed=True)
        return plane

    # ------------------------------------------------------------------

    def _validate_band(self, band: np.ndarray) -> np.ndarray:
        arr = np.asarray(band)
        if arr.ndim != 2:
            raise ConfigError(f"band must be 2D, got shape {arr.shape}")
        if arr.shape[0] % 2 or arr.shape[1] % 2:
            raise ConfigError(f"band sides must be even, got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigError(f"band must be integer pixels, got {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() > self.config.pixel_max):
            raise ConfigError(
                f"pixels outside [0, {self.config.pixel_max}] for "
                f"{self.config.pixel_bits}-bit input"
            )
        return arr
