"""The Xilinx 18 Kb block RAM primitive and its port geometries.

A 7-series RAMB18 holds 16 K data bits plus 2 K parity bits; the parity
bits are only addressable in the x9 / x18 / x36 aspect ratios, so the
usable capacity depends on the configuration:

==========  ======  =====  ==============
config      depth   width  capacity (bits)
==========  ======  =====  ==============
16k x 1     16384   1      16384
8k x 2      8192    2      16384
4k x 4      4096    4      16384
2k x 9      2048    9      18432
1k x 18     1024    18     18432
512 x 36    512     36     18432
==========  ======  =====  ==============

The paper's memory-unit sizing (Section V.E) is pure arithmetic over these
geometries: a logical buffer of ``n_words`` words of ``word_bits`` bits
needs ``ceil(word_bits / width) * ceil(n_words / depth)`` block RAMs in a
given configuration.  That allocation lives in the portfolio API
(:mod:`repro.hardware.primitives`), whose ``BRAM18`` primitive is built
from this module's geometry table; the data here (``BramConfig`` /
``BRAM_CONFIGS`` / ``BRAM_CAPACITY_BITS``) remains the authoritative
RAMB18 description.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Nominal capacity of one 18 Kb BRAM in its parity-capable configurations.
BRAM_CAPACITY_BITS = 18 * 1024  # 18432


@dataclass(frozen=True, slots=True)
class BramConfig:
    """One port geometry of the 18 Kb BRAM primitive."""

    depth: int
    width: int

    @property
    def capacity_bits(self) -> int:
        """Usable bits in this configuration."""
        return self.depth * self.width

    @property
    def name(self) -> str:
        """Conventional name, e.g. ``2k x 9``."""
        if self.depth % 1024 == 0:
            return f"{self.depth // 1024}k x {self.width}"
        return f"{self.depth} x {self.width}"


#: All RAMB18 aspect ratios, widest first (the order the allocator scans).
BRAM_CONFIGS: tuple[BramConfig, ...] = (
    BramConfig(depth=512, width=36),
    BramConfig(depth=1024, width=18),
    BramConfig(depth=2048, width=9),
    BramConfig(depth=4096, width=4),
    BramConfig(depth=8192, width=2),
    BramConfig(depth=16384, width=1),
)

