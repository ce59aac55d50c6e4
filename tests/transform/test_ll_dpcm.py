"""Tests for the LL-DPCM extension (beyond the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import ArchitectureConfig, BandCodec, CompressedEngine, TraditionalEngine
from repro.core.stats import analyze_image
from repro.core.transform.haar2d import ll_dpcm_forward, ll_dpcm_inverse
from repro.errors import ConfigError
from repro.imaging import generate_scene
from repro.kernels import BoxFilterKernel

planes = hnp.arrays(
    dtype=np.int32,
    shape=st.tuples(
        st.integers(1, 6).map(lambda n: 2 * n), st.integers(1, 6).map(lambda n: 2 * n)
    ),
    elements=st.integers(-512, 511),
)


class TestDpcmTransform:
    @given(planes, st.integers(1, 2))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, plane, levels):
        if plane.shape[0] % (1 << levels) or plane.shape[1] % (1 << levels):
            return
        fwd = ll_dpcm_forward(plane, levels)
        assert np.array_equal(ll_dpcm_inverse(fwd, levels), plane)

    def test_only_ll_positions_touched(self, rng):
        plane = rng.integers(-100, 100, size=(8, 8)).astype(np.int32)
        fwd = ll_dpcm_forward(plane, 1)
        untouched = np.ones((8, 8), dtype=bool)
        untouched[0::2, 0::2] = False
        assert np.array_equal(fwd[untouched], plane[untouched])

    def test_first_column_stays_absolute(self, rng):
        plane = rng.integers(0, 255, size=(8, 8)).astype(np.int32)
        fwd = ll_dpcm_forward(plane, 1)
        assert np.array_equal(fwd[0::2, 0], plane[0::2, 0])

    def test_smooth_ll_deltas_are_small(self):
        plane = np.zeros((8, 16), dtype=np.int32)
        plane[0::2, 0::2] = np.arange(8) * 2 + 100  # slowly rising LL row
        fwd = ll_dpcm_forward(plane, 1)
        assert np.all(np.abs(fwd[0::2, 2::2]) <= 2)

    def test_invalid_levels(self):
        with pytest.raises(ConfigError):
            ll_dpcm_forward(np.zeros((4, 4), dtype=int), 0)


class TestDpcmConfig:
    def test_codec_lossless_roundtrip(self, rng):
        config = ArchitectureConfig(
            image_width=32, image_height=32, window_size=8, ll_dpcm=True
        )
        band = rng.integers(0, 256, size=(8, 32))
        codec = BandCodec(config)
        assert np.array_equal(codec.decode_band(codec.encode_band(band)), band)

    def test_engine_lossless_equivalence(self, rng):
        config = ArchitectureConfig(
            image_width=32, image_height=32, window_size=8, ll_dpcm=True
        )
        img = rng.integers(0, 256, size=(32, 32))
        kernel = BoxFilterKernel(8)
        comp = CompressedEngine(config, kernel).run(img)
        trad = TraditionalEngine(config, kernel).run(img)
        assert np.allclose(comp.outputs, trad.outputs)

    def test_lossy_roundtrip_ll_protected(self, rng):
        """Thresholding never touches DPCM'd LL, so reconstruction error
        stays bounded despite the prediction chain."""
        config = ArchitectureConfig(
            image_width=32, image_height=32, window_size=8,
            ll_dpcm=True, threshold=6,
        )
        band = rng.integers(0, 256, size=(8, 32))
        codec = BandCodec(config)
        out = codec.decode_band(codec.encode_band(band), clip=False)
        assert np.max(np.abs(out - band)) <= 3 * 6 + 2

    def test_substantial_extra_saving_on_scenes(self):
        img = generate_scene(seed=21, resolution=256).astype(np.int64)
        base = dict(image_width=256, image_height=256, window_size=16)
        plain = analyze_image(ArchitectureConfig(**base), img)
        dpcm = analyze_image(ArchitectureConfig(**base, ll_dpcm=True), img)
        assert (
            dpcm.memory_saving_percent > plain.memory_saving_percent + 8
        )

    def test_composes_with_two_levels(self, rng):
        config = ArchitectureConfig(
            image_width=32, image_height=32, window_size=8,
            decomposition_levels=2, ll_dpcm=True,
        )
        band = rng.integers(0, 256, size=(8, 32))
        codec = BandCodec(config)
        assert np.array_equal(codec.decode_band(codec.encode_band(band)), band)

    def test_register_engines_reject_dpcm(self):
        from repro.core.window.stream import PixelStreamSimulator

        config = ArchitectureConfig(
            image_width=32, image_height=32, window_size=8, ll_dpcm=True
        )
        with pytest.raises(ConfigError):
            PixelStreamSimulator(config, BoxFilterKernel(8))
