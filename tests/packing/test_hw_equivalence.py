"""End-to-end equivalence: register-level chain vs vectorised codec.

The strongest fidelity claim in the reproduction: streaming a frame
through the Fig 5 / Fig 7 / Fig 6 / Fig 8 / Fig 10 models (the
pixel-stream simulator) produces *exactly* the outputs and the
reconstruction of the vectorised engine, and each row's Fig 6 word
stream carries exactly the bits of the :class:`BandCodec` payload.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import ArchitectureConfig, CompressedEngine, TraditionalEngine
from repro.core.packing.hw_pack import BitPackingUnit
from repro.core.packing.nbits import NBitsGateModel, min_bits_signed
from repro.core.packing.packer import BandCodec
from repro.core.window.golden import golden_apply
from repro.core.window.stream import PixelStreamSimulator
from repro.core.window.traditional import TraditionalCycleEngine
from repro.kernels import BoxFilterKernel

#: Bit-true register-level streaming is the slowest fidelity check.
pytestmark = pytest.mark.slow

bands = hnp.arrays(
    dtype=np.int32,
    shape=st.tuples(
        st.integers(2, 4).map(lambda n: 2 * n),
        st.integers(4, 10).map(lambda n: 2 * n),
    ),
    elements=st.integers(0, 255),
)


def config_for(band, threshold=0):
    n, w = band.shape
    side = max(n, w)
    return ArchitectureConfig(
        image_width=side, image_height=side, window_size=n, threshold=threshold
    )


@st.composite
def streamed_frames(draw):
    """A small frame plus a single-level config covering both threshold
    policies and both datapath modes.  Low-valued frames keep the LL
    coefficients under the larger thresholds, where the details-only
    policy's LL exemption changes the stored bits.  The box filter's
    output is the exact integer window sum over N^2 on every route, so
    outputs compare bit for bit at non-power-of-two windows too."""
    window = draw(st.sampled_from([2, 4, 6, 8]))
    width = 2 * draw(st.integers(max(window // 2, 2), 8))
    height = draw(st.integers(window + 1, 12))
    levels = draw(st.sampled_from([6, 256]))
    frame = draw(
        hnp.arrays(np.int64, (height, width), elements=st.integers(0, levels - 1))
    )
    config = ArchitectureConfig(
        image_width=width,
        image_height=height,
        window_size=window,
        threshold=draw(st.sampled_from([0, 2, 6, 20])),
        threshold_bands=draw(st.sampled_from(["all", "details"])),
        wrap_coefficients=draw(st.booleans()),
    )
    return config, frame


@given(bands, st.sampled_from([0, 2, 6]))
@settings(max_examples=25, deadline=None)
def test_stream_band_equals_band_codec_reconstruction(band, threshold):
    """A band written in one traversal reads back as the codec decodes it.

    In a frame of N+1 rows the first traversal's window is the band itself;
    the second traversal re-enters its rows 1..N-1 through the Fig 8 / Fig 10
    read side.
    """
    n, w = band.shape
    config = ArchitectureConfig(
        image_width=w, image_height=n + 1, window_size=n, threshold=threshold
    )
    codec = BandCodec(config)
    expected = codec.decode_band(codec.encode_band(band))
    frame = np.vstack([band, np.zeros((1, w), dtype=band.dtype)])
    streamed = PixelStreamSimulator(config, BoxFilterKernel(n)).run(frame)
    assert np.array_equal(streamed.reconstruction[1:n], expected[1:])


@given(streamed_frames())
@settings(max_examples=40, deadline=None)
def test_register_model_matches_recirculating_engine(case):
    config, frame = case
    kernel = BoxFilterKernel(config.window_size)
    streamed = PixelStreamSimulator(config, kernel).run(frame)
    expected = CompressedEngine(config, kernel, recirculate=True).run(frame)
    assert np.array_equal(streamed.outputs, expected.outputs)
    assert np.array_equal(streamed.reconstruction, expected.reconstruction)


@pytest.mark.parametrize("window", [6, 12])
def test_engine_matrix_bit_identical_at_non_power_of_two_window(window):
    """1/N^2 is inexact for N = 6, 12: every engine must still produce the
    same box outputs bit for bit, windowed (cycle and register-level
    models) or whole-image (golden, traditional, compressed)."""
    frame = np.random.default_rng(window).integers(0, 256, size=(20, 24))
    config = ArchitectureConfig(
        image_width=24, image_height=20, window_size=window, threshold=0
    )
    kernel = BoxFilterKernel(window)
    expected = golden_apply(frame, window, kernel)
    runs = {
        "traditional": TraditionalEngine(config, kernel).run(frame),
        "traditional-cycle": TraditionalCycleEngine(config, kernel).run(frame),
        "compressed-fast": CompressedEngine(config, kernel, fast_path=True).run(frame),
        "compressed-sequential": CompressedEngine(
            config, kernel, fast_path=False
        ).run(frame),
        "pixel-stream": PixelStreamSimulator(config, kernel).run(frame),
    }
    for name, run in runs.items():
        assert np.array_equal(run.outputs, expected), name


@given(bands)
@settings(max_examples=20, deadline=None)
def test_row_word_streams_match_encoded_payloads(band):
    """Each row's Fig 6 word stream equals the codec's row payload bits."""
    config = config_for(band)
    codec = BandCodec(config)
    encoded = codec.encode_band(band)
    plane = codec.threshold_plane(codec.transform_band(band))
    gate = NBitsGateModel(config.coefficient_bits)
    n, w = plane.shape
    for i in range(n):
        packer = BitPackingUnit(word_bits=8, max_nbits=config.coefficient_bits)
        bits: list[int] = []
        for j in range(w):
            col = plane[0::2, j] if i % 2 == 0 else plane[1::2, j]
            nb = gate.min_bits(col)
            _, words = packer.step(int(plane[i, j]), nb)
            for word in words:
                bits.extend((word.value >> k) & 1 for k in range(word.valid_bits))
        for word in packer.flush():
            bits.extend((word.value >> k) & 1 for k in range(word.valid_bits))
        assert np.array_equal(np.array(bits, dtype=np.uint8), encoded.row_payloads[i])


def test_gate_nbits_equals_codec_nbits_on_real_band():
    rng = np.random.default_rng(21)
    band = rng.integers(0, 256, size=(8, 16))
    config = config_for(band)
    codec = BandCodec(config)
    plane = codec.threshold_plane(codec.transform_band(band))
    gate = NBitsGateModel(config.coefficient_bits)
    nbits_even = np.array([gate.min_bits(plane[0::2, j]) for j in range(16)])
    nbits_odd = np.array([gate.min_bits(plane[1::2, j]) for j in range(16)])
    assert np.array_equal(nbits_even, min_bits_signed(plane[0::2, :], axis=0))
    assert np.array_equal(nbits_odd, min_bits_signed(plane[1::2, :], axis=0))


def test_whole_band_bit_count_matches_analysis():
    """Total streamed payload bits equal the analytic width sums."""
    from repro.core.stats import analyze_band

    rng = np.random.default_rng(22)
    band = rng.integers(0, 256, size=(8, 24))
    config = config_for(band, threshold=4)
    codec = BandCodec(config)
    encoded = codec.encode_band(band)
    analysis = analyze_band(config, band)
    assert encoded.payload_bits == analysis.payload_bits
    assert np.array_equal(
        encoded.payload_bits_per_row, analysis.payload_bits_per_row
    )
    assert np.array_equal(
        encoded.payload_bits_per_column, analysis.payload_bits_per_column
    )
    assert encoded.management_bits_per_column == analysis.management_bits_per_column
