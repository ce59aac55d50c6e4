"""Tests for convolution-family kernels."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigError
from repro.kernels import BoxFilterKernel, ConvolutionKernel

from helpers import random_image


class TestConvolutionKernel:
    def test_weighted_sum(self):
        taps = np.array([[1, 0], [0, 1]])
        k = ConvolutionKernel(taps)
        window = np.array([[3, 5], [7, 9]])
        assert k.apply(window) == 12

    def test_batch_dims_preserved(self, rng):
        k = ConvolutionKernel(np.ones((3, 3)))
        windows = rng.integers(0, 10, size=(4, 5, 3, 3))
        out = k.apply(windows)
        assert out.shape == (4, 5)
        assert out[2, 3] == windows[2, 3].sum()

    def test_non_square_rejected(self):
        with pytest.raises(ConfigError):
            ConvolutionKernel(np.ones((2, 3)))

    def test_window_size_attribute(self):
        assert ConvolutionKernel(np.ones((5, 5))).window_size == 5

    def test_wrong_window_size_rejected(self):
        k = ConvolutionKernel(np.ones((3, 3)))
        with pytest.raises(ConfigError):
            k.apply(np.zeros((4, 4)))


class TestBoxFilter:
    def test_is_mean(self, rng):
        img = random_image(rng, 6, 6)
        k = BoxFilterKernel(6)
        assert np.isclose(k.apply(img), img.mean())

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            BoxFilterKernel(0)

    def test_name(self):
        assert BoxFilterKernel(8).name == "box8"


class TestApplyImage:
    """The dense whole-image route used by golden_apply's fast path."""

    def test_matches_windowed_apply(self, rng):
        k = BoxFilterKernel(4)
        image = random_image(rng, 20, 24)
        dense = k.apply_image(image)
        windowed = k.apply(sliding_window_view(image, (4, 4)))
        assert dense.shape == windowed.shape
        assert np.array_equal(dense, windowed)

    def test_integer_taps_stay_exact(self, rng):
        k = ConvolutionKernel(np.arange(16).reshape(4, 4))
        image = random_image(rng, 12, 16)
        dense = k.apply_image(image)
        assert np.issubdtype(dense.dtype, np.integer)
        windowed = k.apply(sliding_window_view(image, (4, 4)))
        assert np.array_equal(dense, windowed)

    def test_band_call_bit_identical_to_frame_call(self, rng):
        """An N-row band call must reproduce the matching frame rows
        bitwise — the engines' fast/sequential equivalence rests on it."""
        k = BoxFilterKernel(4)
        image = random_image(rng, 20, 24)
        frame = k.apply_image(image)
        for t in range(frame.shape[0]):
            assert np.array_equal(k.apply_image(image[t : t + 4])[0], frame[t])

    def test_rejects_bad_inputs(self):
        k = BoxFilterKernel(4)
        with pytest.raises(ConfigError):
            k.apply_image(np.zeros(8))
        with pytest.raises(ConfigError):
            k.apply_image(np.zeros((3, 8)))


@st.composite
def box_cases(draw):
    """An integer image (negative values included) and a window N in
    [1, 33], odd and non-power-of-two sizes included."""
    n = draw(st.integers(1, 33))
    dtype = draw(st.sampled_from([np.uint8, np.int32, np.int64]))
    lo, hi = (0, 255) if dtype is np.uint8 else (-(2**31), 2**31 - 1)
    shape = (draw(st.integers(n, n + 12)), draw(st.integers(n, n + 12)))
    image = draw(hnp.arrays(dtype, shape, elements=st.integers(lo, hi)))
    return n, image


class TestBoxFilterExactness:
    """The box output is the exact integer window sum over N^2, on every
    route, so golden, traditional and compressed engines agree bitwise."""

    @given(box_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_route_is_exact_sum_over_n_squared(self, case):
        n, image = case
        k = BoxFilterKernel(n)
        windows = sliding_window_view(image, (n, n))
        exact = windows.astype(np.int64).sum(axis=(-2, -1)) / (n * n)
        dense = k.apply_image(image)
        assert dense.dtype == np.float64
        assert np.array_equal(dense, k.apply(windows))
        assert np.array_equal(dense, exact)
        for t in range(dense.shape[0]):
            assert np.array_equal(k.apply_image(image[t : t + n])[0], dense[t])

    def test_bool_image_counts_ones(self, rng):
        image = rng.integers(0, 2, size=(9, 11)).astype(bool)
        k = BoxFilterKernel(3)
        expected = sliding_window_view(image, (3, 3)).sum(axis=(-2, -1)) / 9
        assert np.array_equal(k.apply_image(image), expected)

    def test_float_image_keeps_tap_correlation(self, rng):
        image = rng.random((14, 17)) * 255
        k = BoxFilterKernel(6)
        assert np.array_equal(
            k.apply_image(image), ConvolutionKernel.apply_image(k, image)
        )
        windows = sliding_window_view(image, (6, 6))
        assert np.array_equal(k.apply(windows), ConvolutionKernel.apply(k, windows))

    def test_overflow_guard_falls_back_to_tap_correlation(self):
        # 2**60 * max(H, N*W) >= 2**62: int64 running sums could wrap.
        image = np.full((6, 6), 2**60, dtype=np.int64)
        k = BoxFilterKernel(2)
        assert np.array_equal(
            k.apply_image(image), ConvolutionKernel.apply_image(k, image)
        )
        assert np.all(k.apply_image(image) == 2.0**60)
        windows = sliding_window_view(image, (2, 2))
        assert np.all(k.apply(windows) == 2.0**60)

    def test_working_set_independent_of_window(self, rng):
        """A summed-area table's peak allocation does not grow with N
        (the matmul correlation's ``(H, W-N+1, N)`` intermediate did)."""
        image = rng.integers(0, 256, size=(256, 256), dtype=np.int64)

        def peak(n: int) -> int:
            kernel = BoxFilterKernel(n)
            tracemalloc.start()
            try:
                kernel.apply_image(image)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32) <= 1.5 * peak(4)
