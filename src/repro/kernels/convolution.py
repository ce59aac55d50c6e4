"""Generic window-dot-kernel convolution and the box filter special case.

A 2D image filter is the paper's running example of a processing kernel:
"multiply each pixel in the active window with a corresponding constant in
the filter kernel, and output these results as a sum or weighted sum"
(Section V).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError
from .base import check_window_shape


class ConvolutionKernel:
    """Weighted-sum kernel: ``out = sum(window * taps)``.

    ``taps`` may be float or integer; integer taps keep the computation
    exact, mirroring fixed-point hardware.  The taps are applied in direct
    (correlation) orientation — flip them beforehand for true convolution.
    """

    def __init__(self, taps: np.ndarray, *, name: str = "conv") -> None:
        arr = np.asarray(taps)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError(f"taps must be square 2D, got shape {arr.shape}")
        self.taps = arr
        self.name = name
        self.window_size = arr.shape[0]

    def apply(self, windows: np.ndarray) -> np.ndarray:
        """Reduce each trailing window with the tap-weighted sum."""
        arr = check_window_shape(windows, self.window_size)
        # tensordot over the trailing two axes keeps leading batch dims.
        return np.tensordot(arr, self.taps, axes=([-2, -1], [0, 1]))

    def apply_image(self, image: np.ndarray) -> np.ndarray:
        """Valid-mode correlation over a whole image, shape ``(T, C)``.

        Whole-image counterpart of :meth:`apply`, used by
        :func:`~repro.core.window.golden.golden_apply` as a dense fast
        route: one ``(H*C, N) x (N, N)`` matmul against the tap rows
        replaces the N^2-fold window materialisation, then the N shifted
        row contributions accumulate in fixed row order.  Each output is
        a sum over the same values in the same order regardless of the
        image height, so an N-row band call and a whole-frame call are
        bit-identical — the compressed engine's fast/sequential
        equivalence rests on this.  Float taps associate differently
        from :meth:`apply`'s ``tensordot``, so the two routes agree to
        float tolerance (exactly for integer taps);
        :class:`BoxFilterKernel` overrides both with one exact integer
        definition.
        """
        arr = np.asarray(image)
        n = self.window_size
        if arr.ndim != 2:
            raise ConfigError(f"image must be 2D, got shape {arr.shape}")
        if arr.shape[0] < n or arr.shape[1] < n:
            raise ConfigError(f"window {n} exceeds image {arr.shape}")
        # Pre-cast so the strided matmul runs in BLAS (integer taps stay
        # integer: the computation remains exact).
        dtype = np.result_type(arr.dtype, self.taps.dtype)
        rows = sliding_window_view(arr.astype(dtype, copy=False), n, axis=1)
        # partial[r, c, i] = sum_j image[r, c+j] * taps[i, j]
        partial = rows @ self.taps.T.astype(dtype, copy=False)
        t_total = arr.shape[0] - n + 1
        out = partial[0:t_total, :, 0].copy()
        for i in range(1, n):
            out += partial[i : i + t_total, :, i]
        return out


class BoxFilterKernel(ConvolutionKernel):
    """Mean (box) filter over the window — all taps ``1 / N^2``.

    For integer (or bool) pixels the output is defined exactly: the
    window's int64 sum, divided once by ``N^2`` in float64.  Every route —
    :meth:`apply` on window batches and :meth:`apply_image` on whole
    images or N-row bands — computes that same integer first, so the
    golden, traditional, compressed and register-level engines agree bit
    for bit at every N (for power-of-two N this equals the float tap
    correlation exactly, ``1 / N^2`` being a power of two).  Float
    pixels, and integers large enough to overflow the int64 running
    sums, take the generic tap correlation of :class:`ConvolutionKernel`.
    """

    def __init__(self, window_size: int) -> None:
        if window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {window_size}")
        taps = np.full((window_size, window_size), 1.0 / window_size**2)
        super().__init__(taps, name=f"box{window_size}")

    def apply(self, windows: np.ndarray) -> np.ndarray:
        """Window means: exact int64 window sums over ``N^2``."""
        arr = check_window_shape(windows, self.window_size)
        n = self.window_size
        if not _sums_fit_int64(arr, n * n):
            return super().apply(arr)
        return arr.sum(axis=(-2, -1), dtype=np.int64) / (n * n)

    def apply_image(self, image: np.ndarray) -> np.ndarray:
        """Valid-mode window means by two running-sum passes (O(1)/pixel).

        The recursive-accumulation scheme of integral-image engines: an
        int64 prefix sum down the columns, differenced N rows apart,
        gives each column's N-row window sums; a prefix sum of those
        along the rows, differenced N columns apart, gives the N x N
        window sums.  Cost and working set are independent of N.  The
        sums are exact integers, so an N-row band call reproduces the
        matching frame row bit for bit.
        """
        arr = np.asarray(image)
        n = self.window_size
        if arr.ndim != 2:
            raise ConfigError(f"image must be 2D, got shape {arr.shape}")
        h, w = arr.shape
        if h < n or w < n:
            raise ConfigError(f"window {n} exceeds image {arr.shape}")
        # Column prefix sums reach max|p|*H; row prefix sums of the
        # N-row window sums reach max|p|*N*W.
        if not _sums_fit_int64(arr, max(h, n * w)):
            return super().apply_image(arr)
        arr = arr.astype(np.int64, copy=False)
        cols = np.zeros((h + 1, w), dtype=np.int64)
        # Row-by-row adds walk contiguous memory; NumPy's axis-0
        # cumsum strides down each column and measures ~3x slower.
        for r in range(h):
            np.add(cols[r], arr[r], out=cols[r + 1])
        band = cols[n:] - cols[:-n]
        del cols
        rows = np.zeros((h - n + 1, w + 1), dtype=np.int64)
        np.cumsum(band, axis=1, out=rows[:, 1:])
        del band
        sums = rows[:, n:] - rows[:, :-n]
        del rows
        return sums / (n * n)


def _sums_fit_int64(arr: np.ndarray, terms: int) -> bool:
    """True when ``arr`` is integral and ``terms`` of its largest magnitude
    sum without reaching ``2**62`` — the exact int64 route is safe."""
    if arr.dtype.kind not in "biu":
        return False
    if arr.size == 0:
        return True
    peak = max(int(arr.max()), -int(arr.min()))
    return peak * terms < 2**62
