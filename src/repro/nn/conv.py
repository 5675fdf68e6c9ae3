"""1-D convolution and pooling layers.

These are used by the contrastive baselines (CL-HAR and TPN both use
convolutional encoders over the IMU time axis in their reference
implementations), not by the Saga backbone itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from ..rng import make_rng

from . import init
from .module import Module, Parameter
from .tensor import Tensor, _detached, _grad_mode, ensure_tensor


def _sliding_windows(data: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Extract sliding windows over the time axis.

    ``data`` has shape ``(batch, length, channels)``; the result has shape
    ``(batch, out_length, kernel_size, channels)``.
    """
    batch, length, channels = data.shape
    out_length = (length - kernel_size) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(data, kernel_size, axis=1)
    # sliding_window_view returns (batch, length - k + 1, channels, kernel);
    # subsample by stride and reorder to (batch, out_length, kernel, channels).
    windows = windows[:, ::stride][:, :out_length]
    return np.ascontiguousarray(np.transpose(windows, (0, 1, 3, 2)))


def im2col(data: np.ndarray, kernel_size: int, stride: int, padding: int) -> np.ndarray:
    """Pad and unfold ``(batch, length, channels)`` into im2col columns.

    The result has shape ``(batch, out_length, kernel_size * channels)`` and
    is exactly the array :class:`Conv1d` feeds its weight matmul — this is the
    replay kernel for the ``im2col`` tape op recorded by the jit tracer.
    """
    if padding > 0:
        data = np.pad(data, ((0, 0), (padding, padding), (0, 0)))
    batch, length, channels = data.shape
    out_length = (length - kernel_size) // stride + 1
    windows = _sliding_windows(data, kernel_size, stride)
    return windows.reshape(batch, out_length, kernel_size * channels)


def col2im_accumulate(
    grad_cols: np.ndarray, kernel_size: int, stride: int, padded_length: int
) -> np.ndarray:
    """Scatter window gradients back onto the (padded) time axis.

    ``grad_cols`` has shape ``(batch, out_length, kernel_size, channels)``.
    Instead of looping over the ``out_length`` windows in python (the seed
    implementation), accumulate one strided slice per *kernel offset*: for a
    fixed offset the windows touch disjoint, ``stride``-spaced positions, so
    each of the ``kernel_size`` iterations is a single vectorised ``+=`` —
    ``kernel_size`` is 3–7 for every encoder in this repo while ``out_length``
    grows with the input, so the python-level loop count drops by ~10x.
    """
    batch, out_length, _, channels = grad_cols.shape
    grad_padded = np.zeros((batch, padded_length, channels), dtype=grad_cols.dtype)
    for offset in range(kernel_size):
        stop = offset + (out_length - 1) * stride + 1
        grad_padded[:, offset:stop:stride, :] += grad_cols[:, :, offset, :]
    return grad_padded


class Conv1d(Module):
    """1-D convolution over sequences of shape ``(batch, length, in_channels)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        generator = rng if rng is not None else make_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        # Weight shape: (kernel_size * in_channels, out_channels) so the
        # convolution reduces to an im2col matmul that autograd handles.
        self.weight = Parameter(
            init.kaiming_uniform((kernel_size * in_channels, out_channels), generator)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def output_length(self, input_length: int) -> int:
        """Length of the time axis after convolution."""
        padded = input_length + 2 * self.padding
        return (padded - self.kernel_size) // self.stride + 1

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        data = x.data
        if self.padding > 0:
            pad_width = ((0, 0), (self.padding, self.padding), (0, 0))
            data = np.pad(data, pad_width)
        batch, length, channels = data.shape
        if channels != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {channels}"
            )
        out_length = (length - self.kernel_size) // self.stride + 1
        if out_length <= 0:
            raise ValueError(
                f"kernel_size {self.kernel_size} too large for input length {length}"
            )

        windows = _sliding_windows(data, self.kernel_size, self.stride)
        columns = windows.reshape(batch, out_length, self.kernel_size * channels)

        if _grad_mode.enabled and x.requires_grad:
            columns_tensor = Tensor(
                columns,
                requires_grad=True,
                _prev=(x,),
                _op="im2col",
            )

            stride, kernel_size, padding = self.stride, self.kernel_size, self.padding
            input_shape = x.data.shape

            def _backward(out_grad: np.ndarray) -> None:
                grad_cols = out_grad.reshape(batch, out_length, kernel_size, channels)
                grad_padded = col2im_accumulate(grad_cols, kernel_size, stride, length)
                if padding > 0:
                    grad_input = grad_padded[:, padding:padding + input_shape[1], :]
                else:
                    grad_input = grad_padded
                x._accumulate_grad(grad_input)

            columns_tensor._backward = _backward
        else:
            columns_tensor = _detached(
                columns,
                "im2col",
                (x,),
                {"kernel_size": self.kernel_size, "stride": self.stride, "padding": self.padding},
            )

        out = columns_tensor.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"Conv1d(in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )


class GlobalMaxPool1d(Module):
    """Max pooling over the entire time axis: ``(batch, length, channels) -> (batch, channels)``."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).max(axis=1)


class GlobalAveragePool1d(Module):
    """Average pooling over the entire time axis."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).mean(axis=1)
