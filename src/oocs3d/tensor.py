"""Dense 3D/4D tensor types and the direct 3D convolution engine.

Everything downstream builds on the containers defined here (`Volume`,
`FeatureMap`, `ConvWeights`, `BinaryMask`) and on the convolution pair
`conv3d_forward` / `conv3d_backward`.

Conventions, fixed once for the whole package:

* arrays are C-ordered float64 with W the fastest axis;
* convolution is cross-correlation: weights are applied as stored, with
  no spatial flip;
* "same_zero" padding zero-pads so spatial dims are preserved, "valid"
  keeps only fully covered positions;
* convolutions are im2col matrix products done by BLAS, one per depth
  slab.  Results are byte-identical from run to run at a fixed BLAS
  thread count.  The summation order inside a product is BLAS's choice,
  so another thread count or BLAS build may change the last bits (the
  tests check that 1 and 2 threads agree byte for byte).  Negating the
  weights negates every partial sum, so an Off response is bit-exactly
  minus its On response.

Containers freeze their buffers after validation; instances are safe to
share across threads, and every operation returns fresh arrays.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, DomainError, InvalidKernelError

PAD_SAME = "same_zero"
PAD_VALID = "valid"
PADDINGS = (PAD_SAME, PAD_VALID)

# Upper bound on the im2col column buffer per depth slab; one slab is the floor.
_COL_BYTES = 1 << 20


def _check_padding(padding: str) -> None:
    if padding not in PADDINGS:
        raise DomainError(f"padding must be one of {PADDINGS}, got {padding!r}")


def _check_spacing(spacing) -> tuple[float, float, float]:
    sp = tuple(float(s) for s in spacing)
    if len(sp) != 3 or not all(np.isfinite(s) and s > 0 for s in sp):
        raise DomainError(f"spacing must be three positive finite values, got {spacing!r}")
    return sp


class Volume:
    """A 3D scalar grid with physical voxel spacing.

    `data` has shape (D, H, W); `spacing` is (sz, sy, sx) in millimeters
    per voxel.  Values must be finite; `check_finite=False` is reserved
    for file readers that surface degraded external data with a warning.
    """

    def __init__(self, data, spacing=(1.0, 1.0, 1.0), *, check_finite: bool = True):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise DimensionError(f"volume data must be non-empty 3D, got shape {arr.shape}")
        if check_finite and not np.isfinite(arr).all():
            raise DomainError("volume contains non-finite values")
        arr.setflags(write=False)
        self.data = arr
        self.spacing = _check_spacing(spacing)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Volume(shape={self.shape}, spacing={self.spacing})"


class BinaryMask:
    """A 3D boolean grid with physical voxel spacing.

    Accepts boolean arrays or numeric arrays whose values are exactly
    0 or 1; anything else (including NaN) is rejected.
    """

    def __init__(self, data, spacing=(1.0, 1.0, 1.0)):
        arr = np.asarray(data)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise DimensionError(f"mask data must be non-empty 3D, got shape {arr.shape}")
        if arr.dtype == bool:
            b = arr.copy()
        else:
            vals = np.asarray(arr, dtype=np.float64)
            binary = (vals == 0.0) | (vals == 1.0)
            if not binary.all():
                raise DomainError("mask values must be exactly 0 or 1")
            b = vals != 0.0
        b = np.ascontiguousarray(b)
        b.setflags(write=False)
        self.data = b
        self.spacing = _check_spacing(spacing)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def count(self) -> int:
        return int(self.data.sum())

    def __repr__(self) -> str:
        return f"BinaryMask(shape={self.shape}, spacing={self.spacing}, count={self.count})"


class FeatureMap:
    """A (C, D, H, W) activation tensor, network-internal (no spacing)."""

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim != 4 or arr.shape[0] < 1 or min(arr.shape[1:]) < 1:
            raise DimensionError(f"feature map must be non-empty (C, D, H, W), got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("feature map contains non-finite values")
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def from_volume(cls, v: Volume) -> "FeatureMap":
        return cls(v.data[None])

    def to_volume(self, spacing=(1.0, 1.0, 1.0)) -> Volume:
        if self.channels != 1:
            raise DimensionError(f"only single-channel maps convert to volumes, got C={self.channels}")
        return Volume(self.data[0], spacing)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"FeatureMap(shape={self.shape})"


class ConvWeights:
    """Weights of one 3D convolution: (C_out, C_in, k, k, k) plus optional bias.

    The kernel must be cubic with odd k so "same_zero" padding is symmetric.
    """

    def __init__(self, data, bias=None):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim != 5:
            raise DimensionError(f"conv weights must be 5D (C_out, C_in, k, k, k), got shape {arr.shape}")
        k = arr.shape[2]
        if arr.shape[3] != k or arr.shape[4] != k:
            raise InvalidKernelError(f"kernel must be cubic, got {arr.shape[2:]}")
        if k % 2 == 0:
            raise InvalidKernelError(f"kernel size must be odd, got k={k}")
        if not np.isfinite(arr).all():
            raise DomainError("conv weights contain non-finite values")
        arr.setflags(write=False)
        self.data = arr
        if bias is None:
            self.bias = None
        else:
            b = np.array(bias, dtype=np.float64)
            if b.shape != (arr.shape[0],):
                raise DimensionError(f"bias must have shape ({arr.shape[0]},), got {b.shape}")
            if not np.isfinite(b).all():
                raise DomainError("bias contains non-finite values")
            b.setflags(write=False)
            self.bias = b

    @property
    def c_out(self) -> int:
        return self.data.shape[0]

    @property
    def c_in(self) -> int:
        return self.data.shape[1]

    @property
    def k(self) -> int:
        return self.data.shape[2]

    def __repr__(self) -> str:
        return f"ConvWeights(c_out={self.c_out}, c_in={self.c_in}, k={self.k}, bias={self.bias is not None})"


def pad_zero(v, margin):
    """Zero-pad a Volume or FeatureMap by `margin` voxels per spatial axis.

    `margin` is three non-negative integers (D, H, W); each axis grows by
    twice its margin.  Channel axes are never padded.
    """
    m = tuple(int(x) for x in margin)
    if len(m) != 3 or any(x < 0 for x in m):
        raise DomainError(f"margin must be three non-negative integers, got {margin!r}")
    width = tuple((x, x) for x in m)
    if isinstance(v, Volume):
        return Volume(np.pad(v.data, width), v.spacing)
    if isinstance(v, FeatureMap):
        return FeatureMap(np.pad(v.data, ((0, 0),) + width))
    raise DimensionError(f"pad_zero expects Volume or FeatureMap, got {type(v).__name__}")


def conv3d_output_shape(input_shape, k: int, padding: str) -> tuple[int, int, int]:
    """Spatial output shape of the convolution for the given padding."""
    _check_padding(padding)
    if padding == PAD_SAME:
        return tuple(input_shape)
    out = tuple(s - k + 1 for s in input_shape)
    if any(s < 1 for s in out):
        raise DimensionError(
            f"kernel k={k} does not fit input spatial shape {tuple(input_shape)} under valid padding"
        )
    return out


def _pad(a: np.ndarray, m: int) -> np.ndarray:
    """Zero-pad the spatial axes of a (C, D, H, W) array by `m` on each side."""
    return np.pad(a, ((0, 0),) + ((m, m),) * 3) if m else a


def _slabs(xp: np.ndarray, k: int, out_shape):
    """Yield (depth slice, im2col columns) over the output, one depth slab at a time.

    Each column matrix has one row per (input channel, kz, ky, kx) tap and
    one column per output voxel of the slab.  All slabs share one buffer
    of at most `_COL_BYTES`, unless a single depth slice needs more, so a
    yielded matrix is only valid until the next one is drawn.
    """
    d, h, w = out_shape
    c = xp.shape[0]
    win = sliding_window_view(xp, (k, k, k), axis=(1, 2, 3)).transpose(0, 4, 5, 6, 1, 2, 3)
    depth = min(d, max(1, _COL_BYTES // (c * k ** 3 * h * w * 8)))
    buf = np.empty((c, k, k, k, depth, h, w))
    for z in range(0, d, depth):
        n = min(depth, d - z)
        cols = buf[:, :, :, :, :n]
        np.copyto(cols, win[:, :, :, :, z:z + n])
        yield slice(z, z + n), cols.reshape(c * k ** 3, n * h * w)


def _correlate(xp: np.ndarray, w: np.ndarray, out_shape) -> np.ndarray:
    """Valid cross-correlation of padded (C_in, ...) `xp` with (C_out, C_in, k, k, k) `w`."""
    c_out, k = w.shape[0], w.shape[2]
    out = np.empty((c_out,) + tuple(out_shape))
    wmat = w.reshape(c_out, -1)
    for sl, cols in _slabs(xp, k, out_shape):
        # a depth slice of a C-ordered (C, D, H, W) array reshapes to a view
        np.matmul(wmat, cols, out=out[:, sl].reshape(c_out, -1))
    return out


def conv3d_forward(x: FeatureMap, w: ConvWeights, padding: str = PAD_SAME) -> FeatureMap:
    """Multichannel 3D cross-correlation.

    output[o] = sum_i input[i] correlated with w[o, i], plus bias[o].
    Weights are applied as stored (no flip).
    """
    _check_padding(padding)
    if x.channels != w.c_in:
        raise DimensionError(f"input has {x.channels} channels but weights expect {w.c_in}")
    out_shape = conv3d_output_shape(x.data.shape[1:], w.k, padding)
    m = w.k // 2 if padding == PAD_SAME else 0
    out = _correlate(_pad(x.data, m), w.data, out_shape)
    if w.bias is not None:
        out += w.bias[:, None, None, None]
    return FeatureMap(out)


def conv3d_backward(
    x: FeatureMap, w: ConvWeights, grad_out: FeatureMap, padding: str = PAD_SAME
) -> tuple[FeatureMap, ConvWeights]:
    """Exact analytic gradients of `conv3d_forward`.

    Returns (grad_input, grad_weights); grad_weights carries the bias
    gradient iff `w` has a bias.
    """
    _check_padding(padding)
    if x.channels != w.c_in:
        raise DimensionError(f"input has {x.channels} channels but weights expect {w.c_in}")
    out_shape = conv3d_output_shape(x.data.shape[1:], w.k, padding)
    if grad_out.data.shape != (w.c_out,) + out_shape:
        raise DimensionError(
            f"grad_out shape {grad_out.data.shape} does not match forward output {(w.c_out,) + out_shape}"
        )
    go = grad_out.data
    k = w.k
    m = k // 2 if padding == PAD_SAME else 0
    grad_w = np.zeros((w.c_out, w.c_in * k ** 3))
    for sl, cols in _slabs(_pad(x.data, m), k, out_shape):
        grad_w += go[:, sl].reshape(w.c_out, -1) @ cols.T
    # grad_input is the full correlation of grad_out with the flipped,
    # channel-transposed kernel: pad so every input voxel sees all k^3 taps
    w_adj = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    grad_x = _correlate(_pad(go, k - 1 - m), w_adj, x.data.shape[1:])
    grad_bias = go.sum(axis=(1, 2, 3)) if w.bias is not None else None
    return FeatureMap(grad_x), ConvWeights(grad_w.reshape(w.data.shape), grad_bias)
