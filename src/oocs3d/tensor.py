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
* zero padding copies the input into the interior of a zeroed buffer,
  and the lowered slices are gathered through a read-only strided view
  of that buffer (or of the input itself when nothing is padded);
* convolutions are matrix products done by BLAS on slice-wise lowered
  input (memory-efficient convolution, Cho & Brand 2017; see
  `_windows`): each input slice's (c, ky, kx) taps are copied once, and
  one output slice's columns are k consecutive lowered slices, with the
  taps in (kz, c, ky, kx) order.  There is one product per output slice
  of each window.  Results are byte-identical from run to run at a fixed
  BLAS thread count.  The summation order inside a product is BLAS's
  choice, which may depend on the product's shape, so another thread
  count, BLAS build or strip size may change the last bits (the tests
  check that 1 and 2 threads agree byte for byte).  The weight gradient
  adds one partial sum per output slice, in window order and slice
  order within a window, so the split sets its order of partial sums
  too.  Negating the weights negates every partial sum, so an Off
  response is bit-exactly minus its On response.

Containers freeze their buffers after validation; instances are safe to
share across threads, and every operation returns fresh arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, InvalidKernelError, NonFiniteError

PAD_SAME = "same_zero"
PAD_VALID = "valid"
PADDINGS = (PAD_SAME, PAD_VALID)

# Upper bound on the lowered-slice buffer of the conv engine (see
# `_windows`), so a window's columns stay in cache.
_COL_BYTES = 1 << 20


# Most elements (voxels or kernel taps) an argument may ask one array to
# hold: 2**31, 16 GiB of float64.  Commands refuse a larger request with
# DomainError before they allocate anything.
MAX_ELEMENTS = 1 << 31


def _check_size(shape, what: str) -> None:
    """Raise DomainError if an array of `shape` would hold more than MAX_ELEMENTS elements.

    Entries are ints of any size or, for an extent not yet rounded,
    floats; inf and NaN fail.
    """
    if not all(s <= MAX_ELEMENTS for s in shape) or math.prod(shape) > MAX_ELEMENTS:
        raise DomainError(f"{what} would hold more than {MAX_ELEMENTS} elements, shape {tuple(shape)!r}")


def _check_spacing(spacing) -> tuple[float, float, float]:
    sp = tuple(float(s) for s in spacing)
    if len(sp) != 3 or not all(np.isfinite(s) and s > 0 for s in sp):
        raise DomainError(f"spacing must be three positive finite values, got {spacing!r}")
    return sp


def _frozen(data, ndim: int, what: str, check_finite: bool = True) -> np.ndarray:
    """A read-only C-ordered float64 copy of `data`: rank `ndim`, no empty axis, finite values."""
    arr = np.array(data, dtype=np.float64, order="C")
    if arr.ndim != ndim or min(arr.shape) < 1:
        raise DimensionError(f"{what} must be non-empty {ndim}D, got shape {arr.shape}")
    if check_finite and not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


class Volume:
    """A 3D scalar grid with physical voxel spacing.

    `data` has shape (D, H, W); `spacing` is (sz, sy, sx) in millimeters
    per voxel.  Values must be finite; `check_finite=False` is reserved
    for file readers that surface degraded external data with a warning.
    """

    def __init__(self, data, spacing=(1.0, 1.0, 1.0), *, check_finite: bool = True):
        self.data = _frozen(data, 3, "volume data", check_finite)
        self.spacing = _check_spacing(spacing)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Volume(shape={self.shape}, spacing={self.spacing})"


def _zero_one(a: np.ndarray) -> bool:
    """True when every value of `a` is exactly 0 or 1, compared in `a`'s own dtype.

    The one 0/1 rule of the package: masks, the mask file readers and the
    loss targets all use it.  -0.0 counts as 0; NaN, 0.5 and 1+1j fail.
    """
    return bool(((a == 0) | (a == 1)).all())


class BinaryMask:
    """A 3D boolean grid with physical voxel spacing.

    Accepts boolean arrays or numeric arrays whose values pass
    `_zero_one`; anything else (including NaN) is rejected.
    """

    def __init__(self, data, spacing=(1.0, 1.0, 1.0)):
        arr = np.asarray(data)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise DimensionError(f"mask data must be non-empty 3D, got shape {arr.shape}")
        if arr.dtype == bool:
            b = arr.copy()
        elif _zero_one(arr):
            b = arr != 0
        else:
            raise DomainError("mask values must be exactly 0 or 1")
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
        self.data = _frozen(data, 4, "feature map (C, D, H, W)")

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
        arr = _frozen(data, 5, "conv weights (C_out, C_in, k, k, k)")
        k = arr.shape[2]
        if arr.shape[3] != k or arr.shape[4] != k:
            raise InvalidKernelError(f"kernel must be cubic, got {arr.shape[2:]}")
        if k % 2 == 0:
            raise InvalidKernelError(f"kernel size must be odd, got k={k}")
        self.data = arr
        self.bias = None if bias is None else _frozen(bias, 1, "bias")
        if self.bias is not None and self.bias.shape != (arr.shape[0],):
            raise DimensionError(f"bias must have shape ({arr.shape[0]},), got {self.bias.shape}")

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


def conv3d_output_shape(input_shape, k: int, padding: str) -> tuple[int, int, int]:
    """Spatial output shape of the convolution for the given padding."""
    if padding not in PADDINGS:
        raise DomainError(f"padding must be one of {PADDINGS}, got {padding!r}")
    if padding == PAD_SAME:
        return tuple(input_shape)
    out = tuple(s - k + 1 for s in input_shape)
    if any(s < 1 for s in out):
        raise DimensionError(
            f"kernel k={k} does not fit input spatial shape {tuple(input_shape)} under valid padding"
        )
    return out


def _pad(a: np.ndarray, m: tuple[int, int, int]) -> np.ndarray:
    """Zero-pad the last three axes of `a` by margins `m` = (D, H, W) on each side.

    `a` is copied into the interior of a zeroed buffer; with every margin
    0, `a` itself is returned.
    """
    if not any(m):
        return a
    spatial = a.shape[-3:]
    out = np.zeros(a.shape[:-3] + tuple(n + 2 * x for n, x in zip(spatial, m)), a.dtype)
    out[(...,) + tuple(slice(x, x + n) for n, x in zip(spatial, m))] = a
    return out


def _windows(xp: np.ndarray, k: int, out_shape):
    """Yield (output slices, output rows, columns) over the output, one window at a time.

    Slice-wise lowering (Cho & Brand, MEC, 2017): the output is cut into
    strips of whole output rows, and each strip slides down depth.  The
    (c, ky, kx, rows, W) taps of each padded input slice are copied once
    into one buffer, read through a read-only (z, c, ky, kx, y, x) view
    built on the contiguous `xp` from its own strides.  Output slice z
    reads lowered slices z .. z + k - 1, which lie back to back in the
    buffer, so a window of n output slices is the strided
    (n, k * c * k * k, rows * W) view of the buffer whose taps run in
    (kz, c, ky, kx) order; consecutive output slices share k - 1 lowered
    slices.  Before the next window of a strip, its last k - 1 lowered
    slices are carried to the front of the buffer.

    The buffer is held to `_COL_BYTES`: a strip is as many rows as let it
    hold 3k - 2 lowered slices (at least one row, at most the slice), so a
    window covers 2k - 1 output slices or more (or the whole depth) and
    the carry copies less than half of what the window lowers; a window
    then covers as many slices as the buffer holds beyond the k - 1
    carried.  A single row that needs more keeps k lowered slices and
    exceeds the budget.  Windows are yielded strip by strip, top to
    bottom, and down depth within a strip.  All windows share the buffer,
    so a yielded view is only valid until the next one is drawn.
    """
    d, h, w = out_shape
    c = xp.shape[0]
    sc, sz, sy, sx = xp.strides
    low = np.ndarray((xp.shape[1], c, k, k, h, w), xp.dtype, xp, 0, (sz, sc, sy, sx, sy, sx))
    low.flags.writeable = False
    taps = c * k * k
    row = taps * w * 8
    rows = max(1, min(h, _COL_BYTES // ((3 * k - 2) * row)))
    slices = max(k, min(d + k - 1, _COL_BYTES // (rows * row)))
    per_window = slices - k + 1
    buf = np.empty(slices * taps * rows * w)
    for y in range(0, h, rows):
        r = min(rows, h - y)
        block = taps * r * w
        lowered = buf[:slices * block].reshape(slices, c, k, k, r, w)
        held = 0
        for z in range(0, d, per_window):
            n = min(per_window, d - z)
            carried = min(held, k - 1)
            lowered[:carried] = lowered[held - carried:held]
            held = n + k - 1
            np.copyto(lowered[carried:held], low[z + carried:z + held, :, :, :, y:y + r])
            cols = np.ndarray((n, k * taps, r * w), buf.dtype, buf, 0, (block * 8, r * w * 8, 8))
            yield slice(z, z + n), slice(y, y + r), cols


def _window(a: np.ndarray, zs: slice, ys: slice) -> np.ndarray:
    """The (slices, C, rows * W) view of (C, D, H, W) `a` that one window covers."""
    v = a.transpose(1, 0, 2, 3)[zs, :, ys]
    return v.reshape(v.shape[0], v.shape[1], -1)


def _correlate(xp: np.ndarray, w: np.ndarray, out_shape) -> np.ndarray:
    """Valid cross-correlation of padded (C_in, ...) `xp` with (C_out, C_in, k, k, k) `w`."""
    c_out, k = w.shape[0], w.shape[2]
    out = np.empty((c_out,) + tuple(out_shape))
    wmat = w.transpose(0, 2, 1, 3, 4).reshape(c_out, -1)
    for zs, ys, cols in _windows(xp, k, out_shape):
        np.matmul(wmat, cols, out=_window(out, zs, ys))
    return out


def _conv_geometry(x: FeatureMap, w: ConvWeights, padding: str) -> tuple[tuple[int, int, int], int]:
    """Check one conv call's inputs; return its spatial output shape and zero margin per side."""
    out_shape = conv3d_output_shape(x.data.shape[1:], w.k, padding)
    if x.channels != w.c_in:
        raise DimensionError(f"input has {x.channels} channels but weights expect {w.c_in}")
    return out_shape, w.k // 2 if padding == PAD_SAME else 0


def conv3d_forward(x: FeatureMap, w: ConvWeights, padding: str = PAD_SAME) -> FeatureMap:
    """Multichannel 3D cross-correlation.

    output[o] = sum_i input[i] correlated with w[o, i], plus bias[o].
    Weights are applied as stored (no flip).
    """
    out_shape, m = _conv_geometry(x, w, padding)
    out = _correlate(_pad(x.data, (m,) * 3), w.data, out_shape)
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
    out_shape, m = _conv_geometry(x, w, padding)
    if grad_out.data.shape != (w.c_out,) + out_shape:
        raise DimensionError(
            f"grad_out shape {grad_out.data.shape} does not match forward output {(w.c_out,) + out_shape}"
        )
    go = grad_out.data
    k = w.k
    grad_w = np.zeros((w.c_out, w.c_in * k ** 3))
    for zs, ys, cols in _windows(_pad(x.data, (m,) * 3), k, out_shape):
        for part in _window(go, zs, ys) @ cols.transpose(0, 2, 1):
            grad_w += part
    grad_w = grad_w.reshape(w.c_out, k, w.c_in, k, k).transpose(0, 2, 1, 3, 4)
    # grad_input is the full correlation of grad_out with the flipped,
    # channel-transposed kernel: pad so every input voxel sees all k^3 taps
    w_adj = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    grad_x = _correlate(_pad(go, (k - 1 - m,) * 3), w_adj, x.data.shape[1:])
    grad_bias = go.sum(axis=(1, 2, 3)) if w.bias is not None else None
    return FeatureMap(grad_x), ConvWeights(grad_w, grad_bias)
