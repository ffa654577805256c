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
  input (memory-efficient convolution, Cho & Brand 2017; see `_tiles`
  and `_strip_windows`): each input slice's (c, ky, kx) taps are copied
  once, and one output slice's columns are k consecutive lowered slices,
  with the taps in (kz, c, ky, kx) order.  There is one product per
  output slice of each window.  The output's row strips run on the
  shared strip pool (`_strips.for_strips`), each into its own rows, for
  the forward and the input gradient alike; the split depends on the
  shapes alone, so a strip's products are the same whichever thread
  runs it.  Results are byte-identical from run to run at a fixed
  thread count.  The summation order inside a product is BLAS's choice,
  which may depend on the product's shape, so another BLAS build or
  strip size may change the last bits (the tests check that 1, 2 and 5
  threads agree byte for byte).  The weight gradient is accumulated
  transposed, as (taps, C_out), on the calling thread: one partial sum
  per output slice, each the slice's columns times its output gradient,
  in window order and slice order within a window, so the split sets its
  order of partial sums too.  Negating the weights negates every partial
  sum, so an Off response is bit-exactly minus its On response.

Container buffers are read-only after validation, so instances are safe
to share across threads.  A container shares a buffer that no one can
write (another container's, a view of one, or an array the library has
just built and sealed with `_seal`) and copies anything else, so a
caller's writable array is never shared; see `_frozen`.  Operations
never write into their inputs, and every computed result is a fresh
buffer.  So `FeatureMap(v.data[None])` and `Volume(fm.data[0], spacing)`
convert between the two without a copy.
"""

from __future__ import annotations

import math

import numpy as np

from ._strips import for_strips
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


def _seal(arr: np.ndarray) -> np.ndarray:
    """Make `arr`, an array the caller has just built and holds alone, read-only; return it.

    A container takes a sealed array without copying it (see `_frozen`),
    so nothing may write to `arr` afterwards.
    """
    arr.setflags(write=False)
    return arr


def _unwritable(arr) -> bool:
    """True when `arr` is a C-ordered float64 ndarray that no one can write through.

    Every array on its `.base` chain must be read-only, and the chain must
    end in an ndarray that owns its data: a writable base, a foreign
    buffer (bytes, mmap) or a subclass fails.
    """
    if type(arr) is not np.ndarray or arr.dtype != np.float64 or not arr.flags.c_contiguous:
        return False
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return False


def _frozen(data, ndim: int, what: str) -> np.ndarray:
    """A read-only C-ordered float64 buffer of `data`: rank `ndim`, no empty axis, finite values.

    An array no one can write (`_unwritable`: another container's buffer,
    a view of one, or a result the library has just sealed) is taken as
    is; anything else, a caller's writable array or a read-only view of a
    writable base included, is copied, so no caller can change a
    container after the fact.  Both paths are validated alike.
    """
    arr = data if _unwritable(data) else np.array(data, dtype=np.float64, order="C")
    if arr.ndim != ndim or min(arr.shape) < 1:
        raise DimensionError(f"{what} must be non-empty {ndim}D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains non-finite values")
    return _seal(arr)


class Volume:
    """A 3D scalar grid with physical voxel spacing.

    `data` has shape (D, H, W); `spacing` is (sz, sy, sx) in millimeters
    per voxel.  Values must be finite.
    """

    def __init__(self, data, spacing=(1.0, 1.0, 1.0)):
        self.data = _frozen(data, 3, "volume data")
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
    A bool or integer `a` (non-empty) holds nothing between 0 and 1, so
    its range decides without a full-size temporary.
    """
    if a.dtype.kind in "biu":
        return bool(a.min() >= 0 and a.max() <= 1)
    return bool(((a == 0) | (a == 1)).all())


class BinaryMask:
    """A 3D boolean grid with physical voxel spacing.

    Accepts boolean arrays or numeric arrays whose values pass
    `_zero_one`; anything else (including NaN) is rejected.  The stored
    bytes are exactly 0 and 1, so `data.view(np.uint8)` is the mask's
    MET_UCHAR payload.
    """

    def __init__(self, data, spacing=(1.0, 1.0, 1.0)):
        arr = np.asarray(data)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise DimensionError(f"mask data must be non-empty 3D, got shape {arr.shape}")
        if arr.dtype != bool and not _zero_one(arr):
            raise DomainError("mask values must be exactly 0 or 1")
        # a fresh array of 0/1 bytes, even from a bool view of other bytes
        self.data = _seal(np.ascontiguousarray(arr != 0))
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


def _tiles(xp: np.ndarray, k: int, out_shape):
    """The lowering's source view and split: (read-only view, rows per strip, slices per buffer).

    Slice-wise lowering (Cho & Brand, MEC, 2017): the output is cut into
    strips of whole output rows, and each strip slides down depth.  The
    (c, ky, kx, rows, W) taps of each padded input slice are copied once
    into the strip's buffer, read through the returned (z, c, ky, kx, y, x)
    view built on the contiguous `xp` from its own strides.

    Each strip's buffer is held to `_COL_BYTES`: a strip is as many rows as
    let it hold 3k - 2 lowered slices (at least one row, at most the
    slice), so a window covers 2k - 1 output slices or more (or the whole
    depth) and the carry copies less than half of what the window lowers;
    the buffer then holds as many slices as fit in the budget, at least k.
    A single row that needs more keeps k lowered slices and exceeds the
    budget.  The split depends on the shapes alone, never on the thread
    count.
    """
    d, h, w = out_shape
    c = xp.shape[0]
    sc, sz, sy, sx = xp.strides
    low = np.ndarray((xp.shape[1], c, k, k, h, w), xp.dtype, xp, 0, (sz, sc, sy, sx, sy, sx))
    low.setflags(write=False)
    row = c * k * k * w * 8
    rows = max(1, min(h, _COL_BYTES // ((3 * k - 2) * row)))
    slices = max(k, min(d + k - 1, _COL_BYTES // (rows * row)))
    return low, rows, slices


def _strip_windows(low: np.ndarray, d: int, ys: slice, slices: int):
    """Yield (output slices, columns) for output rows `ys`, one window at a time down depth.

    The strip lowers into a buffer of its own, of `slices` lowered slices.
    Output slice z reads lowered slices z .. z + k - 1, which lie back to
    back in the buffer, so a window of n output slices is the strided
    (n, k * c * k * k, rows * W) view of the buffer whose taps run in
    (kz, c, ky, kx) order; consecutive output slices share k - 1 lowered
    slices.  A window covers as many slices as the buffer holds beyond the
    k - 1 carried; before the next window, its last k - 1 lowered slices
    are carried to the front of the buffer.  All windows of the strip share
    its buffer, so a yielded view is only valid until the next one is drawn.
    """
    _, c, k, _, _, w = low.shape
    r = ys.stop - ys.start
    block = c * k * k * r * w
    lowered = np.empty((slices, c, k, k, r, w))
    per_window = slices - k + 1
    held = 0
    for z in range(0, d, per_window):
        n = min(per_window, d - z)
        carried = min(held, k - 1)
        if carried:  # an empty slice assignment still costs about a microsecond
            lowered[:carried] = lowered[held - carried:held]
        held = n + k - 1
        np.copyto(lowered[carried:held], low[z + carried:z + held, :, :, :, ys])
        cols = np.ndarray((n, k * c * k * k, r * w), lowered.dtype, lowered, 0, (block * 8, r * w * 8, 8))
        yield slice(z, z + n), cols


def _windows(xp: np.ndarray, k: int, out_shape):
    """Yield (output slices, output rows, columns) over the output, strip by strip, top to bottom.

    The strips and windows of `_tiles` and `_strip_windows`, in one thread.
    """
    low, rows, slices = _tiles(xp, k, out_shape)
    d, h, _ = out_shape
    for y in range(0, h, rows):
        ys = slice(y, min(y + rows, h))
        for zs, cols in _strip_windows(low, d, ys, slices):
            yield zs, ys, cols


def _window(a: np.ndarray, zs: slice, ys: slice) -> np.ndarray:
    """The (slices, C, rows * W) view of (C, D, H, W) `a` that one window covers."""
    v = a.transpose(1, 0, 2, 3)[zs, :, ys]
    return v.reshape(v.shape[0], v.shape[1], -1)


def _correlate(xp: np.ndarray, w: np.ndarray, out_shape) -> np.ndarray:
    """Valid cross-correlation of padded (C_in, ...) `xp` with (C_out, C_in, k, k, k) `w`.

    The row strips of `_tiles` run on the strip pool; each writes its own
    rows of the output, one product per output slice of each window.
    """
    c_out, k = w.shape[0], w.shape[2]
    out = np.empty((c_out,) + tuple(out_shape))
    wmat = w.transpose(0, 2, 1, 3, 4).reshape(c_out, -1)
    low, rows, slices = _tiles(xp, k, out_shape)

    def strip(ys):
        for zs, cols in _strip_windows(low, out_shape[0], ys, slices):
            np.matmul(wmat, cols, out=_window(out, zs, ys))

    for_strips(out_shape[1], strip, rows)
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
    return FeatureMap(_seal(out))


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
    # grad_w transposed, (taps, C_out): each product is columns times the
    # window's output gradient made contiguous, a plain NN product
    grad_wt = np.zeros((w.c_in * k ** 3, w.c_out))
    for zs, ys, cols in _windows(_pad(x.data, (m,) * 3), k, out_shape):
        for part in cols @ np.ascontiguousarray(_window(go, zs, ys).transpose(0, 2, 1)):
            grad_wt += part
    grad_w = grad_wt.T.reshape(w.c_out, k, w.c_in, k, k).transpose(0, 2, 1, 3, 4)
    # grad_input is the full correlation of grad_out with the flipped,
    # channel-transposed kernel: pad so every input voxel sees all k^3 taps
    w_adj = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    grad_x = _correlate(_pad(go, (k - 1 - m,) * 3), w_adj, x.data.shape[1:])
    grad_bias = go.sum(axis=(1, 2, 3)) if w.bias is not None else None
    return FeatureMap(_seal(grad_x)), ConvWeights(grad_w, grad_bias)
