"""Volume preprocessing: resampling, normalization, shaping.

Resampling maps voxel centers: output index j on an axis with input
spacing s_in and target spacing s_t samples the input at
u = (j + 0.5) * s_t / s_in - 0.5, clamped to the valid index range, so
the two grids share their physical origin at the first voxel's leading
edge.  Each axis is its own 1-D pass: images interpolate linearly
(trilinear overall), masks take voxel floor(u + 0.5), so ties round up.
An axis whose target spacing equals its input spacing has u = j and
gets no pass, so its values, -0.0 included, are kept as they are.  Each
pass runs on the strip pool in strips of its output's first axis; every
voxel is computed as in a whole-volume pass, so the bytes do not depend
on the worker count.
"""

from __future__ import annotations

import math

import numpy as np

from ._strips import for_strips
from .errors import DimensionError, DomainError, NormalizationError, ResampleError
from .tensor import BinaryMask, Volume, _check_size, _check_spacing, _seal


def _order(obj) -> int:
    """Interpolation order: 1 for a Volume, 0 (nearest) for a BinaryMask; raises otherwise."""
    if isinstance(obj, BinaryMask):
        return 0
    if isinstance(obj, Volume):
        return 1
    raise DimensionError(f"expected a Volume or BinaryMask, got {type(obj).__name__}")


def _resample(obj, target_spacing):
    ts = _check_spacing(target_spacing)
    order = _order(obj)
    extents = [n * s / t + 0.5 for n, s, t in zip(obj.shape, obj.spacing, ts)]
    _check_size(extents, f"resampling to spacing {ts}")
    out_shape = tuple(int(math.floor(e)) for e in extents)
    if any(n < 1 for n in out_shape):
        raise ResampleError(f"target spacing {ts} collapses shape {obj.shape} to {out_shape}")
    out = obj.data
    for axis, (n_in, s_in, s_t, n_out) in enumerate(zip(obj.shape, obj.spacing, ts, out_shape)):
        if s_t != s_in:  # an equal spacing maps u = j: the pass is an identity
            u = np.clip((np.arange(n_out) + 0.5) * (s_t / s_in) - 0.5, 0.0, n_in - 1.0)
            out = _resample_axis(out, axis, u, order)
    return type(obj)(_seal(out), ts)


def _resample_axis(src: np.ndarray, axis: int, u: np.ndarray, order: int) -> np.ndarray:
    """One 1-D pass: sample `src` at coordinates `u` along `axis`, in strips of output axis 0.

    Both full-size buffers are allocated here, on the calling thread;
    each strip fills its rows of them in place.  Along axis 0 a strip
    takes its own rows of the indices from all of `src`, along another
    axis all the indices from its own rows of `src`.
    """
    shape = list(src.shape)
    shape[axis] = u.size
    out = np.empty(shape, dtype=src.dtype)
    if order == 0:
        i0 = np.floor(u + 0.5).astype(np.intp)
    else:
        i0 = np.floor(u).astype(np.intp)
        i1 = np.minimum(i0 + 1, src.shape[axis] - 1)
        f = (u - i0).reshape((-1,) + (1,) * (src.ndim - 1 - axis))
        hi = np.empty_like(out)

    def pass_rows(rows):
        sel, part = (rows, slice(None)) if axis == 0 else (slice(None), rows)
        # mode="clip" lets np.take write straight into `out` (the indices are in range)
        np.take(src[part], i0[sel], axis=axis, mode="clip", out=out[rows])
        if order:
            # (1 - f) * lo + f * hi, in place
            np.take(src[part], i1[sel], axis=axis, mode="clip", out=hi[rows])
            hi[rows] *= f[sel]
            out[rows] *= 1.0 - f[sel]
            out[rows] += hi[rows]

    for_strips(shape[0], pass_rows)
    return out


def resample(v: Volume, target_spacing) -> Volume:
    """Trilinear resample onto an isotropic-or-not target spacing."""
    return _resample(v, target_spacing)


def resample_mask(m: BinaryMask, target_spacing) -> BinaryMask:
    """Nearest-neighbor resample (ties round up); output stays strictly binary."""
    return _resample(m, target_spacing)


def zscore(v: Volume) -> Volume:
    """Per-volume standardization to zero mean and unit deviation.

    A volume whose deviation is zero at float resolution (relative to
    its mean level), or whose mean or deviation overflows, cannot be
    standardized and raises.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(v.data.mean())
        std = float(v.data.std())
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise NormalizationError(f"volume mean or deviation overflows float64: mean={mean!r}, std={std!r}")
    if std <= 1e-12 * max(1.0, abs(mean)):
        raise NormalizationError(f"volume has (near-)zero variance: std={std!r}")
    return Volume(_seal((v.data - mean) / std), v.spacing)


def _crop_pad_indices(n: int, t: int) -> tuple[slice, tuple[int, int]]:
    if n >= t:
        start = (n - t) // 2
        return slice(start, start + t), (0, 0)
    lo = (t - n) // 2
    return slice(0, n), (lo, t - n - lo)


def _crop_or_pad(obj, target_shape):
    _order(obj)
    t = tuple(int(x) for x in target_shape)
    if len(t) != 3 or any(x < 1 for x in t):
        raise DomainError(f"target shape must be three positive integers, got {target_shape!r}")
    _check_size(t, "crop/pad target")
    slices, pads = zip(*(_crop_pad_indices(n, ti) for n, ti in zip(obj.shape, t)))
    return type(obj)(_seal(np.pad(obj.data[tuple(slices)], pads)), obj.spacing)


def crop_or_pad(v: Volume, target_shape) -> Volume:
    """Center-crop or zero-pad each axis to `target_shape`.

    Cropping keeps the central window starting at (n - t) // 2; padding
    puts (t - n) // 2 zeros before the data and the remainder after.
    """
    return _crop_or_pad(v, target_shape)


def crop_or_pad_mask(m: BinaryMask, target_shape) -> BinaryMask:
    """Same window as `crop_or_pad`, padding with False."""
    return _crop_or_pad(m, target_shape)

