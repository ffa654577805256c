"""Volume preprocessing: resampling, normalization, shaping, augmentation.

Resampling maps voxel centers: output index j on an axis with input
spacing s_in and target spacing s_t samples the input at
u = (j + 0.5) * s_t / s_in - 0.5, clamped to the valid index range, so
the two grids share their physical origin at the first voxel's leading
edge.  Each axis is its own 1-D pass: images interpolate linearly
(trilinear overall), masks take voxel floor(u + 0.5), so ties round up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._geom import resample_affine, rigid_index_map
from .errors import DimensionError, DomainError, NormalizationError, ResampleError
from .rng import make_rng
from .tensor import BinaryMask, Volume, _check_size, _check_spacing


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
        u = np.clip((np.arange(n_out) + 0.5) * (s_t / s_in) - 0.5, 0.0, n_in - 1.0)
        if order == 0:
            out = np.take(out, np.floor(u + 0.5).astype(np.intp), axis=axis)
            continue
        i0 = np.floor(u).astype(np.intp)
        f = (u - i0).reshape((-1,) + (1,) * (out.ndim - 1 - axis))
        # (1 - f) * lo + f * hi, computed in place to spare two full-size temporaries
        hi = np.take(out, np.minimum(i0 + 1, n_in - 1), axis=axis)
        hi *= f
        out = np.take(out, i0, axis=axis)
        out *= 1.0 - f
        out += hi
    return type(obj)(out, ts)


def resample(v: Volume, target_spacing) -> Volume:
    """Trilinear resample onto an isotropic-or-not target spacing."""
    return _resample(v, target_spacing)


def resample_mask(m: BinaryMask, target_spacing) -> BinaryMask:
    """Nearest-neighbor resample (ties round up); output stays strictly binary."""
    return _resample(m, target_spacing)


def zscore(v: Volume) -> Volume:
    """Per-volume standardization to zero mean and unit deviation.

    A volume whose deviation is zero at float resolution (relative to
    its mean level) cannot be standardized and raises.
    """
    mean = float(v.data.mean())
    std = float(v.data.std())
    if std <= 1e-12 * max(1.0, abs(mean)):
        raise NormalizationError(f"volume has (near-)zero variance: std={std!r}")
    return Volume((v.data - mean) / std, v.spacing)


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
    return type(obj)(np.pad(obj.data[tuple(slices)], pads), obj.spacing)


def crop_or_pad(v: Volume, target_shape) -> Volume:
    """Center-crop or zero-pad each axis to `target_shape`.

    Cropping keeps the central window starting at (n - t) // 2; padding
    puts (t - n) // 2 zeros before the data and the remainder after.
    """
    return _crop_or_pad(v, target_shape)


def crop_or_pad_mask(m: BinaryMask, target_shape) -> BinaryMask:
    """Same window as `crop_or_pad`, padding with False."""
    return _crop_or_pad(m, target_shape)


def flip_axial(obj):
    """Mirror a Volume or BinaryMask along the W axis."""
    _order(obj)
    return type(obj)(np.flip(obj.data, axis=2), obj.spacing)


def _affine(obj, scale, rot_deg, trans_mm):
    order = _order(obj)
    if not (np.isfinite(scale) and scale > 0.0):
        raise DomainError(f"scale must be positive, got {scale!r}")
    matrix, offset = rigid_index_map(obj.shape, obj.spacing, rot_deg, trans_mm, scale)
    return type(obj)(resample_affine(obj.data, matrix, offset, order), obj.spacing)


def affine_volume(v: Volume, scale=1.0, rot_deg=(0.0, 0.0, 0.0), trans_mm=(0.0, 0.0, 0.0)) -> Volume:
    """Scaled rigid transform about the volume center; trilinear, zeros outside."""
    return _affine(v, scale, rot_deg, trans_mm)


def affine_mask(m: BinaryMask, scale=1.0, rot_deg=(0.0, 0.0, 0.0), trans_mm=(0.0, 0.0, 0.0)) -> BinaryMask:
    """Same geometry as `affine_volume`, nearest-neighbor, False outside."""
    return _affine(m, scale, rot_deg, trans_mm)


@dataclass(frozen=True)
class AugmentSpec:
    """Random augmentation amplitudes; zeros disable a component."""

    flip: bool = True
    max_scale_delta: float = 0.1
    max_rot_deg: float = 10.0
    max_trans_mm: float = 5.0

    def __post_init__(self):
        if not (0.0 <= self.max_scale_delta < 1.0):
            raise DomainError(f"max_scale_delta must lie in [0, 1), got {self.max_scale_delta!r}")
        if self.max_rot_deg < 0.0 or self.max_trans_mm < 0.0:
            raise DomainError("augmentation amplitudes must be >= 0")


def augment(v: Volume, m: BinaryMask, spec: AugmentSpec, seed: int) -> tuple[Volume, BinaryMask]:
    """Apply one random flip + scaled rigid transform to an aligned pair.

    Image and mask see exactly the same geometry; draws come from a
    Philox stream in a fixed order (flip coin, scale, angles,
    translation), so a seed fully determines the augmentation.
    """
    if v.shape != m.shape or v.spacing != m.spacing:
        raise DimensionError("image and mask must share shape and spacing")
    rng = make_rng(seed)
    do_flip = spec.flip and rng.random() < 0.5
    scale = 1.0 + rng.uniform(-spec.max_scale_delta, spec.max_scale_delta)
    angles = rng.uniform(-spec.max_rot_deg, spec.max_rot_deg, size=3)
    trans = rng.uniform(-spec.max_trans_mm, spec.max_trans_mm, size=3)
    if do_flip:
        v = flip_axial(v)
        m = flip_axial(m)
    return (
        affine_volume(v, scale, angles, trans),
        affine_mask(m, scale, angles, trans),
    )
