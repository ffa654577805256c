"""Robustness perturbations: Gaussian blur, additive noise, motion artifacts.

Each perturbation maps a Volume to a new Volume with the same shape and
spacing.  All randomness is seeded; the same parameters and input always
produce the same output.

Motion moves copies of the volume rigidly.  Physical coordinates are
(z, y, x) in millimeters, index coordinates are (D, H, W) voxels;
rotations and translations act in physical space, so anisotropic
spacing is handled by conjugating with the spacing diagonal.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import affine_transform, correlate1d

from ._strips import for_strips
from .errors import DomainError
from .rng import make_rng
from .tensor import Volume, _check_size, _seal


def rotation_matrix_zyx(angles_deg) -> np.ndarray:
    """Rotation acting on physical (z, y, x) vectors.

    `angles_deg` are rotations about the z, y, and x axes, composed as
    Rz @ Ry @ Rx.
    """
    az, ay, ax = (math.radians(float(a)) for a in angles_deg)
    cz, sz = math.cos(az), math.sin(az)
    cy, sy = math.cos(ay), math.sin(ay)
    cx, sx = math.cos(ax), math.sin(ax)
    rz = np.array([[1.0, 0.0, 0.0], [0.0, cz, sz], [0.0, -sz, cz]])
    ry = np.array([[cy, 0.0, -sy], [0.0, 1.0, 0.0], [sy, 0.0, cy]])
    rx = np.array([[cx, sx, 0.0], [-sx, cx, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def rigid_index_map(shape, spacing, rot_deg, trans_mm):
    """Index-space (matrix, offset) for sampling out(j) = in(matrix @ j + offset).

    The content transform moves a physical point p to c + R (p - c) + t,
    about the volume center c; the returned map is its inverse expressed
    on index coordinates.
    """
    sp = np.asarray(spacing, dtype=np.float64)
    inv = rotation_matrix_zyx(rot_deg).T
    center = sp * (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    trans = np.asarray(trans_mm, dtype=np.float64)
    matrix = inv * sp[None, :] / sp[:, None]
    offset = (center - inv @ (center + trans)) / sp
    return matrix, offset


def resample_rows(
    data: np.ndarray, matrix: np.ndarray, offset: np.ndarray, out: np.ndarray, rows: slice
) -> None:
    """Write rows `rows` of the H axis of a trilinear affine resample into out[:, rows].

    Samples out(j) = in(matrix @ j + offset), with zeros outside the
    input footprint.  Row y of the strip is row rows.start + y of the
    whole, so the strip's offset absorbs matrix @ (0, rows.start, 0).
    That sum may round differently from the whole volume's map (rows
    slice(0, H)), moving a sample coordinate by its last bit; a
    coordinate exactly on the input's last index can then land just
    outside it and read 0 instead of the edge value.
    """
    affine_transform(
        data, matrix, offset=offset + matrix[:, 1] * rows.start, output=out[:, rows],
        order=1, mode="constant", cval=0.0, prefilter=False,
    )


def gaussian_blur(v: Volume, sigma: float) -> Volume:
    """Separable Gaussian smoothing with a renormalized truncated kernel.

    The 1D kernel extends ceil(4 sigma) taps each side and is rescaled to
    sum exactly to one, so constants pass through within roundoff; edges
    use reflection.  Each pass runs on strips of an axis it does not
    filter, so every line sums exactly as in one whole-volume pass.
    """
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    # 8 sigma + 3 bounds the 2 ceil(4 sigma) + 1 taps before the ceiling can overflow
    _check_size((8.0 * sigma + 3.0,), f"blur kernel for sigma={sigma!r}")
    radius = math.ceil(4.0 * sigma)
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    kern = np.exp(-(offs ** 2) / (2.0 * sigma * sigma))
    kern /= kern.sum()

    def filter_rows(rows):
        idx = (slice(None),) * along + (rows,)
        correlate1d(src[idx], kern, axis=axis, output=dst[idx], mode="reflect")

    src = v.data
    for axis in range(3):
        dst = np.empty(v.shape)
        along = 0 if axis == 1 else 1
        for_strips(v.shape[along], filter_rows)
        src = dst
    return Volume(_seal(src), v.spacing)


def gaussian_noise(v: Volume, sigma: float, seed: int) -> Volume:
    """Additive zero-mean Gaussian noise of standard deviation `sigma`."""
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    rng = make_rng(seed)
    return Volume(_seal(v.data + rng.normal(0.0, sigma, size=v.shape)), v.spacing)


def motion_artifact(
    v: Volume,
    n_transforms: int = 1,
    max_rot_deg: float = 10.0,
    max_trans_mm: float = 10.0,
    seed: int = 0,
) -> Volume:
    """Composite k-space motion corruption.

    Makes `n_transforms` rigidly moved copies of the volume (rotation
    angles and translations drawn uniformly within the bounds, motion
    about the volume center, trilinear resampling with zeros outside),
    then splices the spectra: the first-axis frequency range is split
    into n_transforms + 1 equal slabs (remainder to the last), slab 0
    taken from the unmoved volume and slab j from moved copy j.  Returns
    the real part of the inverse transform.  The depth must be at least
    n_transforms + 1 so that every slab, the unmoved one included, is
    non-empty.

    The slabs depend on the depth frequency only, so the H and W
    transforms cancel between the forward and inverse 3-D FFTs and the
    splice runs along depth alone.  Its real part is the inverse real
    FFT of the Hermitian half-spectrum
    H[k] = (R_s(k)[k] + R_s(-k mod D)[k]) / 2, k = 0..D//2, where R_j is
    the depth rfft of copy j and s(k) the slab of frequency k.  Each
    copy's weighted half-spectrum is added into H as the copy is made,
    so no full spectrum per copy is kept.  All transforms are drawn
    first; then each strip of H rows makes, transforms and adds every
    copy's rows, since the depth transform never mixes rows, and ends
    with the inverse transform of its rows of H, written over its rows
    of the moved-copy buffer, which it no longer needs and which becomes
    the result.  A strip's resample can move a sample coordinate by its
    last bit (see resample_rows): a few ulps inside the input, but a
    sample that lands exactly on the input's border can flip between the
    edge value and 0, which the depth irfft spreads along that voxel's
    depth line.
    """
    if n_transforms < 1:
        raise DomainError(f"n_transforms must be >= 1, got {n_transforms}")
    if v.shape[0] < n_transforms + 1:
        raise DomainError(
            f"motion needs depth D >= n + 1 for n={n_transforms} transforms, got D={v.shape[0]}"
        )
    # a draw spans [-b, b], so its width 2b must be finite too
    if not all(b >= 0.0 and math.isfinite(2.0 * b) for b in (max_rot_deg, max_trans_mm)):
        raise DomainError(
            f"motion amplitude bounds must be finite and >= 0, got {max_rot_deg!r}, {max_trans_mm!r}"
        )
    # -0.0 passes the check, but uniform(0.0, -0.0) refuses its bounds
    max_rot_deg, max_trans_mm = abs(max_rot_deg), abs(max_trans_mm)
    d = v.shape[0]
    rng = make_rng(seed)
    maps = []
    for _ in range(n_transforms):
        angles = rng.uniform(-max_rot_deg, max_rot_deg, size=3)
        trans = rng.uniform(-max_trans_mm, max_trans_mm, size=3)
        maps.append(rigid_index_map(v.shape, v.spacing, angles, trans))
    slab = np.minimum(np.arange(d) // (d // (n_transforms + 1)), n_transforms)
    k = np.arange(d // 2 + 1)
    weights = [(0.5 * (slab[k] == j) + 0.5 * (slab[-k % d] == j))[:, None, None]
               for j in range(n_transforms + 1)]
    copy = np.empty(v.shape)
    spec = np.empty((k.size,) + v.shape[1:], dtype=np.complex128)
    half = np.zeros_like(spec)

    def splice_strip(rows):
        for j, weight in enumerate(weights):
            moved = v.data
            if j:
                resample_rows(v.data, *maps[j - 1], copy, rows)
                moved = copy
            np.fft.rfft(moved[:, rows], axis=0, out=spec[:, rows])
            spec[:, rows] *= weight
            half[:, rows] += spec[:, rows]
        # the last copy's rows are spent, so the result takes their place
        np.fft.irfft(half[:, rows], n=d, axis=0, out=copy[:, rows])

    for_strips(v.shape[1], splice_strip)
    return Volume(_seal(copy), v.spacing)
