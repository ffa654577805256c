"""Robustness perturbations: Gaussian blur, additive noise, motion artifacts.

Each perturbation maps a Volume to a new Volume with the same shape and
spacing.  All randomness is seeded; the same parameters and input always
produce the same output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import correlate1d

from ._geom import resample_affine, rigid_index_map
from .errors import DomainError
from .rng import make_rng
from .tensor import Volume


def gaussian_blur(v: Volume, sigma: float) -> Volume:
    """Separable Gaussian smoothing with a renormalized truncated kernel.

    The 1D kernel extends ceil(4 sigma) taps each side and is rescaled to
    sum exactly to one, so constants pass through within roundoff; edges
    use reflection.
    """
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    radius = math.ceil(4.0 * sigma)
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    kern = np.exp(-(offs ** 2) / (2.0 * sigma * sigma))
    kern /= kern.sum()
    out = v.data
    for axis in range(3):
        out = correlate1d(out, kern, axis=axis, mode="reflect")
    return Volume(out, v.spacing)


def gaussian_noise(v: Volume, sigma: float, seed: int) -> Volume:
    """Additive zero-mean Gaussian noise of standard deviation `sigma`."""
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    rng = make_rng(seed)
    return Volume(v.data + rng.normal(0.0, sigma, size=v.shape), v.spacing)


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
    so no full spectrum per copy is kept.
    """
    if n_transforms < 1:
        raise DomainError(f"n_transforms must be >= 1, got {n_transforms}")
    if v.shape[0] < n_transforms + 1:
        raise DomainError(
            f"motion needs depth D >= n + 1 for n={n_transforms} transforms, got D={v.shape[0]}"
        )
    # each draw spans [-b, b], so the width 2b must be finite too
    if not all(b >= 0.0 and math.isfinite(2.0 * b) for b in (max_rot_deg, max_trans_mm)):
        raise DomainError(
            f"motion amplitude bounds must be finite and >= 0, got {max_rot_deg!r} and {max_trans_mm!r}"
        )
    d = v.shape[0]
    slab = np.minimum(np.arange(d) // (d // (n_transforms + 1)), n_transforms)
    k = np.arange(d // 2 + 1)
    rng = make_rng(seed)
    half = np.zeros((k.size,) + v.shape[1:], dtype=np.complex128)
    copy = v.data
    for j in range(n_transforms + 1):
        if j:
            angles = rng.uniform(-max_rot_deg, max_rot_deg, size=3)
            trans = rng.uniform(-max_trans_mm, max_trans_mm, size=3)
            matrix, offset = rigid_index_map(v.shape, v.spacing, angles, trans)
            copy = resample_affine(v.data, matrix, offset, order=1)
        weight = 0.5 * (slab[k] == j) + 0.5 * (slab[-k % d] == j)
        spec = np.fft.rfft(copy, axis=0)
        spec *= weight[:, None, None]
        half += spec
    return Volume(np.fft.irfft(half, n=d, axis=0), v.spacing)
