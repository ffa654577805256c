"""Robustness perturbations: Gaussian blur, additive noise, motion artifacts.

Each perturbation maps a Volume to a new Volume with the same shape and
spacing.  All randomness is seeded; the same (spec, input) pair always
produces the same output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from ._geom import resample_affine, rigid_index_map
from .errors import ConfigError, DomainError
from .rng import make_rng
from .tensor import Volume

KINDS = ("gaussian_blur", "gaussian_noise", "motion")


@dataclass(frozen=True)
class PerturbSpec:
    """Which perturbation to run and its parameters.

    `sigma` is in voxels for the blur and in intensity units for the
    noise; motion ignores it.
    """

    kind: str
    sigma: float = 1.0
    n_transforms: int = 1
    max_rot_deg: float = 10.0
    max_trans_mm: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind in ("gaussian_blur", "gaussian_noise"):
            if not (np.isfinite(self.sigma) and self.sigma > 0.0):
                raise DomainError(f"sigma must be positive, got {self.sigma!r}")
        if self.kind == "motion":
            if self.n_transforms < 1:
                raise DomainError(f"n_transforms must be >= 1, got {self.n_transforms}")
            if self.max_rot_deg < 0.0 or self.max_trans_mm < 0.0:
                raise DomainError("motion amplitude bounds must be >= 0")


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
    """
    if n_transforms < 1:
        raise DomainError(f"n_transforms must be >= 1, got {n_transforms}")
    if v.shape[0] < n_transforms + 1:
        raise DomainError(
            f"motion needs depth D >= n + 1 for n={n_transforms} transforms, got D={v.shape[0]}"
        )
    if max_rot_deg < 0.0 or max_trans_mm < 0.0:
        raise DomainError("motion amplitude bounds must be >= 0")
    rng = make_rng(seed)
    spectra = [np.fft.fftn(v.data)]
    for _ in range(n_transforms):
        angles = rng.uniform(-max_rot_deg, max_rot_deg, size=3)
        trans = rng.uniform(-max_trans_mm, max_trans_mm, size=3)
        matrix, offset = rigid_index_map(v.shape, v.spacing, angles, trans)
        moved = resample_affine(v.data, matrix, offset, order=1)
        spectra.append(np.fft.fftn(moved))
    d = v.shape[0]
    n_slabs = n_transforms + 1
    base = d // n_slabs
    composite = np.empty_like(spectra[0])
    for j in range(n_slabs):
        lo = j * base
        hi = (j + 1) * base if j < n_slabs - 1 else d
        composite[lo:hi] = spectra[j][lo:hi]
    out = np.fft.ifftn(composite).real
    return Volume(out, v.spacing)


def apply(v: Volume, spec: PerturbSpec) -> Volume:
    """Dispatch on `spec.kind`."""
    if spec.kind == "gaussian_blur":
        return gaussian_blur(v, spec.sigma)
    if spec.kind == "gaussian_noise":
        return gaussian_noise(v, spec.sigma, spec.seed)
    return motion_artifact(v, spec.n_transforms, spec.max_rot_deg, spec.max_trans_mm, spec.seed)
