"""Spacing-aware rigid/affine index maps, shared by perturbation and preprocessing.

Physical coordinates are (z, y, x) in millimeters, index coordinates are
(D, H, W) voxels; rotations and translations act in physical space, so
anisotropic spacing is handled by conjugating with the spacing diagonal.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .errors import DomainError


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


def _check_bounds(what: str, *bounds) -> None:
    """Raise DomainError unless each draw bound b is >= 0 with 2b finite.

    A draw spans [-b, b], so its width 2b must be finite too.
    """
    if not all(b >= 0.0 and math.isfinite(2.0 * b) for b in bounds):
        raise DomainError(f"{what} bounds must be finite and >= 0, got {', '.join(map(repr, bounds))}")


def rigid_index_map(shape, spacing, rot_deg, trans_mm, scale: float = 1.0):
    """Index-space (matrix, offset) for sampling out(j) = in(matrix @ j + offset).

    The content transform moves a physical point p to
    c + scale * R (p - c) + t, about the volume center c; the returned
    map is its inverse expressed on index coordinates.
    """
    sp = np.asarray(spacing, dtype=np.float64)
    rot = rotation_matrix_zyx(rot_deg)
    center = sp * (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    trans = np.asarray(trans_mm, dtype=np.float64)
    inv = rot.T / scale
    matrix = inv * sp[None, :] / sp[:, None]
    offset = (center - inv @ (center + trans)) / sp
    return matrix, offset


def resample_rows(
    data: np.ndarray, matrix: np.ndarray, offset: np.ndarray, order: int, out: np.ndarray, rows: slice
) -> None:
    """Write rows `rows` of the H axis of an affine resample into out[:, rows].

    Samples out(j) = in(matrix @ j + offset), with zeros outside the
    input footprint.  Row y of the strip is row rows.start + y of the
    whole, so the strip's offset absorbs matrix @ (0, rows.start, 0).
    That sum may round differently from the whole volume's map (rows
    slice(0, H)), moving a sample coordinate by its last bit; a
    coordinate exactly on the input's last index can then land just
    outside it and read 0 instead of the edge value.
    """
    ndimage.affine_transform(
        data, matrix, offset=offset + matrix[:, 1] * rows.start, output=out[:, rows],
        order=order, mode="constant", cval=0.0, prefilter=False,
    )
