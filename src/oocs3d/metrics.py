"""Overlap and surface-distance metrics on binary masks.

Both metrics require the two masks to share shape and spacing; distances
are measured in millimeters on physical voxel-center coordinates.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import DimensionError, UndefinedDistanceError
from .tensor import BinaryMask


def _check_compatible(a: BinaryMask, b: BinaryMask) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes differ: {a.shape} vs {b.shape}")
    if a.spacing != b.spacing:
        raise DimensionError(f"mask spacings differ: {a.spacing} vs {b.spacing}")


def dice(a: BinaryMask, b: BinaryMask) -> float:
    """Dice overlap 2|A n B| / (|A| + |B|); two empty masks score 1.0."""
    _check_compatible(a, b)
    na = a.count
    nb = b.count
    if na == 0 and nb == 0:
        return 1.0
    inter = int(np.logical_and(a.data, b.data).sum())
    return 2.0 * inter / (na + nb)


def _directed_mm(a: np.ndarray, b: np.ndarray, start: np.ndarray, spacing: np.ndarray) -> float:
    """Farthest distance in mm from a voxel of mask A to its nearest voxel of B.

    `a` and `b` are the masks cropped to a box whose first voxel sits at
    index `start` of the whole volume; indices get `start` back before
    they are scaled, so every coordinate is the same float as uncropped.
    Only voxels of A outside B are queried; the rest are at distance 0.
    The tree holds B's 6-connected edge only (voxels on the box border
    count as edge): from a point outside B, one axis step toward it from
    any interior voxel of B stays in B and is strictly closer under any
    spacing, so the nearest voxel of B is always an edge one and the
    result is the same float as against all of B.
    """
    outside = np.argwhere(a & ~b)
    if not len(outside):
        return 0.0
    edge = np.argwhere(_edge(b))
    return float(cKDTree((edge + start) * spacing).query((outside + start) * spacing)[0].max())


def _edge(b: np.ndarray) -> np.ndarray:
    """The voxels of B with a 6-neighbour outside B; every voxel on the array's border counts.

    An interior voxel is one of B whose six neighbours are all in B:
    six shifted ANDs over the array less its border layer.
    """
    core = (slice(1, -1),) * 3
    inner = b[core].copy()
    for axis in range(3):
        for lo in (0, 2):
            near = list(core)
            near[axis] = slice(lo, lo + b.shape[axis] - 2)
            inner &= b[tuple(near)]
    edge = b.copy()
    edge[core] &= ~inner
    return edge


def _joint_box(a: np.ndarray, b: np.ndarray) -> tuple[slice, ...]:
    """The bounding box of A or B, grown by one voxel on each side and clipped to the volume."""
    both = a | b
    box = []
    for axis in range(3):
        hit = np.flatnonzero(both.any(axis=tuple(i for i in range(3) if i != axis)))
        box.append(slice(max(int(hit[0]) - 1, 0), int(hit[-1]) + 2))
    return tuple(box)


def hausdorff_mm(a: BinaryMask, b: BinaryMask) -> float:
    """Symmetric Hausdorff distance in millimeters between mask foregrounds.

    max over both directions of the farthest nearest-neighbor distance.
    An empty mask has no surface to measure from, so either side being
    empty raises instead of returning a sentinel.  Both directions run on
    the masks' joint bounding box (`_joint_box`), which holds every voxel
    either direction reads.
    """
    _check_compatible(a, b)
    if a.count == 0 or b.count == 0:
        raise UndefinedDistanceError("Hausdorff distance is undefined for an empty mask")
    sp = np.asarray(a.spacing, dtype=np.float64)
    box = _joint_box(a.data, b.data)
    start = np.array([s.start for s in box])
    ca, cb = a.data[box], b.data[box]
    return max(_directed_mm(ca, cb, start, sp), _directed_mm(cb, ca, start, sp))
