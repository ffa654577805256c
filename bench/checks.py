"""Output checks and the reference computations behind them.

Nothing here imports `oocs3d`: references are built from numpy and
scipy directly, so a defect in the library cannot pass its own check.
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy import ndimage

CONV_TOL = 1e-9  # absolute, against a scipy.ndimage.correlate reference
FD_TOL = 1e-5  # directional central difference vs analytic derivative, per gradient norm
ZSCORE_TOL = 0.1  # mean and std after the crop that follows --zscore


# ---------------------------------------------------------------- references

def correlate_same(volume: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded, shape-preserving cross-correlation."""
    return ndimage.correlate(volume, kernel, mode="constant", cval=0.0)


def conv_ref(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Multichannel (C_out, C_in, k, k, k) cross-correlation of a (C_in, D, H, W) map."""
    out = np.zeros((w.shape[0],) + x.shape[1:])
    for o in range(w.shape[0]):
        for i in range(w.shape[1]):
            out[o] += correlate_same(x[i], w[o, i])
        if b is not None:
            out[o] += b[o]
    return out


def block_ref(x: np.ndarray, p: dict) -> np.ndarray:
    """The two-pathway block: relu(conv2(relu(conv1(x) + fixed(x)))), On channels first.

    `p` maps "w1_on", "w1_off", "w2_on", "w2_off" to (weights, bias) pairs
    and "fixed_on", "fixed_off" to bare weights.
    """
    halves = []
    for pol in ("on", "off"):
        pre1 = conv_ref(x, *p["w1_" + pol]) + conv_ref(x, p["fixed_" + pol], None)
        halves.append(np.maximum(conv_ref(np.maximum(pre1, 0.0), *p["w2_" + pol]), 0.0))
    return np.concatenate(halves, axis=0)


def head_ref(y: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1x1x1 convolution to a single logit channel."""
    return np.tensordot(w.reshape(-1), y, axes=(0, 0)) + b[0]


def loss_ref(z: np.ndarray, t: np.ndarray, eps: float = 1.0) -> float:
    """Voxel-mean BCE on logits plus soft Dice loss on sigmoid(z), weights 1 and 1."""
    bce = np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z))))
    s = 1.0 / (1.0 + np.exp(-z))
    dice = 1.0 - (2.0 * np.sum(s * t) + eps) / (np.sum(s) + np.sum(t) + eps)
    return float(bce + dice)


def dice_ref(a: np.ndarray, b: np.ndarray) -> float:
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int(np.logical_and(a, b).sum()) / total


def hausdorff_ref(a: np.ndarray, b: np.ndarray, spacing) -> float:
    """Symmetric Hausdorff distance in mm from exact Euclidean distance transforms."""
    to_b = ndimage.distance_transform_edt(~b, sampling=spacing)
    to_a = ndimage.distance_transform_edt(~a, sampling=spacing)
    return float(max(to_b[a].max(), to_a[b].max()))


# -------------------------------------------------------------------- checks

def close(name: str, got: np.ndarray, want: np.ndarray, tol: float = CONV_TOL) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != expected {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    return [] if err <= tol else [f"{name}: max abs error {err:.3e} > {tol:.0e}"]


def filter_pair(on: np.ndarray, off: np.ndarray, reference: np.ndarray) -> list[str]:
    """On matches the reference response; Off is bitwise the negation of On."""
    problems = close("On response", on, reference)
    if off.shape != on.shape or not np.array_equal(off.view(np.uint64), (-on).view(np.uint64)):
        problems.append("Off response is not bitwise -On")
    return problems


def directional(name: str, analytic: float, central_difference: float, grad_norm: float,
                tol: float = FD_TOL) -> list[str]:
    """Along a unit direction |analytic - central difference| <= tol * |gradient|.

    Scaling by the gradient norm rather than by the directional derivative
    keeps the test well conditioned for directions nearly orthogonal to
    the gradient, where a single ReLU kink crossed by the step dominates.
    """
    err = abs(analytic - central_difference)
    if err <= tol * grad_norm:
        return []
    return [f"{name}: analytic {analytic:.9e} vs central difference {central_difference:.9e} "
            f"(error {err:.1e} > {tol:.0e} x gradient norm {grad_norm:.3e})"]


def finite(name: str, *arrays) -> list[str]:
    return [] if all(np.isfinite(a).all() for a in arrays) else [f"{name}: non-finite values"]


def geometry(name: str, shape, spacing, want_shape, want_spacing) -> list[str]:
    if tuple(shape) != tuple(want_shape) or not np.allclose(spacing, want_spacing, rtol=0, atol=1e-12):
        return [f"{name}: geometry {tuple(shape)} @ {tuple(spacing)} != {tuple(want_shape)} @ {tuple(want_spacing)}"]
    return []


def zscored(name: str, vol: np.ndarray, tol: float = ZSCORE_TOL) -> list[str]:
    mean, std = float(vol.mean()), float(vol.std())
    if abs(mean) <= tol and abs(std - 1.0) <= tol:
        return []
    return [f"{name}: mean {mean:.4f}, std {std:.4f}, expected about 0 and 1"]


def binary(name: str, mask: np.ndarray) -> list[str]:
    return [] if np.isin(mask, (0, 1)).all() else [f"{name}: values other than 0 and 1"]


def eval_csv(text: str, dsc: float, hsd_mm: float) -> list[str]:
    """The eval subcommand's CSV against Dice and Hausdorff recomputed independently."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or rows[0] != ["case", "dsc", "hsd_mm"]:
        return [f"eval CSV has unexpected layout: {rows!r}"]
    try:
        got_dsc, got_hsd = float(rows[1][1]), float(rows[1][2])
    except (IndexError, ValueError):
        return [f"eval CSV row is malformed: {rows[1]!r}"]
    problems = []
    if abs(got_dsc - dsc) > 1e-12:
        problems.append(f"dsc {got_dsc!r} != recomputed {dsc!r}")
    if abs(got_hsd - hsd_mm) > 1e-9:
        problems.append(f"hsd_mm {got_hsd!r} != recomputed {hsd_mm!r}")
    return problems


def gradcheck_rows(rows, expected: int) -> list[str]:
    """Every (config, seed) case of the gradient-check grid reports a pass."""
    if len(rows) != expected:
        return [f"gradcheck grid returned {len(rows)} rows, expected {expected}"]
    return [f"gradcheck case k={r.k_oocs} c_in={r.c_in} c_out={r.c_out} seed={r.seed} failed "
            f"(max_rel_err {r.max_rel_err:.2e})" for r in rows if not r.passed]
