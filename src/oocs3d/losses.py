"""Segmentation losses on logits, each returning (value, gradient).

Binary cross-entropy uses the overflow-free form

    bce(z, t) = max(z, 0) - z * t + log(1 + exp(-|z|))

averaged over voxels; soft Dice runs on sigmoid probabilities with an
additive smoothing term `_DICE_EPS` in both numerator and denominator.
Gradients are analytic, with respect to the logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DimensionError, DomainError
from .tensor import FeatureMap, _seal, _zero_one

_DICE_EPS = 1.0


@dataclass(frozen=True)
class PredictionPair:
    """Single-channel logits with a matching hard binary target."""

    logits: FeatureMap
    target: np.ndarray

    def __post_init__(self):
        if self.logits.channels != 1:
            raise DimensionError(f"logits must be single-channel, got C={self.logits.channels}")
        raw = np.asarray(self.target)
        if raw.shape != self.logits.data.shape[1:]:
            raise DimensionError(
                f"target shape {raw.shape} does not match logits spatial shape {self.logits.data.shape[1:]}"
            )
        if not _zero_one(raw):
            raise DomainError("target values must be exactly 0 or 1")
        object.__setattr__(self, "target", _seal(raw.astype(np.float64)))


def bce_loss(pair: PredictionPair) -> tuple[float, FeatureMap]:
    """Mean binary cross-entropy; gradient is (sigmoid(z) - t) / N."""
    z = pair.logits.data[0]
    t = pair.target
    per_voxel = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    grad = (expit(z) - t) / n
    return float(per_voxel.mean()), FeatureMap(_seal(grad)[None])


def soft_dice_loss(pair: PredictionPair) -> tuple[float, FeatureMap]:
    """One minus the smoothed soft Dice overlap of sigmoid(z) and t."""
    z = pair.logits.data[0]
    t = pair.target
    s = expit(z)
    eps = _DICE_EPS
    inter = float((s * t).sum())
    total = float(s.sum() + t.sum())
    loss = 1.0 - (2.0 * inter + eps) / (total + eps)
    # d loss / d s, then chain through the sigmoid
    d_s = -(2.0 * t * (total + eps) - (2.0 * inter + eps)) / (total + eps) ** 2
    grad = d_s * s * (1.0 - s)
    return loss, FeatureMap(_seal(grad)[None])


def bce_dice_loss(pair: PredictionPair) -> tuple[float, FeatureMap]:
    """Sum of the two losses; the gradient is the sum of theirs."""
    l_bce, g_bce = bce_loss(pair)
    l_dice, g_dice = soft_dice_loss(pair)
    return l_bce + l_dice, FeatureMap(_seal(g_bce.data + g_dice.data))
