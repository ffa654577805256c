"""Segmentation losses: closed-form values, per-voxel oracles, FD gradients."""

import math

import numpy as np
import pytest

from oocs3d.errors import DimensionError, DomainError
from oocs3d.losses import PredictionPair, bce_dice_loss, bce_loss, soft_dice_loss
from oocs3d.tensor import FeatureMap

from oracles import central_difference, max_rel_err


def _pair(rng, shape=(3, 3, 3)):
    logits = FeatureMap(rng.normal(size=(1,) + shape))
    target = (rng.random(size=shape) < 0.5).astype(np.float64)
    return PredictionPair(logits, target)


def _naive_bce(logits, target):
    # textbook formula; safe because test logits stay moderate
    s = 1.0 / (1.0 + np.exp(-logits))
    return float(np.mean(-(target * np.log(s) + (1.0 - target) * np.log(1.0 - s))))


def _naive_dice_loss(logits, target, eps):
    s = 1.0 / (1.0 + np.exp(-logits))
    inter = float((s * target).sum())
    total = float(s.sum() + target.sum())
    return 1.0 - (2.0 * inter + eps) / (total + eps)


class TestPredictionPair:
    def test_validation(self):
        with pytest.raises(DimensionError):
            PredictionPair(FeatureMap(np.zeros((2, 3, 3, 3))), np.zeros((3, 3, 3)))
        with pytest.raises(DimensionError):
            PredictionPair(FeatureMap(np.zeros((1, 3, 3, 3))), np.zeros((3, 3, 2)))
        with pytest.raises(DomainError):
            PredictionPair(FeatureMap(np.zeros((1, 2, 2, 2))), np.full((2, 2, 2), 0.5))


class TestBce:
    def test_zero_logits_give_ln2(self):
        pair = PredictionPair(FeatureMap(np.zeros((1, 2, 2, 2))), np.ones((2, 2, 2)))
        loss, _ = bce_loss(pair)
        assert loss == pytest.approx(math.log(2.0), rel=1e-15)

    def test_confident_correct_prediction_vanishes(self):
        t = np.array([[[1.0, 0.0]]])
        z = FeatureMap(np.array([[[[30.0, -30.0]]]]))
        loss, _ = bce_loss(PredictionPair(z, t))
        assert 0.0 <= loss < 1e-12

    def test_matches_per_voxel_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            pair = _pair(rng)
            loss, _ = bce_loss(pair)
            assert abs(loss - _naive_bce(pair.logits.data[0], pair.target)) < 1e-12

    def test_stable_for_extreme_logits(self):
        z = FeatureMap(np.array([[[[800.0, -800.0]]]]))
        t = np.array([[[0.0, 1.0]]])
        loss, grad = bce_loss(PredictionPair(z, t))
        assert np.isfinite(loss) and loss == pytest.approx(800.0, rel=1e-12)
        assert np.isfinite(grad.data).all()

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(37)
        worst = 0.0
        for _ in range(20):
            pair = _pair(rng)
            _, grad = bce_loss(pair)

            def phi(z):
                return bce_loss(PredictionPair(FeatureMap(z), pair.target))[0]

            fd = central_difference(phi, pair.logits.data)
            worst = max(worst, max_rel_err(grad.data, fd))
        assert worst < 1e-7


class TestSoftDice:
    def test_both_background_with_unit_epsilon(self):
        # the smoothing term rescues the empty-empty case toward zero loss
        t = np.zeros((3, 3, 3))
        z = FeatureMap(np.full((1, 3, 3, 3), -40.0))
        loss, _ = soft_dice_loss(PredictionPair(z, t))
        assert abs(loss) < 1e-9

    def test_confident_perfect_prediction_near_zero(self):
        rng = np.random.default_rng(41)
        t = (rng.random(size=(4, 4, 4)) < 0.5).astype(np.float64)
        z = FeatureMap(np.where(t > 0, 40.0, -40.0)[None])
        loss, _ = soft_dice_loss(PredictionPair(z, t))
        assert abs(loss) < 1e-6

    def test_matches_per_voxel_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(2):
            pair = _pair(rng)
            loss, _ = soft_dice_loss(pair)
            want = _naive_dice_loss(pair.logits.data[0], pair.target, 1.0)
            assert abs(loss - want) < 1e-12

    def test_loss_bounded(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            pair = _pair(rng)
            loss, _ = soft_dice_loss(pair)
            assert -1e-12 <= loss < 1.0

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(20):
            pair = _pair(rng)
            _, grad = soft_dice_loss(pair)

            def phi(z):
                return soft_dice_loss(PredictionPair(FeatureMap(z), pair.target))[0]

            fd = central_difference(phi, pair.logits.data)
            worst = max(worst, max_rel_err(grad.data, fd))
        assert worst < 1e-6


class TestCompound:
    def test_component_linearity(self):
        # the compound is the unit-weight sum of its parts, bit for bit
        pair = _pair(np.random.default_rng(59))
        lb, gb = bce_loss(pair)
        ld, gd = soft_dice_loss(pair)
        lc, gc = bce_dice_loss(pair)
        assert lc == lb + ld
        assert np.array_equal(gc.data, gb.data + gd.data)

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(20):
            pair = _pair(rng)
            _, grad = bce_dice_loss(pair)

            def phi(z):
                return bce_dice_loss(PredictionPair(FeatureMap(z), pair.target))[0]

            fd = central_difference(phi, pair.logits.data)
            worst = max(worst, max_rel_err(grad.data, fd))
        assert worst < 1e-6
