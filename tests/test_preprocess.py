"""Resampling, normalization, crop/pad, flips, affine moves, augmentation."""

import numpy as np
import pytest

from oocs3d.errors import DimensionError, DomainError, NormalizationError, ResampleError
from oocs3d.preprocess import (
    AugmentSpec,
    affine,
    augment,
    crop_or_pad,
    crop_or_pad_mask,
    flip_axial,
    resample,
    resample_mask,
    zscore,
)
from oocs3d.tensor import BinaryMask, Volume

from oracles import map_coordinates_resample


class TestResample:
    def test_identity_spacing_is_exact(self):
        rng = np.random.default_rng(137)
        v = Volume(rng.normal(size=(5, 6, 7)), spacing=(0.7, 1.1, 1.3))
        out = resample(v, (0.7, 1.1, 1.3))
        assert out.shape == v.shape
        assert np.abs(out.data - v.data).max() < 1e-12
        assert out.spacing == (0.7, 1.1, 1.3)

    def test_constant_stays_constant(self):
        v = Volume(np.full((6, 6, 6), 1.75), spacing=(1.0, 1.0, 1.0))
        out = resample(v, (0.8, 1.3, 2.1))
        assert np.abs(out.data - 1.75).max() < 1e-12

    def test_output_shape_rounds_half_up(self):
        # 5 voxels at spacing 1 resampled to spacing 2: 5/2 rounds to 3,
        # where banker's rounding would give 2
        v = Volume(np.zeros((5, 5, 5)), spacing=(1.0, 1.0, 1.0))
        out = resample(v, (2.0, 2.0, 2.0))
        assert out.shape == (3, 3, 3)

    def test_linear_ramp_downsampled_exactly_in_interior(self):
        # trilinear interpolation reproduces affine functions of the
        # physical coordinate wherever no clamping happens
        shape = (12, 10, 8)
        z, y, x = np.indices(shape, dtype=np.float64)
        v = Volume(2.0 * z - 0.5 * y + 0.25 * x, spacing=(1.0, 1.0, 1.0))
        out = resample(v, (2.0, 2.0, 2.0))
        oz, oy, ox = np.indices(out.shape, dtype=np.float64)
        # voxel-center alignment: output index j sits at physical (j+0.5)*2 - 0.5
        want = (
            2.0 * ((oz + 0.5) * 2.0 - 0.5)
            - 0.5 * ((oy + 0.5) * 2.0 - 0.5)
            + 0.25 * ((ox + 0.5) * 2.0 - 0.5)
        )
        assert np.abs(out.data - want).max() < 1e-9

    def test_round_trip_error_small_on_smooth_volume(self):
        # band-limited relative to the 2x decimation: shortest wavelength
        # here is ~50 voxels
        z, y, x = np.indices((24, 24, 24), dtype=np.float64)
        v = Volume(np.sin(z / 8.0) * np.cos(y / 9.0) + 0.05 * x)
        down = resample(v, (2.0, 2.0, 2.0))
        back = resample(down, (1.0, 1.0, 1.0))
        assert back.shape == v.shape
        rel = np.linalg.norm(back.data - v.data) / np.linalg.norm(v.data)
        assert rel < 0.02

    def test_mask_resample_stays_binary(self):
        rng = np.random.default_rng(139)
        m = BinaryMask(rng.random(size=(8, 8, 8)) < 0.5, spacing=(1.0, 1.0, 1.0))
        out = resample_mask(m, (0.5, 0.5, 0.5))
        assert out.data.dtype == np.bool_
        assert out.shape == (16, 16, 16)
        # nearest-neighbour upsampling by 2 replicates each voxel
        assert out.count == 8 * m.count

    def test_degenerate_target_rejected(self):
        v = Volume(np.zeros((2, 2, 2)), spacing=(1.0, 1.0, 1.0))
        with pytest.raises(ResampleError):
            resample(v, (100.0, 100.0, 100.0))
        with pytest.raises(DomainError):
            resample(v, (0.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "shape, spacing, target",
        [
            ((5, 6, 7), (0.7, 1.1, 1.3), (0.7, 1.1, 1.3)),
            ((12, 9, 10), (1.5, 1.0, 1.0), (1.0, 1.0, 1.0)),
            ((10, 12, 9), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)),  # every u is an exact .5 tie
            ((7, 5, 6), (1.0, 1.0, 1.0), (0.5, 0.5, 0.5)),
            ((13, 17, 11), (1.3, 0.7, 2.1), (0.9, 1.1, 1.7)),
            ((3, 6, 6), (1.0, 1.0, 1.0), (2.5, 1.0, 1.0)),
        ],
        ids=["identity", "anisotropic_to_1mm", "downsample_2", "upsample_2", "odd_ratios",
             "axis_to_1_voxel"],
    )
    def test_matches_dense_grid_oracle(self, shape, spacing, target):
        rng = np.random.default_rng(193)
        image = rng.normal(50.0, 30.0, size=shape)
        mask = rng.random(size=shape) < 0.5
        want_v = map_coordinates_resample(image, spacing, target, order=1)
        want_m = map_coordinates_resample(mask, spacing, target, order=0)
        out_v = resample(Volume(image, spacing), target)
        out_m = resample_mask(BinaryMask(mask, spacing), target)
        assert out_v.shape == want_v.shape
        assert np.abs(out_v.data - want_v).max() <= 1e-12 * np.abs(want_v).max()
        np.testing.assert_array_equal(out_m.data, want_m)


class TestZscore:
    def test_moments_after_normalization(self):
        rng = np.random.default_rng(149)
        v = Volume(rng.normal(3.0, 2.5, size=(7, 7, 7)))
        out = zscore(v)
        assert abs(out.data.mean()) < 1e-9
        assert abs(out.data.std() - 1.0) < 1e-9

    def test_affine_invariance(self):
        rng = np.random.default_rng(151)
        base = rng.normal(size=(6, 6, 6))
        a = zscore(Volume(base))
        b = zscore(Volume(4.0 * base + 7.0))
        assert np.abs(a.data - b.data).max() < 1e-9

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(157)
        once = zscore(Volume(rng.normal(size=(6, 6, 6))))
        twice = zscore(once)
        assert np.abs(twice.data - once.data).max() < 1e-9

    def test_constant_volume_rejected(self):
        with pytest.raises(NormalizationError):
            zscore(Volume(np.full((4, 4, 4), 3.5)))


class TestCropOrPad:
    def test_central_crop_indices(self):
        v = Volume(np.arange(64.0).reshape(4, 4, 4))
        out = crop_or_pad(v, (2, 2, 2))
        np.testing.assert_array_equal(out.data, v.data[1:3, 1:3, 1:3])

    def test_pad_surrounds_with_zeros(self):
        v = Volume(np.arange(8.0).reshape(2, 2, 2) + 1.0)
        out = crop_or_pad(v, (4, 4, 4))
        assert out.shape == (4, 4, 4)
        np.testing.assert_array_equal(out.data[1:3, 1:3, 1:3], v.data)
        assert (out.data == 0).sum() == 64 - 8

    def test_mixed_crop_and_pad(self):
        v = Volume(np.arange(2.0 * 5 * 3).reshape(2, 5, 3))
        out = crop_or_pad(v, (4, 3, 3))
        assert out.shape == (4, 3, 3)
        np.testing.assert_array_equal(out.data[1:3, :, :], v.data[:, 1:4, :])

    def test_identity(self):
        rng = np.random.default_rng(163)
        v = Volume(rng.normal(size=(3, 4, 5)))
        np.testing.assert_array_equal(crop_or_pad(v, (3, 4, 5)).data, v.data)

    def test_mask_variant(self):
        m = BinaryMask(np.ones((2, 2, 2), dtype=bool))
        out = crop_or_pad_mask(m, (4, 4, 4))
        assert out.count == 8
        assert out.data.dtype == np.bool_

    def test_bad_target_rejected(self):
        v = Volume(np.zeros((2, 2, 2)))
        with pytest.raises(DomainError):
            crop_or_pad(v, (0, 2, 2))


class TestFlip:
    def test_involution_and_axis(self):
        rng = np.random.default_rng(167)
        v = Volume(rng.normal(size=(3, 4, 5)))
        once = flip_axial(v)
        np.testing.assert_array_equal(once.data, v.data[:, :, ::-1])
        np.testing.assert_array_equal(flip_axial(once).data, v.data)

    def test_mask_flip(self):
        m = np.zeros((2, 2, 3), dtype=bool)
        m[0, 0, 0] = True
        out = flip_axial(BinaryMask(m))
        assert out.data[0, 0, 2] and out.count == 1


class TestAffine:
    def test_identity_transform_exact(self):
        rng = np.random.default_rng(173)
        v = Volume(rng.normal(size=(5, 5, 5)), spacing=(0.9, 1.0, 1.1))
        out = affine(v)
        assert np.abs(out.data - v.data).max() < 1e-12

    def test_quarter_turn_swaps_box_extents(self):
        # an axis-aligned box rotated 90 deg about the first axis swaps
        # its in-plane extents and keeps its voxel count
        data = np.zeros((9, 9, 9), dtype=bool)
        data[3:6, 4:5, 2:7] = True  # extents (3, 1, 5)
        m = BinaryMask(data, spacing=(1.0, 1.0, 1.0))
        out = affine(m, rot_deg=(90.0, 0.0, 0.0))
        assert out.count == m.count
        occ = np.argwhere(out.data)
        spans = occ.max(axis=0) - occ.min(axis=0) + 1
        assert tuple(spans) == (3, 5, 1)

    def test_four_quarter_turns_restore_mask(self):
        rng = np.random.default_rng(179)
        data = np.zeros((7, 7, 7), dtype=bool)
        data[2:5, 1:6, 3:5] = rng.random(size=(3, 5, 2)) < 0.7
        m = BinaryMask(data)
        out = m
        for _ in range(4):
            out = affine(out, rot_deg=(90.0, 0.0, 0.0))
        np.testing.assert_array_equal(out.data, m.data)

    def test_integer_translation_is_exact_shift(self):
        v = Volume(np.arange(27.0).reshape(3, 3, 3))
        out = affine(v, trans_mm=(0.0, 0.0, 1.0))
        # content moves one voxel along the last axis; the vacated face
        # fills with zeros
        np.testing.assert_allclose(out.data[:, :, 1:], v.data[:, :, :-1], atol=1e-12)
        assert np.abs(out.data[:, :, 0]).max() < 1e-12

    def test_level_set_consistency_on_grid_preserving_move(self):
        # threshold-then-transform equals transform-then-threshold when
        # the move maps grid points to grid points
        z, y, x = np.indices((9, 9, 9), dtype=np.float64)
        dist = np.sqrt((z - 4.0) ** 2 + (y - 4.0) ** 2 + (x - 4.0) ** 2)
        v = Volume(dist)
        m = BinaryMask(dist <= 2.5)
        rot = (90.0, 0.0, 0.0)
        out_v = affine(v, rot_deg=rot)
        out_m = affine(m, rot_deg=rot)
        np.testing.assert_array_equal(out_v.data <= 2.5, out_m.data)

    def test_bad_scale_rejected(self):
        with pytest.raises(DomainError):
            affine(Volume(np.zeros((2, 2, 2))), scale=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"rot_deg": (float("nan"), 0.0, 0.0)},
        {"trans_mm": (0.0, float("inf"), 0.0)},
        {"rot_deg": (0.0, 0.0)},
        {"trans_mm": (0.0, 0.0, 0.0, 0.0)},
    ], ids=["rot-nan", "trans-inf", "rot-two-values", "trans-four-values"])
    @pytest.mark.parametrize("obj", [Volume(np.ones((3, 3, 3))), BinaryMask(np.ones((3, 3, 3)))],
                             ids=["volume", "mask"])
    def test_non_finite_or_misshapen_geometry_rejected(self, obj, kwargs):
        # a NaN angle or an infinite shift used to return an all-zero volume
        with pytest.raises(DomainError):
            affine(obj, **kwargs)

    def test_type_picks_order_and_container(self):
        # a 0.75-voxel shift: the volume interpolates, the mask takes the
        # nearest voxel, so its box moves by one whole voxel
        data = np.zeros((5, 5, 5), dtype=bool)
        data[:, :, 1:3] = True
        v = affine(Volume(data.astype(float)), trans_mm=(0.0, 0.0, 0.75))
        m = affine(BinaryMask(data), trans_mm=(0.0, 0.0, 0.75))
        assert type(v) is Volume and type(m) is BinaryMask
        np.testing.assert_allclose(v.data[2, 2], [0.0, 0.25, 1.0, 0.75, 0.0], atol=1e-12)
        np.testing.assert_array_equal(m.data, np.roll(data, 1, axis=2))


class TestAugment:
    def _inputs(self, seed=181):
        rng = np.random.default_rng(seed)
        v = Volume(rng.normal(size=(8, 8, 8)))
        m = BinaryMask(rng.random(size=(8, 8, 8)) < 0.3)
        return v, m

    def test_determinism(self):
        v, m = self._inputs()
        spec = AugmentSpec()
        v1, m1 = augment(v, m, spec, seed=29)
        v2, m2 = augment(v, m, spec, seed=29)
        assert v1.data.tobytes() == v2.data.tobytes()
        assert m1.data.tobytes() == m2.data.tobytes()

    def test_zero_amplitude_spec_is_identity(self):
        v, m = self._inputs()
        spec = AugmentSpec(flip=False, max_scale_delta=0.0, max_rot_deg=0.0, max_trans_mm=0.0)
        va, ma = augment(v, m, spec, seed=31)
        np.testing.assert_allclose(va.data, v.data, atol=1e-12)
        np.testing.assert_array_equal(ma.data, m.data)

    def test_shapes_and_spacing_preserved(self):
        v, m = self._inputs()
        va, ma = augment(v, m, AugmentSpec(), seed=37)
        assert va.shape == v.shape and ma.shape == m.shape
        assert va.spacing == v.spacing

    def test_mismatched_inputs_rejected(self):
        rng = np.random.default_rng(191)
        v = Volume(rng.normal(size=(6, 6, 6)))
        m = BinaryMask(np.zeros((5, 6, 6), dtype=bool))
        with pytest.raises(DimensionError):
            augment(v, m, AugmentSpec(), seed=0)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            AugmentSpec(max_scale_delta=-0.1)
        with pytest.raises(DomainError):
            AugmentSpec(max_rot_deg=-5.0)

    @pytest.mark.parametrize("kwargs", [
        {"max_trans_mm": float("nan")}, {"max_rot_deg": float("inf")},
        {"max_rot_deg": 1e308}, {"max_trans_mm": -float("inf")}, {"max_scale_delta": float("nan")},
    ], ids=["trans-nan", "rot-inf", "rot-width-overflows", "trans-minus-inf", "scale-nan"])
    def test_spec_refuses_non_finite_bounds(self, kwargs):
        # each draw spans [-b, b]; numpy's uniform overflows when 2b does
        with pytest.raises(DomainError):
            AugmentSpec(**kwargs)
