"""Resampling, normalization, crop/pad."""

import tracemalloc

import numpy as np
import pytest

from oocs3d._strips import STRIP_ROWS
from oocs3d.errors import DimensionError, DomainError, NormalizationError, ResampleError
from oocs3d.preprocess import (
    crop_or_pad,
    crop_or_pad_mask,
    resample,
    resample_mask,
    zscore,
)
from oocs3d.tensor import BinaryMask, Volume

from oracles import map_coordinates_resample


class TestResample:
    def test_identity_spacing_is_exact(self):
        # an unchanged axis gets no pass, so even -0.0 keeps its sign
        data = np.random.default_rng(137).normal(size=(5, 6, 7))
        data[2, 3, 4] = -0.0
        v = Volume(data, spacing=(0.7, 1.1, 1.3))
        out = resample(v, (0.7, 1.1, 1.3))
        assert out.shape == v.shape
        assert out.data.tobytes() == v.data.tobytes()
        assert np.signbit(out.data[2, 3, 4])
        assert out.spacing == (0.7, 1.1, 1.3)

    def test_unchanged_axes_keep_their_values(self):
        # only the depth changes: the other two axes' values pass through
        data = np.random.default_rng(138).normal(size=(6, 5, 4))
        data[:, 1, 2] = -0.0
        out = resample(Volume(data, spacing=(2.0, 1.1, 1.3)), (1.0, 1.1, 1.3))
        assert out.shape == (12, 5, 4)
        assert np.signbit(out.data[:, 1, 2]).all()

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
            # output depth 2 * STRIP_ROWS + 5: two full strips and a short one for every pass
            ((31, 9, 8), (1.2, 1.0, 0.8), (1.0, 0.9, 0.7)),
        ],
        ids=["identity", "anisotropic_to_1mm", "downsample_2", "upsample_2", "odd_ratios",
             "axis_to_1_voxel", "three_strips"],
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
        if shape == (31, 9, 8):
            assert out_v.shape[0] == 2 * STRIP_ROWS + 5
        assert np.abs(out_v.data - want_v).max() <= 1e-12 * np.abs(want_v).max()
        np.testing.assert_array_equal(out_m.data, want_m)

    def test_peak_memory_with_one_changed_axis(self):
        # the output and the one blend buffer the pass needs, 2x the
        # output's bytes; 2.1x leaves room for small allocations, not
        # for a third volume-sized array
        v = Volume(np.random.default_rng(197).normal(size=(64, 48, 40)), spacing=(1.5, 1.0, 1.0))
        tracemalloc.start()
        try:
            out = resample(v, (1.0, 1.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (96, 48, 40)
        assert peak <= 2.1 * out.data.nbytes


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


@pytest.mark.parametrize("op, arg", [(resample, (1.0, 1.0, 1.0)), (crop_or_pad, (2, 2, 2))])
def test_bare_array_rejected(op, arg):
    with pytest.raises(DimensionError, match="expected a Volume or BinaryMask"):
        op(np.zeros((2, 2, 2)), arg)
