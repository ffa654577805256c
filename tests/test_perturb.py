"""Robustness perturbations: blur, additive noise, k-space motion splicing."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from oocs3d._strips import STRIP_ROWS
from oocs3d.cli import main
from oocs3d.errors import DomainError
from oocs3d.perturb import gaussian_blur, gaussian_noise, motion_artifact, resample_rows, rigid_index_map
from oocs3d.rng import make_rng
from oocs3d.tensor import Volume

from oracles import fftn_motion_splice, separable_blur

# Frozen first-run output statistics of the spliced-spectrum motion model
# on a 12-wide checkerboard (n=5, rot 10 deg, trans 3 mm, seed 2026).
# Regression lock only; any change to draws, resampling, or slab policy
# must show up here.
GOLDEN_MOTION = {
    "sum": 864.0,
    "l2": 21.16641258859995,
    (6, 6, 6): 0.4530734916539285,
    (2, 9, 4): 0.4746824711099001,
    (11, 0, 7): 0.8550989034875076,
}


def _volume(rng, shape=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    return Volume(rng.normal(size=shape), spacing=spacing)


def _motion_copies(v, n, max_rot_deg, max_trans_mm, seed):
    """The unmoved volume and its n moved copies, drawn in the documented order.

    Each copy is one whole-volume scipy resample: trilinear, zeros
    outside, no prefilter.
    """
    draws = make_rng(seed)
    copies = [v.data]
    for _ in range(n):
        angles = draws.uniform(-max_rot_deg, max_rot_deg, size=3)
        trans = draws.uniform(-max_trans_mm, max_trans_mm, size=3)
        matrix, offset = rigid_index_map(v.shape, v.spacing, angles, trans)
        copies.append(ndimage.affine_transform(v.data, matrix, offset=offset, order=1,
                                               mode="constant", cval=0.0, prefilter=False))
    return copies


def _checkerboard(n):
    idx = np.indices((n, n, n)).sum(axis=0)
    return Volume((idx % 2).astype(np.float64))


class TestSpecValidation:
    def test_unknown_kind_rejected(self, tmp_path):
        # the CLI's --kind choices are the one list of kinds; anything else
        # is a usage error before any file is read or written
        out = tmp_path / "o.mha"
        with pytest.raises(SystemExit) as exc:
            main(["perturb", "--in", str(tmp_path / "in.mha"), "--out", str(out),
                  "--kind", "salt_pepper"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_sigma_must_be_positive_for_blur_and_noise(self):
        v = Volume(np.zeros((3, 3, 3)))
        with pytest.raises(DomainError):
            gaussian_blur(v, 0.0)
        with pytest.raises(DomainError):
            gaussian_noise(v, -1.0, 0)

    def test_motion_bounds(self):
        v = Volume(np.zeros((4, 3, 3)))
        with pytest.raises(DomainError):
            motion_artifact(v, n_transforms=0)
        with pytest.raises(DomainError):
            motion_artifact(v, max_rot_deg=-1.0)

    def test_negative_zero_motion_bounds_act_as_zero(self):
        v = Volume(np.random.default_rng(5).normal(size=(4, 3, 3)))
        want = motion_artifact(v, 2, 0.0, 0.0, seed=3).data.tobytes()
        assert motion_artifact(v, 2, -0.0, -0.0, seed=3).data.tobytes() == want

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            make_rng(-1)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), 1e308])
    @pytest.mark.parametrize("name", ["max_rot_deg", "max_trans_mm"])
    def test_motion_bounds_must_be_finite(self, name, bound):
        # NaN is not < 0, and uniform draws over [-1e308, 1e308] overflow
        with pytest.raises(DomainError):
            motion_artifact(Volume(np.zeros((4, 3, 3))), **{name: bound})


class TestBlur:
    def test_constant_preserved(self):
        v = Volume(np.full((6, 7, 8), 3.25))
        out = gaussian_blur(v, 2.0)
        assert np.abs(out.data - 3.25).max() < 1e-12
        assert out.spacing == v.spacing

    def test_variance_never_increases(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            v = _volume(rng, shape=(6, 6, 6))
            sigma = float(rng.uniform(0.3, 3.0))
            out = gaussian_blur(v, sigma)
            assert out.data.var() <= v.data.var() + 1e-12

    def test_impulse_matches_separable_gaussian_product(self):
        # radius ceil(4*2) = 8, so a 17-wide grid holds the full support
        # with no reflection involved
        sigma = 2.0
        data = np.zeros((17, 17, 17))
        data[8, 8, 8] = 1.0
        out = gaussian_blur(Volume(data), sigma).data
        offs = np.arange(-8, 9, dtype=np.float64)
        g = np.exp(-(offs ** 2) / (2.0 * sigma * sigma))
        g /= g.sum()
        want = g[:, None, None] * g[None, :, None] * g[None, None, :]
        assert np.abs(out - want).max() < 1e-9

    def test_commutes_with_axis_permutation(self):
        rng = np.random.default_rng(89)
        v = Volume(rng.normal(size=(5, 6, 7)))
        out_t = gaussian_blur(Volume(np.transpose(v.data, (2, 0, 1)).copy()), 1.5)
        t_out = np.transpose(gaussian_blur(v, 1.5).data, (2, 0, 1))
        assert np.abs(out_t.data - t_out).max() < 1e-9

    def test_mass_preserved_far_from_borders(self):
        # reflect borders conserve total mass exactly for any input
        rng = np.random.default_rng(97)
        v = _volume(rng, shape=(9, 9, 9))
        out = gaussian_blur(v, 1.0)
        assert out.data.sum() == pytest.approx(v.data.sum(), rel=1e-12, abs=1e-12)

    def test_bad_sigma_rejected(self):
        with pytest.raises(DomainError):
            gaussian_blur(Volume(np.zeros((3, 3, 3))), 0.0)


class TestNoise:
    def test_tiny_sigma_is_near_identity(self):
        rng = np.random.default_rng(101)
        v = _volume(rng)
        out = gaussian_noise(v, 1e-9, seed=5)
        assert np.abs(out.data - v.data).max() < 1e-6

    def test_sample_moments(self):
        sigma = 30.0
        v = Volume(np.zeros((100, 100, 100)))
        out = gaussian_noise(v, sigma, seed=7)
        delta = out.data - v.data
        assert abs(delta.mean()) < 4.0 * sigma / 1e3
        assert abs(delta.std() - sigma) < 0.01 * sigma

    def test_determinism_and_seed_sensitivity(self):
        rng = np.random.default_rng(103)
        v = _volume(rng)
        a = gaussian_noise(v, 2.0, seed=11)
        b = gaussian_noise(v, 2.0, seed=11)
        c = gaussian_noise(v, 2.0, seed=12)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.data.tobytes() != c.data.tobytes()


class TestMotion:
    def test_zero_amplitude_transforms_are_identity(self):
        rng = np.random.default_rng(107)
        v = _volume(rng, shape=(10, 9, 8))
        out = motion_artifact(v, n_transforms=1, max_rot_deg=0.0, max_trans_mm=0.0, seed=3)
        assert np.abs(out.data - v.data).max() < 1e-5

    def test_energy_bound_over_copies(self):
        # mirror the documented draw order to rebuild the copies, then
        # check the spliced result against the strongest copy
        for seed in range(6):
            rng_in = np.random.default_rng(200 + seed)
            v = Volume(rng_in.normal(size=(12, 12, 12)))
            n = 3
            out = motion_artifact(v, n_transforms=n, max_rot_deg=8.0, max_trans_mm=2.0, seed=seed)
            norms = [np.linalg.norm(c) for c in _motion_copies(v, n, 8.0, 2.0, seed)]
            assert np.linalg.norm(out.data) <= max(norms) * (1.0 + 1e-6)

    @pytest.mark.parametrize(
        "n, shape, spacing",
        [
            (1, (2, 5, 4), (1.0, 1.0, 1.0)),
            (1, (9, 6, 5), (1.5, 1.0, 0.7)),
            (2, (3, 6, 7), (1.5, 1.0, 0.7)),
            (2, (10, 5, 6), (0.8, 1.2, 1.0)),
            (3, (4, 7, 5), (1.0, 1.0, 1.0)),
            (3, (13, 6, 6), (1.5, 1.0, 0.7)),
            (5, (6, 5, 7), (1.5, 1.0, 0.7)),
            (5, (11, 6, 5), (1.0, 1.0, 1.0)),
            (5, (16, 7, 6), (0.7, 1.5, 1.0)),
        ],
    )
    def test_matches_full_fft_splice_oracle(self, n, shape, spacing):
        # depths n + 1 and odd/even ones above it; uneven last slabs
        rng = np.random.default_rng(300 + n + shape[0])
        v = Volume(rng.normal(size=shape) * 40.0 + 100.0, spacing)
        out = motion_artifact(v, n_transforms=n, max_rot_deg=12.0, max_trans_mm=2.5, seed=n)
        want = fftn_motion_splice(_motion_copies(v, n, 12.0, 2.5, n))
        assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()

    def test_golden_checkerboard_statistics(self):
        v = _checkerboard(12)
        out = motion_artifact(v, n_transforms=5, max_rot_deg=10.0, max_trans_mm=3.0, seed=2026)
        d = out.data
        assert float(d.sum()) == pytest.approx(GOLDEN_MOTION["sum"], rel=1e-9)
        assert float(np.sqrt((d * d).sum())) == pytest.approx(GOLDEN_MOTION["l2"], rel=1e-9)
        for idx in ((6, 6, 6), (2, 9, 4), (11, 0, 7)):
            assert float(d[idx]) == pytest.approx(GOLDEN_MOTION[idx], rel=1e-9)

    def test_short_axis_is_rejected(self):
        # more slabs than frequency rows would leave slab 0, the unmoved
        # spectrum, empty
        v = Volume(np.random.default_rng(109).normal(size=(3, 6, 6)))
        with pytest.raises(DomainError, match=r"D=3"):
            motion_artifact(v, n_transforms=5, max_rot_deg=2.0, max_trans_mm=0.5, seed=1)
        out = motion_artifact(v, n_transforms=2, max_rot_deg=2.0, max_trans_mm=0.5, seed=1)
        assert out.data.shape == v.shape
        assert np.isfinite(out.data).all()

    def test_determinism(self):
        v = _checkerboard(8)
        a = motion_artifact(v, n_transforms=2, seed=13)
        b = motion_artifact(v, n_transforms=2, seed=13)
        assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("shape", [(64, 64, 64), (40, 37, 29)])
    def test_peak_memory_stays_bounded(self, shape):
        # about 3.3x (64^3) and 4.2x (40 x 37 x 29) the input's bytes on
        # one or two workers, up to 5.3x on five, whose strips' FFT
        # scratch overlaps; 5.5x leaves room for small allocations, not
        # for another volume-sized buffer
        v = Volume(np.random.default_rng(113).normal(size=shape))
        tracemalloc.start()
        try:
            motion_artifact(v, n_transforms=3, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * v.data.nbytes


# H values around the strip size: one short strip, one strip less a row,
# one strip and a row, and two strips and an uneven third
_STRIP_HEIGHTS = [1, STRIP_ROWS - 1, STRIP_ROWS + 1, 2 * STRIP_ROWS + 3]


class TestRigidIndexMap:
    """The sense of the motion geometry, checked against numpy shifts and turns."""

    @staticmethod
    def _moved(data, spacing, rot_deg=(0.0, 0.0, 0.0), trans_mm=(0.0, 0.0, 0.0)):
        matrix, offset = rigid_index_map(data.shape, spacing, rot_deg, trans_mm)
        out = np.empty_like(data)
        resample_rows(data, matrix, offset, out, slice(0, data.shape[1]))
        return out

    @staticmethod
    def _box():
        data = np.zeros((7, 9, 9))
        data[2:5, 2:4, 3:8] = 1.0
        return data

    def test_identity_on_anisotropic_spacing(self):
        data = np.random.default_rng(173).normal(size=(5, 6, 7))
        out = self._moved(data, (0.9, 1.0, 1.1))
        assert np.abs(out - data).max() <= 1e-12

    def test_one_mm_along_w_shifts_one_voxel(self):
        data = np.random.default_rng(179).normal(size=(4, 5, 6))
        out = self._moved(data, (1.5, 0.8, 1.0), trans_mm=(0.0, 0.0, 1.0))
        # the content moves one voxel up the W axis; the vacated face reads 0
        assert np.abs(out[:, :, 1:] - data[:, :, :-1]).max() <= 1e-12
        assert np.abs(out[:, :, 0]).max() <= 1e-12

    def test_quarter_turn_about_first_axis_is_rot90(self):
        data = self._box()
        out = self._moved(data, (1.5, 1.0, 1.0), rot_deg=(90.0, 0.0, 0.0))
        assert np.abs(out - np.rot90(data, -1, axes=(1, 2))).max() <= 1e-12

    def test_four_quarter_turns_restore_the_input(self):
        data = out = self._box()
        for _ in range(4):
            out = self._moved(out, (1.5, 1.0, 1.0), rot_deg=(90.0, 0.0, 0.0))
        assert np.abs(out - data).max() <= 1e-12


class TestStripBoundaries:
    @pytest.mark.parametrize("h", _STRIP_HEIGHTS)
    def test_motion_matches_full_fft_splice_oracle(self, h):
        rng = np.random.default_rng(500 + h)
        v = Volume(rng.normal(size=(9, h, 6)) * 40.0 + 100.0, (1.5, 1.0, 0.7))
        out = motion_artifact(v, n_transforms=2, max_rot_deg=12.0, max_trans_mm=2.5, seed=h)
        want = fftn_motion_splice(_motion_copies(v, 2, 12.0, 2.5, h))
        assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("h", _STRIP_HEIGHTS)
    def test_blur_equals_separable_oracle_bytes(self, h):
        # every pass strips an axis it does not filter, so each line sums
        # exactly as in one whole-volume pass
        for d in (h, 7):
            data = np.random.default_rng(600 + h).normal(size=(d, h, 5))
            out = gaussian_blur(Volume(data), 1.3).data
            assert out.tobytes() == separable_blur(data, 1.3).tobytes()

    def test_border_sample_can_flip_between_edge_value_and_zero(self):
        # Pins a known edge case of strip resampling, not a wanted result:
        # this map sends voxel (29, 18, 9) to depth 31.0, the input's last
        # index, in one whole-volume resample, and the strip starting at
        # row 16 folds 16 * matrix[:, 1] into its offset, which rounds that
        # coordinate just past the edge, where zeros lie. Every other voxel
        # agrees to a few ulps.
        data = np.random.default_rng(700).random((32, 32, 32))
        matrix = np.array([[0.99, 0.05, 0.01], [-0.05, 0.99, 0.02], [0.0, -0.02, 1.0]])
        offset = np.array([1.3, -2.1, 0.7])
        whole = ndimage.affine_transform(data, matrix, offset=offset, order=1,
                                         mode="constant", cval=0.0, prefilter=False)
        strips = np.empty_like(data)
        for rows in (slice(0, 16), slice(16, 32)):
            resample_rows(data, matrix, offset, strips, rows)
        assert (matrix @ (29, 18, 9) + offset)[0] == 31.0
        assert whole[29, 18, 9] > 0.1 and strips[29, 18, 9] == 0.0
        strips[29, 18, 9] = whole[29, 18, 9]
        assert np.abs(strips - whole).max() <= 1e-14 * np.abs(whole).max()
