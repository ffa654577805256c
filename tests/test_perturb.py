"""Robustness perturbations: blur, additive noise, k-space motion splicing."""

import numpy as np
import pytest

from oocs3d._geom import resample_affine, rigid_index_map
from oocs3d.errors import ConfigError, DomainError
from oocs3d.perturb import (
    PerturbSpec,
    apply,
    gaussian_blur,
    gaussian_noise,
    motion_artifact,
)
from oocs3d.rng import make_rng
from oocs3d.tensor import Volume

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


def _checkerboard(n):
    idx = np.indices((n, n, n)).sum(axis=0)
    return Volume((idx % 2).astype(np.float64))


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            PerturbSpec(kind="salt_pepper")

    def test_sigma_must_be_positive_for_blur_and_noise(self):
        with pytest.raises(DomainError):
            PerturbSpec(kind="gaussian_blur", sigma=0.0)
        with pytest.raises(DomainError):
            PerturbSpec(kind="gaussian_noise", sigma=-1.0)

    def test_motion_bounds(self):
        with pytest.raises(DomainError):
            PerturbSpec(kind="motion", n_transforms=0)
        with pytest.raises(DomainError):
            PerturbSpec(kind="motion", max_rot_deg=-1.0)


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
            draws = make_rng(seed)
            norms = [np.linalg.norm(v.data)]
            for _ in range(n):
                angles = draws.uniform(-8.0, 8.0, size=3)
                trans = draws.uniform(-2.0, 2.0, size=3)
                matrix, offset = rigid_index_map(v.shape, v.spacing, angles, trans)
                moved = resample_affine(v.data, matrix, offset, order=1)
                norms.append(np.linalg.norm(moved))
            assert np.linalg.norm(out.data) <= max(norms) * (1.0 + 1e-6)

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


class TestApply:
    def test_blur_dispatch_equals_direct_call(self):
        rng = np.random.default_rng(113)
        v = _volume(rng)
        spec = PerturbSpec(kind="gaussian_blur", sigma=1.25)
        np.testing.assert_array_equal(apply(v, spec).data, gaussian_blur(v, 1.25).data)

    def test_noise_dispatch_uses_spec_seed(self):
        rng = np.random.default_rng(127)
        v = _volume(rng)
        spec = PerturbSpec(kind="gaussian_noise", sigma=3.0, seed=21)
        np.testing.assert_array_equal(
            apply(v, spec).data, gaussian_noise(v, 3.0, seed=21).data
        )

    def test_repeat_application_identical(self):
        rng = np.random.default_rng(131)
        v = _volume(rng)
        spec = PerturbSpec(kind="motion", n_transforms=2, seed=17)
        a = apply(v, spec)
        b = apply(v, spec)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.spacing == v.spacing
