"""Overlap and surface-distance metrics against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from oocs3d.errors import DimensionError, UndefinedDistanceError
from oocs3d.metrics import _edge, dice, hausdorff_mm
from oocs3d.tensor import BinaryMask

from oracles import brute_dice, brute_hausdorff_mm


def _mask(arr, spacing=(1.0, 1.0, 1.0)):
    return BinaryMask(np.asarray(arr, dtype=bool), spacing=spacing)


def _random_mask(rng, shape, spacing, p=0.4, nonempty=False):
    data = rng.random(size=shape) < p
    if nonempty and not data.any():
        data[tuple(rng.integers(0, s) for s in shape)] = True
    return BinaryMask(data, spacing=spacing)


class TestDice:
    def test_hand_case(self):
        # |A| = 4, |B| = 6, intersection 3 -> 2*3 / 10 = 0.6 exactly
        a = np.zeros((2, 3, 3), dtype=bool)
        b = np.zeros((2, 3, 3), dtype=bool)
        a[0, 0, :3] = True
        a[0, 1, 0] = True
        b[0, 0, :3] = True
        b[1, 0, :3] = True
        assert dice(_mask(a), _mask(b)) == 0.6

    def test_identical_and_disjoint(self):
        a = np.zeros((3, 3, 3), dtype=bool)
        a[1, 1, 1] = True
        assert dice(_mask(a), _mask(a)) == 1.0
        b = np.zeros((3, 3, 3), dtype=bool)
        b[0, 0, 0] = True
        assert dice(_mask(a), _mask(b)) == 0.0

    def test_both_empty_is_one(self):
        e = _mask(np.zeros((2, 2, 2), dtype=bool))
        assert dice(e, e) == 1.0

    def test_one_empty_is_zero(self):
        e = _mask(np.zeros((2, 2, 2), dtype=bool))
        f = np.zeros((2, 2, 2), dtype=bool)
        f[0, 0, 0] = True
        assert dice(e, _mask(f)) == 0.0

    def test_symmetry_and_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            shape = tuple(int(rng.integers(1, 7)) for _ in range(3))
            a = _random_mask(rng, shape, (1.0, 1.0, 1.0))
            b = _random_mask(rng, shape, (1.0, 1.0, 1.0))
            got = dice(a, b)
            assert got == dice(b, a)
            assert got == brute_dice(a.data, b.data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            dice(_mask(np.zeros((2, 2, 2), dtype=bool)), _mask(np.zeros((2, 2, 3), dtype=bool)))

    def test_spacing_mismatch_rejected(self):
        a = _mask(np.ones((2, 2, 2), dtype=bool), spacing=(1.0, 1.0, 1.0))
        b = _mask(np.ones((2, 2, 2), dtype=bool), spacing=(1.0, 1.0, 2.0))
        with pytest.raises(DimensionError):
            dice(a, b)


class TestHausdorff:
    def test_hand_case_anisotropic_spacing(self):
        # single voxels three slices apart along the first axis at 0.6 mm
        a = np.zeros((4, 1, 4), dtype=bool)
        b = np.zeros((4, 1, 4), dtype=bool)
        a[0, 0, 0] = True
        b[3, 0, 0] = True
        d = hausdorff_mm(_mask(a, (0.6, 0.6, 0.6)), _mask(b, (0.6, 0.6, 0.6)))
        assert d == pytest.approx(1.8, rel=1e-12)

    def test_identical_masks_give_zero(self):
        rng = np.random.default_rng(71)
        m = _random_mask(rng, (4, 4, 4), (1.0, 2.0, 0.5), nonempty=True)
        assert hausdorff_mm(m, m) == 0.0

    def test_diagonal_distance_with_spacing(self):
        a = np.zeros((2, 2, 2), dtype=bool)
        b = np.zeros((2, 2, 2), dtype=bool)
        a[0, 0, 0] = True
        b[1, 1, 1] = True
        d = hausdorff_mm(_mask(a, (1.0, 2.0, 3.0)), _mask(b, (1.0, 2.0, 3.0)))
        assert d == pytest.approx(np.sqrt(1.0 + 4.0 + 9.0), rel=1e-12)

    def test_asymmetric_sets_use_both_directions(self):
        # B covers A's lone voxel, but B has a far voxel of its own, so
        # the directed distance from B dominates
        a = np.zeros((1, 1, 5), dtype=bool)
        b = np.zeros((1, 1, 5), dtype=bool)
        a[0, 0, 0] = True
        b[0, 0, 0] = True
        b[0, 0, 4] = True
        d = hausdorff_mm(_mask(a), _mask(b))
        assert d == 4.0
        assert hausdorff_mm(_mask(b), _mask(a)) == d

    def test_translation_invariance(self):
        rng = np.random.default_rng(73)
        base_a = _random_mask(rng, (4, 4, 4), (1.0, 1.0, 1.0), nonempty=True)
        base_b = _random_mask(rng, (4, 4, 4), (1.0, 1.0, 1.0), nonempty=True)
        pad_a = np.zeros((7, 7, 7), dtype=bool)
        pad_b = np.zeros((7, 7, 7), dtype=bool)
        pad_a[0:4, 0:4, 0:4] = base_a.data
        pad_b[0:4, 0:4, 0:4] = base_b.data
        d0 = hausdorff_mm(_mask(pad_a), _mask(pad_b))
        sh_a = np.roll(pad_a, (2, 1, 3), axis=(0, 1, 2))
        sh_b = np.roll(pad_b, (2, 1, 3), axis=(0, 1, 2))
        assert hausdorff_mm(_mask(sh_a), _mask(sh_b)) == d0

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(60):
            shape = tuple(int(rng.integers(2, 7)) for _ in range(3))
            spacing = tuple(float(rng.choice([0.5, 0.6, 1.0, 2.0])) for _ in range(3))
            a = _random_mask(rng, shape, spacing, nonempty=True)
            b = _random_mask(rng, shape, spacing, nonempty=True)
            got = hausdorff_mm(a, b)
            want = brute_hausdorff_mm(a.data, b.data, spacing)
            assert got == want

    def test_ball_inside_hollow_shell(self):
        # A sits in the cavity of B.  The farthest point of A from B is
        # A's center, 7 mm from the cavity wall; B's outer rim is at most
        # 9.5 - 3 = 6.5 mm from A
        spacing = (1.5, 1.0, 0.7)
        z, y, x = np.indices((15, 21, 29)) - np.array([7, 10, 14])[:, None, None, None]
        r = np.sqrt((z * spacing[0]) ** 2 + (y * spacing[1]) ** 2 + (x * spacing[2]) ** 2)
        ball, shell = r <= 3.0, (r >= 7.0) & (r <= 9.5)
        got = hausdorff_mm(_mask(ball, spacing), _mask(shell, spacing))
        assert got == brute_hausdorff_mm(ball, shell, spacing)
        assert got == pytest.approx(7.0, rel=1e-12)

    def test_nested_masks(self):
        spacing = (1.5, 1.0, 0.7)
        rng = np.random.default_rng(83)
        for _ in range(20):
            outer = rng.random((6, 7, 8)) < 0.6
            inner = outer & (rng.random(outer.shape) < 0.5)
            inner[tuple(np.argwhere(outer)[0])] = True
            a, b = _mask(inner, spacing), _mask(outer, spacing)
            want = brute_hausdorff_mm(inner, outer, spacing)
            assert hausdorff_mm(a, b) == want
            assert hausdorff_mm(b, a) == want

    def test_masks_touching_the_volume_border(self):
        # B fills the volume but for a hole at one corner; A is the hole
        # plus a border face shared with B
        spacing = (1.5, 1.0, 0.7)
        b = np.ones((6, 7, 8), dtype=bool)
        b[:2, :3, :4] = False
        a = ~b
        a[-1] = True
        got = hausdorff_mm(_mask(a, spacing), _mask(b, spacing))
        assert got == brute_hausdorff_mm(a, b, spacing)
        rng = np.random.default_rng(89)
        for _ in range(20):
            a = rng.random((5, 6, 4)) < 0.7
            b = rng.random((5, 6, 4)) < 0.8
            a[0, 0, 0] = b[-1, -1, -1] = True
            got = hausdorff_mm(_mask(a, spacing), _mask(b, spacing))
            assert got == brute_hausdorff_mm(a, b, spacing)

    def test_masks_away_from_the_origin(self):
        # the joint bounding box starts at (5, 3, 6), so the cropped
        # indices must get that start back before they are scaled
        spacing = (1.3, 0.7, 2.1)
        rng = np.random.default_rng(97)
        for _ in range(10):
            a = np.zeros((14, 12, 15), dtype=bool)
            b = np.zeros_like(a)
            a[5:10, 4:9, 7:12] = rng.random((5, 5, 5)) < 0.5
            b[6:12, 3:8, 6:11] = rng.random((6, 5, 5)) < 0.5
            a[5, 4, 7] = b[6, 3, 6] = True
            got = hausdorff_mm(_mask(a, spacing), _mask(b, spacing))
            assert got == brute_hausdorff_mm(a, b, spacing)

    def test_empty_mask_rejected(self):
        e = _mask(np.zeros((2, 2, 2), dtype=bool))
        f = np.zeros((2, 2, 2), dtype=bool)
        f[0, 0, 0] = True
        with pytest.raises(UndefinedDistanceError):
            hausdorff_mm(e, _mask(f))
        with pytest.raises(UndefinedDistanceError):
            hausdorff_mm(_mask(f), e)

    def test_spacing_mismatch_rejected(self):
        a = _mask(np.ones((2, 2, 2), dtype=bool), spacing=(1.0, 1.0, 1.0))
        b = _mask(np.ones((2, 2, 2), dtype=bool), spacing=(2.0, 1.0, 1.0))
        with pytest.raises(DimensionError):
            hausdorff_mm(a, b)


def _erosion_edge(b):
    """B less its 6-connected erosion, with everything outside the array counted as outside B."""
    return b & ~ndimage.binary_erosion(b)


class TestEdge:
    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 7)] * 3), density=st.sampled_from([0.2, 0.6, 0.9, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_erosion_on_random_masks(self, shape, density, seed):
        b = np.random.default_rng(seed).random(shape) < density
        np.testing.assert_array_equal(_edge(b), _erosion_edge(b))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 5, 6), (1, 6, 5), (3, 2, 7)])
    def test_full_box_is_its_border_layer(self, shape):
        b = np.ones(shape, dtype=bool)
        edge = _edge(b)
        np.testing.assert_array_equal(edge, _erosion_edge(b))
        assert edge[1:-1, 1:-1, 1:-1].sum() == 0
        assert edge.sum() == b.size - max(shape[0] - 2, 0) * max(shape[1] - 2, 0) * max(shape[2] - 2, 0)

    @pytest.mark.parametrize("where", [(0, 0, 0), (2, 3, 1), (4, 6, 2)])
    def test_one_voxel_is_its_own_edge(self, where):
        b = np.zeros((5, 7, 3), dtype=bool)
        b[where] = True
        np.testing.assert_array_equal(_edge(b), b)

    def test_mask_touching_the_box_border(self):
        # a slab filling a whole face of the box: its face voxels count as edge
        b = np.zeros((6, 7, 8), dtype=bool)
        b[:3] = True
        b[3, 2:5, 2:6] = True
        np.testing.assert_array_equal(_edge(b), _erosion_edge(b))
        assert _edge(b)[0].all()
