"""Container validation and the convolution engine against a naive oracle."""

import numpy as np
import pytest

from oocs3d import tensor
from oocs3d.errors import DimensionError, DomainError, InvalidKernelError
from oocs3d.tensor import (
    PAD_SAME,
    PAD_VALID,
    BinaryMask,
    ConvWeights,
    FeatureMap,
    Volume,
    conv3d_backward,
    conv3d_forward,
    conv3d_output_shape,
    pad_zero,
)

from oracles import central_difference, im2col, max_rel_err, naive_conv3d


class TestVolume:
    def test_accepts_3d_and_freezes_buffer(self):
        v = Volume(np.ones((2, 3, 4)), spacing=(0.5, 1.0, 2.0))
        assert v.data.shape == (2, 3, 4)
        assert v.spacing == (0.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 9.0

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            Volume(np.ones((3, 3)))
        with pytest.raises(DimensionError):
            Volume(np.ones((1, 2, 3, 4)))

    def test_rejects_nonfinite(self):
        bad = np.ones((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(DomainError):
            Volume(bad)

    def test_rejects_bad_spacing(self):
        with pytest.raises(DomainError):
            Volume(np.ones((2, 2, 2)), spacing=(1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            Volume(np.ones((2, 2, 2)), spacing=(1.0, -1.0, 1.0))


class TestBinaryMask:
    def test_accepts_bool_and_01_numeric(self):
        m1 = BinaryMask(np.array([[[True, False]]]))
        m2 = BinaryMask(np.array([[[1.0, 0.0]]]))
        assert m1.data.dtype == np.bool_
        assert m2.data.dtype == np.bool_
        assert m1.count == 1

    def test_rejects_other_values(self):
        with pytest.raises(DomainError):
            BinaryMask(np.array([[[0.0, 2.0]]]))
        with pytest.raises(DomainError):
            BinaryMask(np.array([[[0.5]]]))


class TestFeatureMap:
    def test_round_trip_with_volume(self):
        v = Volume(np.arange(8.0).reshape(2, 2, 2), spacing=(2.0, 1.0, 1.0))
        fm = FeatureMap.from_volume(v)
        assert fm.data.shape == (1, 2, 2, 2)
        back = fm.to_volume(v.spacing)
        np.testing.assert_array_equal(back.data, v.data)
        assert back.spacing == v.spacing

    def test_multichannel_to_volume_rejected(self):
        fm = FeatureMap(np.zeros((2, 2, 2, 2)))
        with pytest.raises(DimensionError):
            fm.to_volume((1.0, 1.0, 1.0))


class TestConvWeights:
    def test_shape_and_bias_validation(self):
        w = ConvWeights(np.zeros((2, 3, 3, 3, 3)), bias=np.zeros(2))
        assert w.k == 3
        with pytest.raises(InvalidKernelError):
            ConvWeights(np.zeros((2, 3, 4, 4, 4)))  # even k
        with pytest.raises(InvalidKernelError):
            ConvWeights(np.zeros((2, 3, 3, 3, 5)))  # non-cubic
        with pytest.raises(DimensionError):
            ConvWeights(np.zeros((2, 3, 3, 3, 3)), bias=np.zeros(3))


class TestContainerValidation:
    @pytest.mark.parametrize("build, shape", [
        pytest.param(Volume, (2, 3, 4), id="volume"),
        pytest.param(FeatureMap, (2, 3, 4, 5), id="feature_map"),
        pytest.param(ConvWeights, (2, 1, 3, 3, 3), id="weights"),
        pytest.param(lambda b: ConvWeights(np.zeros((2, 1, 1, 1, 1)), b), (2,), id="bias"),
    ])
    @pytest.mark.parametrize("case, error", [
        ("wrong_rank", DimensionError),
        ("empty_axis", DimensionError),
        ("nan", DomainError),
        ("+inf", DomainError),
        ("-inf", DomainError),
    ])
    def test_rule_raises_its_error_class(self, build, shape, case, error):
        build(np.ones(shape))
        if case == "wrong_rank":
            bad = np.ones(shape + (1,))
        elif case == "empty_axis":
            bad = np.ones((0,) + shape[1:])
        else:
            bad = np.ones(shape)
            bad.flat[-1] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[case]
        with pytest.raises(error):
            build(bad)


class TestPadZero:
    def test_margin_zero_is_identity(self):
        fm = FeatureMap(np.random.default_rng(0).normal(size=(2, 3, 3, 3)))
        out = pad_zero(fm, (0, 0, 0))
        np.testing.assert_array_equal(out.data, fm.data)

    def test_single_voxel_margin_one(self):
        fm = FeatureMap(np.full((1, 1, 1, 1), 5.0))
        out = pad_zero(fm, (1, 1, 1))
        assert out.data.shape == (1, 3, 3, 3)
        assert out.data[0, 1, 1, 1] == 5.0
        assert out.data.sum() == 5.0

    def test_anisotropic_margin_and_sum(self):
        rng = np.random.default_rng(3)
        fm = FeatureMap(rng.normal(size=(3, 4, 5, 2)))
        out = pad_zero(fm, (2, 0, 1))
        assert out.data.shape == (3, 8, 5, 4)
        assert out.data.sum() == pytest.approx(fm.data.sum(), rel=1e-12)

    def test_negative_margin_rejected(self):
        with pytest.raises(DomainError):
            pad_zero(FeatureMap(np.zeros((1, 2, 2, 2))), (1, -1, 1))


class TestOutputShape:
    def test_same_and_valid(self):
        assert conv3d_output_shape((5, 6, 7), 3, PAD_SAME) == (5, 6, 7)
        assert conv3d_output_shape((5, 6, 7), 3, PAD_VALID) == (3, 4, 5)

    def test_valid_too_small(self):
        with pytest.raises(DimensionError):
            conv3d_output_shape((2, 6, 7), 3, PAD_VALID)


class TestConvForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = FeatureMap(rng.normal(size=(1, 4, 5, 6)))
        w = ConvWeights(np.ones((1, 1, 1, 1, 1)))
        out = conv3d_forward(x, w, PAD_SAME)
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_input_zero_sum_kernel(self):
        # a kernel summing to zero annihilates constants away from borders
        rng = np.random.default_rng(2)
        kern = rng.normal(size=(1, 1, 3, 3, 3))
        kern -= kern.mean()
        x = FeatureMap(np.full((1, 6, 6, 6), 4.25))
        out = conv3d_forward(x, ConvWeights(kern), PAD_VALID)
        assert np.abs(out.data).max() < 1e-12

    def test_matches_oracle_fixed_case(self):
        rng = np.random.default_rng(7)
        x = FeatureMap(rng.normal(size=(2, 5, 6, 7)))
        w = ConvWeights(rng.normal(size=(3, 2, 3, 3, 3)), bias=rng.normal(size=3))
        for padding in (PAD_SAME, PAD_VALID):
            got = conv3d_forward(x, w, padding).data
            want = naive_conv3d(x.data, w.data, w.bias, padding)
            assert np.abs(got - want).max() < 1e-9

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            k = int(rng.choice([1, 3, 5]))
            spatial = tuple(int(rng.integers(k, 9)) for _ in range(3))
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            x = FeatureMap(rng.normal(size=(c_in,) + spatial))
            bias = rng.normal(size=c_out) if rng.random() < 0.5 else None
            w = ConvWeights(rng.normal(size=(c_out, c_in, k, k, k)), bias=bias)
            padding = PAD_SAME if rng.random() < 0.5 else PAD_VALID
            got = conv3d_forward(x, w, padding).data
            want = naive_conv3d(x.data, w.data, w.bias, padding)
            assert np.abs(got - want).max() < 1e-9

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(13)
        x1 = rng.normal(size=(2, 5, 5, 5))
        x2 = rng.normal(size=(2, 5, 5, 5))
        w = ConvWeights(rng.normal(size=(2, 2, 3, 3, 3)))
        lhs = conv3d_forward(FeatureMap(2.0 * x1 - 0.5 * x2), w).data
        rhs = (
            2.0 * conv3d_forward(FeatureMap(x1), w).data
            - 0.5 * conv3d_forward(FeatureMap(x2), w).data
        )
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_kernel_negation_is_bit_exact(self):
        rng = np.random.default_rng(17)
        x = FeatureMap(rng.normal(size=(1, 5, 5, 5)))
        kern = rng.normal(size=(2, 1, 3, 3, 3))
        pos = conv3d_forward(x, ConvWeights(kern)).data
        neg = conv3d_forward(x, ConvWeights(-kern)).data
        np.testing.assert_array_equal(neg, -pos)

    def test_channel_mismatch_rejected(self):
        x = FeatureMap(np.zeros((2, 4, 4, 4)))
        w = ConvWeights(np.zeros((1, 3, 3, 3, 3)))
        with pytest.raises(DimensionError):
            conv3d_forward(x, w)

    def test_bad_padding_name_rejected(self):
        x = FeatureMap(np.zeros((1, 4, 4, 4)))
        w = ConvWeights(np.zeros((1, 1, 3, 3, 3)))
        with pytest.raises(DomainError):
            conv3d_forward(x, w, "reflect")


class TestConvBackward:
    @staticmethod
    def _loss_grads(x, w, probe, padding):
        out = conv3d_forward(x, w, padding)
        gx, gw = conv3d_backward(x, w, FeatureMap(probe), padding)
        return out, gx, gw

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(19)
        x = FeatureMap(rng.normal(size=(2, 4, 4, 4)))
        w = ConvWeights(rng.normal(size=(2, 2, 3, 3, 3)), bias=rng.normal(size=2))
        probe = np.zeros((2, 4, 4, 4))
        _, gx, gw = self._loss_grads(x, w, probe, PAD_SAME)
        assert not gx.data.any()
        assert not gw.data.any()
        assert not gw.bias.any()

    @pytest.mark.parametrize("padding", [PAD_SAME, PAD_VALID])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_weight_grad_matches_central_difference(self, padding, with_bias):
        # the probe objective is linear in w, so the FD error is pure roundoff
        rng = np.random.default_rng(23)
        x = FeatureMap(rng.normal(size=(2, 4, 4, 5)))
        bias = rng.normal(size=2) if with_bias else None
        w0 = rng.normal(size=(2, 2, 3, 3, 3))
        probe = rng.normal(size=conv3d_output_shape((4, 4, 5), 3, padding))
        probe = np.broadcast_to(probe, (2,) + probe.shape).copy()
        probe *= rng.normal(size=probe.shape)

        def phi_w(wdata):
            return float(
                np.sum(conv3d_forward(x, ConvWeights(wdata, bias=bias), padding).data * probe)
            )

        _, _, gw = self._loss_grads(x, ConvWeights(w0, bias=bias), probe, padding)
        fd = central_difference(phi_w, w0)
        assert max_rel_err(gw.data, fd) < 1e-6
        if with_bias:
            def phi_b(bdata):
                return float(
                    np.sum(conv3d_forward(x, ConvWeights(w0, bias=bdata), padding).data * probe)
                )

            fd_b = central_difference(phi_b, bias)
            assert max_rel_err(gw.bias, fd_b) < 1e-6

    @pytest.mark.parametrize("padding", [PAD_SAME, PAD_VALID])
    def test_input_grad_matches_central_difference(self, padding):
        rng = np.random.default_rng(29)
        x0 = rng.normal(size=(2, 4, 5, 4))
        w = ConvWeights(rng.normal(size=(3, 2, 3, 3, 3)))
        probe = rng.normal(size=(3,) + conv3d_output_shape((4, 5, 4), 3, padding))

        def phi_x(xdata):
            return float(np.sum(conv3d_forward(FeatureMap(xdata), w, padding).data * probe))

        _, gx, _ = self._loss_grads(FeatureMap(x0), w, probe, padding)
        fd = central_difference(phi_x, x0)
        assert max_rel_err(gx.data, fd) < 1e-6

    def test_randomized_backward_against_fd(self):
        rng = np.random.default_rng(31)
        for seed in range(8):
            case = np.random.default_rng(seed)
            k = int(case.choice([1, 3]))
            spatial = tuple(int(case.integers(k, 6)) for _ in range(3))
            c_in = int(case.integers(1, 3))
            c_out = int(case.integers(1, 3))
            x0 = case.normal(size=(c_in,) + spatial)
            w0 = case.normal(size=(c_out, c_in, k, k, k))
            padding = PAD_SAME if case.random() < 0.5 else PAD_VALID
            probe = case.normal(size=(c_out,) + conv3d_output_shape(spatial, k, padding))

            def phi(wdata):
                return float(
                    np.sum(conv3d_forward(FeatureMap(x0), ConvWeights(wdata), padding).data * probe)
                )

            gx, gw = conv3d_backward(
                FeatureMap(x0), ConvWeights(w0), FeatureMap(probe), padding
            )
            assert max_rel_err(gw.data, central_difference(phi, w0)) < 1e-6
            rng.shuffle(np.arange(3))  # keep the outer stream advancing

    def test_kernel_wider_than_an_axis(self):
        # same_zero padding lets k = 5 run over a 2- and a 3-voxel axis
        rng = np.random.default_rng(59)
        x = rng.normal(size=(2, 2, 3, 9))
        w0 = rng.normal(size=(2, 2, 5, 5, 5))
        bias = rng.normal(size=2)
        got = conv3d_forward(FeatureMap(x), ConvWeights(w0, bias=bias), PAD_SAME).data
        assert np.abs(got - naive_conv3d(x, w0, bias, PAD_SAME)).max() < 1e-9
        g = rng.normal(size=got.shape)
        lhs = float(np.sum(naive_conv3d(x, w0, None, PAD_SAME) * g))
        gx, gw = conv3d_backward(FeatureMap(x), ConvWeights(w0), FeatureMap(g), PAD_SAME)
        assert abs(float(np.sum(x * gx.data)) - lhs) <= 1e-12 * abs(lhs)
        assert abs(float(np.sum(w0 * gw.data)) - lhs) <= 1e-12 * abs(lhs)

    def test_grad_out_shape_mismatch_rejected(self):
        x = FeatureMap(np.zeros((1, 4, 4, 4)))
        w = ConvWeights(np.zeros((1, 1, 3, 3, 3)))
        bad = FeatureMap(np.zeros((1, 3, 3, 3)))
        with pytest.raises(DimensionError):
            conv3d_backward(x, w, bad, PAD_SAME)


class TestSizeLimit:
    """`_check_size` refuses more than MAX_ELEMENTS elements, counting exactly."""

    def test_limit_is_inclusive(self):
        tensor._check_size((tensor.MAX_ELEMENTS,), "x")
        tensor._check_size((1 << 10, 1 << 10, 1 << 11), "x")
        with pytest.raises(DomainError):
            tensor._check_size((tensor.MAX_ELEMENTS + 1,), "x")
        with pytest.raises(DomainError):
            tensor._check_size((1 << 10, 1 << 10, (1 << 11) + 1), "x")

    @pytest.mark.parametrize("shape", [(10 ** 400, 1, 1), (float("inf"), 1.0), (float("nan"),), (1e300, 1e300)])
    def test_huge_or_nonfinite_extent_rejected(self, shape):
        with pytest.raises(DomainError):
            tensor._check_size(shape, "x")


class TestSlabBoundaries:
    """The engine splits the output into tiles sized by `_COL_BYTES`.

    The budget is shrunk so the forward output (7, 3, 2) splits into slabs
    of 1 depth slice or uneven slabs of 3, 3 and 1 slices, or, below one
    slice, into 1-row tiles or uneven tiles of 2 and 1 rows.  The column
    floor is lowered to one voxel so it does not merge the row tiles.
    """

    OUT = (7, 3, 2)
    C_OUT = 2
    # test id -> (depth slices, output rows) one tile's columns fill
    TILES = {"1": (1, 3), "3": (3, 3), "rows2": (1, 2), "rows1": (1, 1)}

    @staticmethod
    def _setup(monkeypatch, k, padding, c_in, tile, seed):
        grow = 0 if padding == PAD_SAME else k - 1
        spatial = tuple(s + grow for s in TestSlabBoundaries.OUT)
        depth, rows = TestSlabBoundaries.TILES[tile]
        w = TestSlabBoundaries.OUT[2]
        monkeypatch.setattr(tensor, "_COL_BYTES", depth * rows * c_in * k ** 3 * w * 8)
        monkeypatch.setattr(tensor, "_TILE_MIN_COLS", 1)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c_in,) + spatial)
        w0 = rng.normal(size=(TestSlabBoundaries.C_OUT, c_in, k, k, k))
        probe = rng.normal(size=(TestSlabBoundaries.C_OUT,) + TestSlabBoundaries.OUT)
        return x, w0, rng.normal(size=TestSlabBoundaries.C_OUT), probe

    @pytest.mark.parametrize("tile", list(TILES))
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("padding", [PAD_SAME, PAD_VALID])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_forward_matches_oracle(self, monkeypatch, k, padding, c_in, tile):
        x, w0, bias, _ = self._setup(monkeypatch, k, padding, c_in, tile, 37)
        got = conv3d_forward(FeatureMap(x), ConvWeights(w0, bias=bias), padding).data
        want = naive_conv3d(x, w0, bias, padding)
        assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("tile", list(TILES))
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("padding", [PAD_SAME, PAD_VALID])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_backward_matches_central_difference(self, monkeypatch, k, padding, c_in, tile):
        x0, w0, bias, probe = self._setup(monkeypatch, k, padding, c_in, tile, 41)

        def phi_w(wdata):
            return float(np.sum(conv3d_forward(FeatureMap(x0), ConvWeights(wdata), padding).data * probe))

        def phi_x(xdata):
            return float(np.sum(conv3d_forward(FeatureMap(xdata), ConvWeights(w0), padding).data * probe))

        # both objectives are linear, so a unit step has no truncation error
        # and keeps the roundoff of these larger sums below the tolerance
        gx, gw = conv3d_backward(FeatureMap(x0), ConvWeights(w0, bias=bias), FeatureMap(probe), padding)
        assert max_rel_err(gw.data, central_difference(phi_w, w0, h=1.0)) < 1e-6
        assert max_rel_err(gx.data, central_difference(phi_x, x0, h=1.0)) < 1e-6
        assert max_rel_err(gw.bias, probe.sum(axis=(1, 2, 3))) < 1e-12

    @pytest.mark.parametrize("tile", list(TILES))
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("padding", [PAD_SAME, PAD_VALID])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_adjoint_identity(self, monkeypatch, k, padding, c_in, tile):
        # <conv(x, w), g> = <x, grad_x(g)> = <w, grad_w(g)>: conv is bilinear
        x, w0, _, g = self._setup(monkeypatch, k, padding, c_in, tile, 43)
        lhs = float(np.sum(conv3d_forward(FeatureMap(x), ConvWeights(w0), padding).data * g))
        gx, gw = conv3d_backward(FeatureMap(x), ConvWeights(w0), FeatureMap(g), padding)
        assert abs(float(np.sum(x * gx.data)) - lhs) <= 1e-12 * abs(lhs)
        assert abs(float(np.sum(w0 * gw.data)) - lhs) <= 1e-12 * abs(lhs)


_IM2COL_CASES = [
    (shape, k, padding)
    for shape in ((7, 6, 5), (2, 3, 9))
    for k in (1, 3, 5)
    for padding in (PAD_SAME, PAD_VALID)
    if padding == PAD_SAME or min(shape) >= k
]


_ROW_TILE_CASES = [
    (shape, k, padding, rows, floor_rows)
    for shape, k, padding in _IM2COL_CASES
    for rows, floor_rows in ((1, 1), (2, 1), (4, 1), (1, 2), (1, 9))
    if rows < conv3d_output_shape(shape, k, padding)[1]
]


class TestIm2col:
    """The engine's strided window view against the np.pad + sliding_window_view oracle."""

    @staticmethod
    def _tiles(x, k, padding, out_shape):
        """The output index of every tile, and all tiles' columns side by side."""
        m = k // 2 if padding == PAD_SAME else 0
        tiles, blocks = [], []
        for idx, cols in tensor._slabs(tensor._pad(x, (m,) * 3), k, out_shape):
            tiles.append(idx)
            blocks.append(cols.copy())  # the tile buffer is reused by the next tile
        return tiles, np.concatenate(blocks, axis=1)

    @pytest.mark.parametrize("multi_slab", [False, True])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("shape,k,padding", _IM2COL_CASES)
    def test_columns_equal_oracle_bytes(self, monkeypatch, shape, k, padding, c, multi_slab):
        out_shape = conv3d_output_shape(shape, k, padding)
        d, h, w = out_shape
        if multi_slab:
            monkeypatch.setattr(tensor, "_COL_BYTES", c * k ** 3 * h * w * 8)
        x = np.random.default_rng(61).normal(size=(c,) + shape)
        tiles, cols = self._tiles(x, k, padding, out_shape)
        depth = 1 if multi_slab else d
        assert tiles == [(slice(None), slice(z, z + depth), slice(0, h)) for z in range(0, d, depth)]
        assert np.array_equal(cols, im2col(x, k, padding))

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("shape,k,padding,rows,floor_rows", _ROW_TILE_CASES)
    def test_row_tiles_equal_oracle_bytes(self, monkeypatch, shape, k, padding, c, rows, floor_rows):
        # the budget holds `rows` output rows, fewer than a slice has; the column
        # floor asks for `floor_rows`, at most one whole slice
        out_shape = conv3d_output_shape(shape, k, padding)
        d, h, w = out_shape
        monkeypatch.setattr(tensor, "_COL_BYTES", rows * c * k ** 3 * w * 8)
        monkeypatch.setattr(tensor, "_TILE_MIN_COLS", (floor_rows - 1) * w + 1)
        x = np.random.default_rng(71).normal(size=(c,) + shape)
        tiles, cols = self._tiles(x, k, padding, out_shape)
        r = min(h, max(rows, floor_rows))
        assert tiles == [
            (slice(None), slice(z, z + 1), slice(y, min(y + r, h))) for z in range(d) for y in range(0, h, r)
        ]
        assert np.array_equal(cols, im2col(x, k, padding))


class TestInputsUntouched:
    """The engine neither writes into nor returns views of its inputs."""

    @pytest.mark.parametrize("padding", [PAD_SAME, PAD_VALID])
    @pytest.mark.parametrize("k", [1, 3])
    def test_inputs_unchanged_read_only_and_unshared(self, k, padding):
        # k = 1 and valid padding feed the unpadded input buffers to the window view
        rng = np.random.default_rng(67)
        x = FeatureMap(rng.normal(size=(2, 5, 6, 7)))
        w = ConvWeights(rng.normal(size=(3, 2, k, k, k)), bias=rng.normal(size=3))
        g = FeatureMap(rng.normal(size=(3,) + conv3d_output_shape((5, 6, 7), k, padding)))
        inputs = [x.data, w.data, w.bias, g.data]
        before = [a.copy() for a in inputs]
        y = conv3d_forward(x, w, padding)
        gx, gw = conv3d_backward(x, w, g, padding)
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
            assert not a.flags.writeable
        for out in (y.data, gx.data, gw.data, gw.bias):
            assert not any(np.shares_memory(out, a) for a in inputs)
