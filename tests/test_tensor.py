"""Container validation and the convolution engine against a naive oracle."""

import json
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oocs3d import _strips, tensor
from oocs3d.block import LEARNABLE, OocsBlockConfig, block_backward, block_forward, init_block_params
from oocs3d.errors import CorruptFileError, DimensionError, DomainError, InvalidKernelError
from oocs3d.losses import PredictionPair, bce_dice_loss
from oocs3d.perturb import gaussian_blur, gaussian_noise, motion_artifact
from oocs3d.preprocess import crop_or_pad, resample, zscore
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
)
from oocs3d.volio import read_mha, read_raw_json

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


# input values, the same values as the bytes of a uint8 file payload (None
# where no byte holds them), and whether every value is exactly 0 or 1
_ZERO_ONE_TABLE = {
    "bool": (np.array([False, True]), b"\x00\x01", True),
    "uint8-0-1": (np.array([0, 1], np.uint8), b"\x00\x01", True),
    "uint8-with-2": (np.array([0, 1, 2], np.uint8), b"\x00\x01\x02", False),
    "float-0-1": (np.array([0.0, 1.0]), b"\x00\x01", True),
    "minus-zero": (np.array([-0.0, 1.0]), b"\x00\x01", True),
    "half": (np.array([0.0, 0.5]), None, False),
    "nan": (np.array([1.0, np.nan]), None, False),
    "minus-one": (np.array([0, -1], np.int8), b"\x00\xff", False),  # a signed byte's bits
    "complex": (np.array([0.0, 1 + 1j]), None, False),
}


class TestZeroOneRule:
    """Masks, the loss target and both mask file readers share one 0/1 rule."""

    @staticmethod
    def _accepts(make) -> bool:
        try:
            make()
        except DomainError:
            return False
        return True

    @pytest.mark.parametrize("values, payload, binary", _ZERO_ONE_TABLE.values(), ids=_ZERO_ONE_TABLE.keys())
    def test_every_consumer_agrees(self, values, payload, binary, tmp_path):
        shape = (1, 1, values.size)
        arr = values.reshape(shape)
        logits = FeatureMap(np.zeros((1,) + shape))
        verdicts = {
            "BinaryMask": self._accepts(lambda: BinaryMask(arr)),
            "PredictionPair target": self._accepts(lambda: PredictionPair(logits, arr)),
        }
        if payload is not None:
            (tmp_path / "m.raw").write_bytes(payload)
            (tmp_path / "m.json").write_text(json.dumps({
                "dtype": "uint8", "kind": "mask", "raw_file": "m.raw", "shape": list(shape),
                "spacing": [1.0, 1.0, 1.0],
            }))
            try:
                verdicts["kind: mask raw+JSON"] = isinstance(read_raw_json(str(tmp_path / "m.json")), BinaryMask)
            except CorruptFileError as exc:
                assert exc.exit_code == 3
                verdicts["kind: mask raw+JSON"] = False
            header = (
                "ObjectType = Image\nNDims = 3\nBinaryData = True\nBinaryDataByteOrderMSB = False\n"
                f"DimSize = {values.size} 1 1\nElementSpacing = 1 1 1\nElementType = MET_UCHAR\n"
                "ElementDataFile = LOCAL\n"
            )
            (tmp_path / "m.mha").write_bytes(header.encode("ascii") + payload)
            loaded = read_mha(str(tmp_path / "m.mha"))
            assert isinstance(loaded, BinaryMask if binary else Volume)
            verdicts["MET_UCHAR .mha"] = isinstance(loaded, BinaryMask)
        assert verdicts == dict.fromkeys(verdicts, binary)


class TestFeatureMap:
    def test_round_trip_with_volume(self):
        v = Volume(np.arange(8.0).reshape(2, 2, 2), spacing=(2.0, 1.0, 1.0))
        fm = FeatureMap(v.data[None])
        assert fm.data.shape == (1, 2, 2, 2)
        back = Volume(fm.data[0], v.spacing)
        np.testing.assert_array_equal(back.data, v.data)
        assert back.spacing == v.spacing


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
        pytest.param(BinaryMask, (2, 3, 4), id="mask"),
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


_BUILDS = [
    pytest.param(Volume, (2, 3, 4), id="volume"),
    pytest.param(FeatureMap, (2, 3, 4, 5), id="feature_map"),
    pytest.param(ConvWeights, (2, 1, 3, 3, 3), id="weights"),
]


class TestSharingRule:
    """Containers share a buffer that no one can write and copy anything else."""

    @pytest.mark.parametrize("build, shape", _BUILDS)
    def test_writable_source_is_copied(self, build, shape):
        src = np.arange(float(np.prod(shape))).reshape(shape)
        c = build(src)
        assert not np.shares_memory(c.data, src)
        src[...] = -1.0
        assert c.data.flat[1] == 1.0

    @pytest.mark.parametrize("build, shape", _BUILDS)
    def test_read_only_view_of_writable_base_is_copied(self, build, shape):
        base = np.ones(shape)
        view = base[...]
        view.setflags(write=False)
        assert not np.shares_memory(build(view).data, base)
        # a read-only array over a foreign buffer is copied too
        raw = np.frombuffer(np.ones(shape).tobytes()).reshape(shape)
        assert not raw.flags.writeable
        assert not np.shares_memory(build(raw).data, raw)

    @pytest.mark.parametrize("build, shape", _BUILDS)
    def test_another_containers_buffer_is_shared(self, build, shape):
        first = build(np.ones(shape))
        second = build(first.data)
        assert np.shares_memory(second.data, first.data)
        assert not second.data.flags.writeable
        sealed = tensor._seal(np.ones(shape))
        assert build(sealed).data is sealed

    @pytest.mark.parametrize("build, shape", _BUILDS)
    @pytest.mark.parametrize("case, error", [
        ("nan", DomainError),
        ("+inf", DomainError),
        ("-inf", DomainError),
        ("wrong_rank", DimensionError),
    ])
    def test_shared_path_still_validates(self, build, shape, case, error):
        if case == "wrong_rank":
            bad = np.ones(shape + (1,))
        else:
            bad = np.ones(shape)
            bad.flat[-1] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[case]
        tensor._seal(bad)
        assert tensor._unwritable(bad)
        with pytest.raises(error):
            build(bad)

    def test_volume_and_feature_map_convert_without_a_copy(self):
        v = Volume(np.arange(8.0).reshape(2, 2, 2))
        fm = FeatureMap(v.data[None])
        assert np.shares_memory(fm.data, v.data)
        assert np.shares_memory(Volume(fm.data[0]).data, v.data)


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

    def test_weight_grad_scratch_is_held_to_the_budget(self, monkeypatch):
        # one-row strips of 16 channels at k = 5: 32 strips, whose (taps,
        # C_out) sums take 250 KiB each.  A sum per strip would hold 8 MiB;
        # runs of strips whose sums fit `_COL_BYTES` hold 1 MiB
        rng = np.random.default_rng(67)
        x = rng.normal(size=(16, 1, 32, 32))
        w0 = rng.normal(size=(16, 16, 5, 5, 5))
        g = rng.normal(size=x.shape)
        xp = tensor._pad(x, (2, 2, 2))
        assert tensor._tiles(xp, 5, x.shape[1:])[1] == 1
        monkeypatch.setattr(_strips, "thread_count", lambda: 1)  # one lowering buffer at a time
        fx, fw, fg = FeatureMap(x), ConvWeights(w0), FeatureMap(g)
        tracemalloc.start()
        try:
            _, gw = conv3d_backward(fx, fw, fg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the padded input and output gradient, a lowering buffer and the
        # products add about 2 MiB to the partial sums
        assert peak < 4 * tensor._COL_BYTES
        windows = np.lib.stride_tricks.sliding_window_view(xp, (5, 5, 5), axis=(1, 2, 3))
        want = np.einsum("izyxabc,ozyx->oiabc", windows, g)
        assert np.abs(gw.data - want).max() <= 1e-12 * np.abs(want).max()

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


def _hold(monkeypatch, c, k, w, rows, slices):
    """Shrink `_COL_BYTES` to `rows` output rows of `slices` + k - 1 lowered slices.

    Below 3k - 2 lowered slices the rule takes 1-row strips, so at k > 1 a
    budget of 1 row and fewer than 2k - 1 slices gives windows of exactly
    `slices` slices.
    """
    monkeypatch.setattr(tensor, "_COL_BYTES", rows * (slices + k - 1) * c * k * k * w * 8)


def _windows(xp, k, out_shape):
    """Yield (output slices, output rows, columns) of the engine's strips and windows, top to bottom, in one thread."""
    low, rows, slices = tensor._tiles(xp, k, out_shape)
    d, h, _ = out_shape
    for y in range(0, h, rows):
        ys = slice(y, min(y + rows, h))
        for zs, cols in tensor._strip_windows(low, d, ys, slices):
            yield zs, ys, cols


def _splits(c, k, out_shape):
    """(first slice, slices, first row, rows) of every window `_windows` yields, in order."""
    xp = np.zeros((c,) + tuple(s + k - 1 for s in out_shape))
    return [(zs.start, zs.stop - zs.start, ys.start, ys.stop - ys.start)
            for zs, ys, _ in _windows(xp, k, out_shape)]


class TestSlabBoundaries:
    """The engine splits the output into depth windows and row strips sized by `_COL_BYTES`.

    The budget is shrunk so the forward output (7, 3, 2) splits into
    windows of 1 slice or uneven windows of 3, 3 and 1 slices (at k > 1
    the carry runs across every window boundary), and into strips of 1
    row or uneven strips of 2 and 1 rows.
    """

    OUT = (7, 3, 2)
    C_OUT = 2
    # test id -> (strip rows, window slices) at kernel size k.  With nothing
    # carried at k = 1 the rule grows the strip first, so 3-slice windows
    # come with whole rows; at k > 1, 2-row strips need the 2k - 1 slices
    # the rule asks of a window.
    TILES = {
        "1": lambda k: (1, 1),
        "3": lambda k: (3, 3) if k == 1 else (1, 3),
        "rows2": lambda k: (2, 2 * k - 1),
        "rows1": lambda k: (1, 2 * k - 1),
    }

    @staticmethod
    def _setup(monkeypatch, k, padding, c_in, tile, seed):
        grow = 0 if padding == PAD_SAME else k - 1
        spatial = tuple(s + grow for s in TestSlabBoundaries.OUT)
        rows, slices = TestSlabBoundaries.TILES[tile](k)
        d, h, w = TestSlabBoundaries.OUT
        _hold(monkeypatch, c_in, k, w, rows, slices)
        assert _splits(c_in, k, TestSlabBoundaries.OUT) == [
            (z, min(slices, d - z), y, min(rows, h - y)) for y in range(0, h, rows) for z in range(0, d, slices)
        ]
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

    @staticmethod
    def _on_workers(monkeypatch, workers, run):
        """Return run()'s bytes, the sorted (start, stop) of every conv strip, and whether a pool thread ran one.

        The strip pool gets `workers` workers; in a call of more than one
        strip, each thread's first strip waits until every worker holds one.
        """
        pool = ThreadPoolExecutor(workers - 1) if workers > 1 else None
        monkeypatch.setattr(_strips, "thread_count", lambda: workers)
        monkeypatch.setattr(_strips, "_pool", lambda: pool)
        strips, on_pool = [], [False]

        def for_strips_meeting(n_rows, fn, rows):
            barrier, seen = threading.Barrier(workers), threading.local()

            def meet_then_fn(ys):
                if n_rows > rows and not getattr(seen, "met", False):
                    seen.met = True
                    barrier.wait(timeout=10)
                strips.append((ys.start, ys.stop))
                on_pool[0] |= threading.current_thread() is not threading.main_thread()
                fn(ys)
            _strips.for_strips(n_rows, meet_then_fn, rows)

        monkeypatch.setattr(tensor, "for_strips", for_strips_meeting)
        try:
            got = run()
        finally:
            if pool is not None:
                pool.shutdown()
        return got, sorted(strips), on_pool[0]

    @pytest.mark.parametrize("tile", list(TILES))
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("padding", [PAD_SAME, PAD_VALID])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_two_workers_give_the_bytes_of_one(self, monkeypatch, k, padding, c_in, tile):
        # the forward, the weight gradient and the input gradient run their
        # strips on the pool, the weight gradient in runs of strips; their
        # boundaries, and so every product and the order the weight
        # gradient's run sums are added in, must not follow the count
        x, w0, bias, g = self._setup(monkeypatch, k, padding, c_in, tile, 47)

        def run():
            y = conv3d_forward(FeatureMap(x), ConvWeights(w0, bias=bias), padding)
            gx, gw = conv3d_backward(FeatureMap(x), ConvWeights(w0, bias=bias), FeatureMap(g), padding)
            return y.data.tobytes() + gx.data.tobytes() + gw.data.tobytes() + gw.bias.tobytes()

        def strips(c, out_shape, per_run=lambda n: 1):
            rows = tensor._tiles(np.zeros((c,) + tuple(s + k - 1 for s in out_shape)), k, out_shape)[1]
            rows *= per_run(-(-out_shape[1] // rows))
            return [(y, min(y + rows, out_shape[1])) for y in range(0, out_shape[1], rows)]

        def weight_grad_runs(n):
            # as few strips to a run as keep the runs' (taps, C_OUT) sums within the budget
            return -(-n // max(1, tensor._COL_BYTES // (c_in * k ** 3 * self.C_OUT * 8)))

        one, one_strips, _ = self._on_workers(monkeypatch, 1, run)
        two, two_strips, pool_ran = self._on_workers(monkeypatch, 2, run)
        # the forward's strips, the weight gradient's runs of the same split
        # of the same lowering, and the input gradient's strips, of the
        # C_OUT-channel output gradient over the input's grid
        assert one_strips == sorted(strips(c_in, self.OUT) + strips(c_in, self.OUT, weight_grad_runs)
                                    + strips(self.C_OUT, x.shape[1:]))
        assert two_strips == one_strips
        assert two == one
        # only the 3-row tile at k = 1 leaves both convs one strip each
        assert pool_ran == (tile != "3" or k != 1)


_IM2COL_CASES = [
    (shape, k, padding)
    for shape in ((7, 6, 5), (2, 3, 9))
    for k in (1, 3, 5)
    for padding in (PAD_SAME, PAD_VALID)
    if padding == PAD_SAME or min(shape) >= k
]


# the 2-row budgets come last so the earlier cases keep their ids
_ROW_TILE_CASES = [
    (shape, k, padding, rows, slices)
    for budgets in (((1, 1), (2, 1), (4, 1), (1, 2), (1, 9)), ((2, 5), (2, 9)))
    for shape, k, padding in _IM2COL_CASES
    for rows, slices in budgets
    if rows < conv3d_output_shape(shape, k, padding)[1]
]


class TestIm2col:
    """The lowered windows against the np.pad + sliding_window_view oracle, byte for byte.

    For every output slice of every window, the k lowered slices stacked
    in the buffer must equal the oracle's columns of that slice and row
    strip, with the taps permuted from (c, kz, ky, kx) to (kz, c, ky, kx).
    """

    @staticmethod
    def _windows_match_oracle(x, k, padding):
        """Check every window against the oracle; return the windows' (first slice, slices, first row, rows)."""
        c = x.shape[0]
        out_shape = conv3d_output_shape(x.shape[1:], k, padding)
        taps = k * c * k * k
        want = im2col(x, k, padding).reshape((c, k, k * k) + out_shape).transpose(1, 0, 2, 3, 4, 5)
        want = want.reshape((taps,) + out_shape)
        covered = np.zeros(out_shape, dtype=int)
        splits = []
        m = k // 2 if padding == PAD_SAME else 0
        for zs, ys, cols in _windows(tensor._pad(x, (m,) * 3), k, out_shape):
            for j, z in enumerate(range(zs.start, zs.stop)):
                assert np.array_equal(cols[j], want[:, z, ys].reshape(taps, -1))
            covered[zs, ys] += 1
            splits.append((zs.start, zs.stop - zs.start, ys.start, ys.stop - ys.start))
        assert (covered == 1).all()
        return splits

    @pytest.mark.parametrize("multi_slab", [False, True])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("shape,k,padding", _IM2COL_CASES)
    def test_columns_equal_oracle_bytes(self, monkeypatch, shape, k, padding, c, multi_slab):
        # the default budget holds the whole output; a budget of one row of k
        # lowered slices gives 1-row strips and 1-slice windows
        d, h, w = conv3d_output_shape(shape, k, padding)
        if multi_slab:
            _hold(monkeypatch, c, k, w, 1, 1)
        x = np.random.default_rng(61).normal(size=(c,) + shape)
        want = [(z, 1, y, 1) for y in range(h) for z in range(d)] if multi_slab else [(0, d, 0, h)]
        assert self._windows_match_oracle(x, k, padding) == want

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("shape,k,padding,rows,slices", _ROW_TILE_CASES)
    def test_row_tiles_equal_oracle_bytes(self, monkeypatch, shape, k, padding, c, rows, slices):
        # the budget holds `rows` rows of `slices` + k - 1 lowered slices; the
        # split restates the rule: strips of as many rows as hold 3k - 2
        # lowered slices, then windows of as many slices as the buffer holds
        # beyond the k - 1 carried, at least 1 row and 1 slice
        d, h, w = conv3d_output_shape(shape, k, padding)
        _hold(monkeypatch, c, k, w, rows, slices)
        row = c * k * k * w * 8
        r = max(1, min(h, tensor._COL_BYTES // ((3 * k - 2) * row)))
        n = max(k, min(d + k - 1, tensor._COL_BYTES // (r * row))) - k + 1
        x = np.random.default_rng(71).normal(size=(c,) + shape)
        want = [(z, min(n, d - z), y, min(r, h - y)) for y in range(0, h, r) for z in range(0, d, n)]
        assert self._windows_match_oracle(x, k, padding) == want


# (input spatial shape, k, padding, budget as (rows, slices) for `_hold` or
# None for the default): same padding with fewer slices than k - 1, valid
# padding with one output slice, last windows shorter than k - 1 (7 = 3 + 3 + 1
# and 8 = 3 + 3 + 2 at k = 5, 7 = 2 + 2 + 2 + 1 at k = 3), and k = 1
_CARRY_CASES = {
    "same-d1-k5": ((1, 4, 3), 5, PAD_SAME, None),
    "same-d1-k5-rows1": ((1, 4, 3), 5, PAD_SAME, (1, 1)),
    "same-d3-k5": ((3, 4, 3), 5, PAD_SAME, None),
    "same-d3-k5-rows1": ((3, 4, 3), 5, PAD_SAME, (1, 1)),
    "valid-d1-k3": ((3, 5, 4), 3, PAD_VALID, (1, 1)),
    "valid-d1-k5": ((5, 6, 5), 5, PAD_VALID, None),
    "short-last-1-k5": ((7, 3, 3), 5, PAD_SAME, (1, 3)),
    "short-last-2-k5": ((8, 3, 3), 5, PAD_SAME, (1, 3)),
    "short-last-1-k3": ((7, 3, 4), 3, PAD_SAME, (1, 2)),
    "k1": ((4, 3, 5), 1, PAD_SAME, None),
    "k1-rows1": ((4, 3, 5), 1, PAD_SAME, (1, 1)),
}


class TestWindowCarry:
    """Edge cases of the k - 1 lowered slices carried between windows.

    A stale row left in the shared buffer by an earlier window or strip
    would show as a wrong output voxel or gradient entry.
    """

    @staticmethod
    def _setup(monkeypatch, spatial, k, padding, budget, seed, c_in=2, c_out=2):
        out_shape = conv3d_output_shape(spatial, k, padding)
        if budget is not None:
            _hold(monkeypatch, c_in, k, out_shape[2], *budget)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c_in,) + spatial)
        w0 = rng.normal(size=(c_out, c_in, k, k, k))
        return x, w0, rng.normal(size=c_out), rng.normal(size=(c_out,) + out_shape)

    @pytest.mark.parametrize("case", list(_CARRY_CASES))
    def test_forward_matches_oracle(self, monkeypatch, case):
        spatial, k, padding, budget = _CARRY_CASES[case]
        x, w0, bias, _ = self._setup(monkeypatch, spatial, k, padding, budget, 83)
        got = conv3d_forward(FeatureMap(x), ConvWeights(w0, bias=bias), padding).data
        assert np.abs(got - naive_conv3d(x, w0, bias, padding)).max() < 1e-9

    @pytest.mark.parametrize("case", list(_CARRY_CASES))
    def test_backward_matches_central_difference(self, monkeypatch, case):
        spatial, k, padding, budget = _CARRY_CASES[case]
        x0, w0, bias, probe = self._setup(monkeypatch, spatial, k, padding, budget, 89)

        def phi_w(wdata):
            return float(np.sum(conv3d_forward(FeatureMap(x0), ConvWeights(wdata), padding).data * probe))

        def phi_x(xdata):
            return float(np.sum(conv3d_forward(FeatureMap(xdata), ConvWeights(w0), padding).data * probe))

        # linear objectives: a unit step has no truncation error
        gx, gw = conv3d_backward(FeatureMap(x0), ConvWeights(w0, bias=bias), FeatureMap(probe), padding)
        assert max_rel_err(gw.data, central_difference(phi_w, w0, h=1.0)) < 1e-6
        assert max_rel_err(gx.data, central_difference(phi_x, x0, h=1.0)) < 1e-6
        assert max_rel_err(gw.bias, probe.sum(axis=(1, 2, 3))) < 1e-12


class TestInputsUntouched:
    """The library neither writes into nor returns views of its inputs."""

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

    def test_library_outputs_are_read_only_and_unshared(self):
        # each output is a fresh sealed buffer: read-only, and apart from
        # the caller's writable sources and the input containers built on them
        rng = np.random.default_rng(71)
        cfg = OocsBlockConfig(c_in=2, c_out=4)
        params = init_block_params(cfg, 3)
        xs = rng.normal(size=(2, 5, 6, 7))
        gs = rng.normal(size=(4, 5, 6, 7))
        vs = rng.normal(size=(6, 5, 7))
        ts = (rng.random((5, 6, 7)) < 0.5).astype(float)
        x, g, v = FeatureMap(xs), FeatureMap(gs), Volume(vs, (1.0, 1.5, 0.5))
        y, cache = block_forward(x, params, cfg)
        gx, grads = block_backward(g, cache, params, cfg)
        _, g_logits = bce_dice_loss(PredictionPair(FeatureMap(xs[:1]), ts))
        outs = [y.data, gx.data, g_logits.data]
        outs += [a for name in LEARNABLE for a in (getattr(grads, name).data, getattr(grads, name).bias)]
        outs += [gaussian_blur(v, 1.0).data, gaussian_noise(v, 0.5, 1).data,
                 motion_artifact(v, 1, seed=2).data, zscore(v).data,
                 resample(v, (1.0, 1.0, 1.0)).data, crop_or_pad(v, v.shape).data]
        inputs = [xs, gs, vs, ts, x.data, g.data, v.data]
        for out in outs:
            assert not out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in inputs)
