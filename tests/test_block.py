"""Two-pathway encoder block: forward contract, gradients, parameter ledger."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from oocs3d import _strips
from oocs3d.block import (
    LEARNABLE,
    OocsBlockConfig,
    OocsBlockParams,
    block_backward,
    block_forward,
    init_block_params,
    learnable_param_count,
)
from oocs3d.errors import ConfigError, DimensionError
from oocs3d.kernels import KernelSpec, make_kernel
from oocs3d.rng import make_rng
from oocs3d.tensor import ConvWeights, FeatureMap, conv3d_backward, conv3d_forward

from oracles import (
    max_rel_err,
    naive_block_forward,
    naive_conv3d,
    plain_block_param_count,
    two_pathway_param_count,
)


def _zeroed_learnables(params):
    def z(w):
        return ConvWeights(np.zeros_like(w.data), bias=np.zeros_like(w.bias))

    return dataclasses.replace(
        params,
        w1_on=z(params.w1_on),
        w1_off=z(params.w1_off),
        w2_on=z(params.w2_on),
        w2_off=z(params.w2_off),
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            OocsBlockConfig(c_in=1, c_out=7)  # odd c_out
        with pytest.raises(ConfigError):
            OocsBlockConfig(c_in=0, c_out=4)
        with pytest.raises(ConfigError):
            OocsBlockConfig(c_in=1, c_out=4, k_oocs=7)
        with pytest.raises(ConfigError):
            OocsBlockConfig(c_in=1, c_out=4, k_learn=4)

    def test_half_width_and_spec(self):
        # the fixed On kernel is the default-spec balanced kernel of size k_oocs
        cfg = OocsBlockConfig(c_in=2, c_out=8, k_oocs=5)
        assert cfg.c_half == 4
        kernel = make_kernel(KernelSpec(k=5), "on").weights
        assert init_block_params(cfg, seed=0).on_kernel.data.tobytes() == kernel[None, None].tobytes()


class TestLiftKernel:
    """The lifted views `fixed_on` and `fixed_off` of the stored kernel."""

    def test_single_channel_is_plain_kernel(self):
        params = init_block_params(OocsBlockConfig(c_in=1, c_out=2), seed=0)
        w = params.fixed_on
        assert w.bias is None
        assert w.data.shape == (1, 1, 3, 3, 3)
        np.testing.assert_array_equal(w.data[0, 0], make_kernel(KernelSpec(k=3)).weights)

    def test_lifted_response_averages_channels(self):
        # with every input channel identical, the lifted conv must equal
        # the single-channel kernel response, for any c_in
        rng = np.random.default_rng(5)
        base = rng.normal(size=(6, 6, 6))
        kern = make_kernel(KernelSpec(k=3))
        single = conv3d_forward(
            FeatureMap(base[None]), ConvWeights(kern.weights[None, None])
        ).data[0]
        for c_in in (2, 3):
            x = FeatureMap(np.stack([base] * c_in))
            params = init_block_params(OocsBlockConfig(c_in=c_in, c_out=4), seed=0)
            for sign, lifted in ((1.0, params.fixed_on), (-1.0, params.fixed_off)):
                out = conv3d_forward(x, lifted).data
                for ch in range(2):
                    np.testing.assert_allclose(out[ch], sign * single, rtol=1e-12, atol=1e-12)

    def test_lifted_taps_sum_near_zero(self):
        params = init_block_params(OocsBlockConfig(c_in=3, c_out=8, k_oocs=5), seed=0)
        w = params.fixed_on
        assert w.data.shape == (4, 3, 5, 5, 5)
        sums = w.data.reshape(4, -1).sum(axis=1)
        assert np.abs(sums).max() < 1e-9


class TestParams:
    @pytest.mark.parametrize("k_oocs", [3, 5])
    @pytest.mark.parametrize("c_in,c_out", [(1, 4), (3, 8)])
    def test_lifted_views_derive_from_the_stored_kernel(self, c_in, c_out, k_oocs):
        cfg = OocsBlockConfig(c_in=c_in, c_out=c_out, k_oocs=k_oocs)
        params = init_block_params(cfg, seed=29)
        kernel = make_kernel(KernelSpec(k=k_oocs), "on").weights
        assert params.on_kernel.data.tobytes() == kernel[None, None].tobytes()
        on, off = params.fixed_on, params.fixed_off
        assert on.data.shape == off.data.shape == (c_out // 2, c_in) + (k_oocs,) * 3
        assert on.bias is None and off.bias is None
        per_pair = (kernel / c_in).tobytes()
        for o in range(c_out // 2):
            for i in range(c_in):
                assert on.data[o, i].tobytes() == per_pair
        assert off.data.tobytes() == (-on.data).tobytes()

    @pytest.mark.parametrize("bad", ["lifted", "bias"])
    def test_on_kernel_must_be_single_and_bias_free(self, bad):
        cfg = OocsBlockConfig(c_in=2, c_out=4)
        params = init_block_params(cfg, seed=0)
        kernel = params.on_kernel.data
        if bad == "lifted":
            wrong = ConvWeights(np.tile(kernel, (2, 2, 1, 1, 1)))
        else:
            wrong = ConvWeights(kernel, bias=np.zeros(1))
        with pytest.raises(ConfigError):
            dataclasses.replace(params, on_kernel=wrong)

    @pytest.mark.parametrize("fields, match", [
        (("w1_off",), "paired pathway weights"),
        (("w2_on", "w2_off"), "second conv"),
    ])
    def test_pathway_shapes_must_fit(self, fields, match):
        cfg = OocsBlockConfig(c_in=2, c_out=4)
        params = init_block_params(cfg, seed=0)
        wrong = ConvWeights(np.zeros((2, 3, 3, 3, 3)))  # three input channels where the block has two
        with pytest.raises(DimensionError, match=match):
            dataclasses.replace(params, **dict.fromkeys(fields, wrong))

    def test_init_determinism(self):
        cfg = OocsBlockConfig(c_in=2, c_out=4)
        a = init_block_params(cfg, seed=42)
        b = init_block_params(cfg, seed=42)
        assert a.w1_on.data.tobytes() == b.w1_on.data.tobytes()
        assert a.w2_off.bias.tobytes() == b.w2_off.bias.tobytes()
        c = init_block_params(cfg, seed=43)
        assert a.w1_on.data.tobytes() != c.w1_on.data.tobytes()


class TestForward:
    def test_shape_contract_and_on_first_ordering(self):
        cfg = OocsBlockConfig(c_in=4, c_out=8)
        params = init_block_params(cfg, seed=1)
        x = FeatureMap(np.random.default_rng(1).normal(size=(4, 16, 16, 16)))
        y, cache = block_forward(x, params, cfg)
        assert y.data.shape == (8, 16, 16, 16)
        assert cache.y is y
        # first half must be the On pathway's second stage on the cached activation
        np.testing.assert_array_equal(y.data[:4], np.maximum(conv3d_forward(cache.a1_on, params.w2_on).data, 0.0))
        np.testing.assert_array_equal(y.data[4:], np.maximum(conv3d_forward(cache.a1_off, params.w2_off).data, 0.0))

    def test_zero_learnables_constant_input_zero_interior(self):
        # with learnables off only the fixed zero-sum kernels act, and a
        # constant input then produces exact zeros away from the borders
        cfg = OocsBlockConfig(c_in=1, c_out=4, k_oocs=3)
        params = _zeroed_learnables(init_block_params(cfg, seed=3))
        x = FeatureMap(np.full((1, 8, 8, 8), 2.5))
        y, _ = block_forward(x, params, cfg)
        interior = y.data[:, 1:-1, 1:-1, 1:-1]
        assert np.abs(interior).max() < 1e-9

    @pytest.mark.parametrize("k_oocs", [3, 5])
    @pytest.mark.parametrize("c_in,c_out", [(1, 4), (2, 4), (2, 8)])
    def test_matches_straight_line_oracle(self, k_oocs, c_in, c_out):
        cfg = OocsBlockConfig(c_in=c_in, c_out=c_out, k_oocs=k_oocs)
        params = init_block_params(cfg, seed=7)
        x = FeatureMap(np.random.default_rng(7).normal(size=(c_in, 6, 6, 6)))
        y, _ = block_forward(x, params, cfg)
        want = naive_block_forward(x.data, params, cfg)
        assert np.abs(y.data - want).max() < 1e-12

    def test_fixed_injections_are_antisymmetric(self):
        # with the learnables zeroed only the fixed kernels act: the On
        # activation must be ReLU(R) and the Off one ReLU(-R), bit for bit,
        # so their difference is R itself; every channel must carry the same
        # response, and that response must be the lifted On conv of the input
        cfg = OocsBlockConfig(c_in=2, c_out=6)
        params = _zeroed_learnables(init_block_params(cfg, seed=11))
        x = FeatureMap(np.random.default_rng(11).normal(size=(2, 5, 5, 5)))
        _, cache = block_forward(x, params, cfg)
        on, off, r = cache.a1_on.data, cache.a1_off.data, np.broadcast_to(cache.r, cache.a1_on.shape)
        assert on.tobytes() == np.maximum(r, 0.0).tobytes()
        assert off.tobytes() == np.maximum(-r, 0.0).tobytes()
        assert (on - off).tobytes() == np.ascontiguousarray(r).tobytes()
        for ch in range(1, cfg.c_half):
            assert on[ch].tobytes() == on[0].tobytes()
        want = naive_conv3d(x.data, params.fixed_on.data)
        assert np.abs(r - want).max() <= 1e-12

    def test_perturbing_fixed_changes_output(self):
        cfg = OocsBlockConfig(c_in=1, c_out=4)
        params = init_block_params(cfg, seed=13)
        x = FeatureMap(np.random.default_rng(13).normal(size=(1, 6, 6, 6)))
        y0, _ = block_forward(x, params, cfg)
        params2 = dataclasses.replace(params, on_kernel=ConvWeights(params.on_kernel.data * 2.0))
        y1, _ = block_forward(x, params2, cfg)
        assert np.abs(y0.data - y1.data).max() > 1e-6

    def test_channel_mismatch_rejected(self):
        cfg = OocsBlockConfig(c_in=2, c_out=4)
        params = init_block_params(cfg, seed=0)
        with pytest.raises(DimensionError):
            block_forward(FeatureMap(np.zeros((3, 5, 5, 5))), params, cfg)
        with pytest.raises(DimensionError, match="params do not match"):
            block_forward(FeatureMap(np.zeros((2, 5, 5, 5))), params, OocsBlockConfig(c_in=2, c_out=8))


def _with_fixed_kernel(params, kernel):
    """`params` with `kernel` stored as the fixed On kernel."""
    return dataclasses.replace(params, on_kernel=ConvWeights(kernel[None, None]))


def _masks(cache):
    """The four ReLU masks, in stage order: a1_on, a1_off, then y's On and Off halves."""
    ch = cache.a1_on.channels
    return (cache.a1_on.data > 0, cache.a1_off.data > 0, cache.y.data[:ch] > 0, cache.y.data[ch:] > 0)


def _lifted_input_grad(grad_y, cache, params, cfg):
    """The input gradient with each fixed injection run as a lifted multichannel conv."""
    ch = cfg.c_half
    total = np.zeros_like(cache.x.data)
    for g_a2, y_half, a1, w2, w1, fixed in (
        (grad_y[:ch], cache.y.data[:ch], cache.a1_on, params.w2_on, params.w1_on, params.fixed_on),
        (grad_y[ch:], cache.y.data[ch:], cache.a1_off, params.w2_off, params.w1_off, params.fixed_off),
    ):
        g_a1, _ = conv3d_backward(a1, w2, FeatureMap(g_a2 * (y_half > 0.0)))
        g_pre1 = FeatureMap(g_a1.data * (a1.data > 0.0))
        total += conv3d_backward(cache.x, w1, g_pre1)[0].data
        total += conv3d_backward(cache.x, fixed, g_pre1)[0].data
    return total


class TestSharedFixedResponse:
    """One fixed response, added as +R and -R, against the lifted formulation."""

    @pytest.mark.parametrize("kernel", ["dog", "asymmetric"])
    @pytest.mark.parametrize("k_oocs", [3, 5])
    @pytest.mark.parametrize("c_in", [1, 3])
    def test_forward_and_input_grad_match_lifted(self, c_in, k_oocs, kernel):
        # the asymmetric kernel makes a missing spatial flip visible
        cfg = OocsBlockConfig(c_in=c_in, c_out=4, k_oocs=k_oocs)
        params = init_block_params(cfg, seed=31 + c_in)
        rng = np.random.default_rng(31 + k_oocs)
        if kernel == "asymmetric":
            params = _with_fixed_kernel(params, rng.normal(size=(k_oocs,) * 3))
        x = FeatureMap(rng.normal(size=(c_in, 5, 6, 7)))
        y, cache = block_forward(x, params, cfg)
        assert np.abs(y.data - naive_block_forward(x.data, params, cfg)).max() <= 1e-12
        g_y = rng.normal(size=y.data.shape)
        gx, _ = block_backward(FeatureMap(g_y), cache, params, cfg)
        want = _lifted_input_grad(g_y, cache, params, cfg)
        assert np.abs(gx.data - want).max() <= 1e-12 * np.abs(want).max()


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        cfg = OocsBlockConfig(c_in=1, c_out=4)
        params = init_block_params(cfg, seed=17)
        x = FeatureMap(np.random.default_rng(17).normal(size=(1, 5, 5, 5)))
        y, cache = block_forward(x, params, cfg)
        gx, grads = block_backward(FeatureMap(np.zeros_like(y.data)), cache, params, cfg)
        assert not gx.data.any()
        for name in ("w1_on", "w1_off", "w2_on", "w2_off"):
            g = getattr(grads, name)
            assert not g.data.any()
            assert not g.bias.any()

    def test_no_gradient_slots_for_fixed_kernels(self):
        cfg = OocsBlockConfig(c_in=1, c_out=4)
        names = {f.name for f in dataclasses.fields(__import__("oocs3d.block", fromlist=["BlockGrads"]).BlockGrads)}
        assert names == {"w1_on", "w1_off", "w2_on", "w2_off"}

    def test_grads_match_central_difference(self):
        # ReLU kinks: probe along a fixed random direction and accept the
        # estimate only when activation masks agree at both evaluation
        # points, as the packaged checker does; objective is quadratic in
        # any single tensor on a mask-stable segment
        cfg = OocsBlockConfig(c_in=2, c_out=4)
        params = init_block_params(cfg, seed=19)
        rng = np.random.default_rng(19)
        x = FeatureMap(rng.uniform(-1.0, 1.0, size=(2, 6, 6, 6)))
        probe = rng.normal(size=(4, 6, 6, 6))
        h = 1e-5

        def phi(p):
            y, c = block_forward(x, p, cfg)
            return float(np.sum(y.data * probe)), _masks(c)

        base_val, base_masks = phi(params)
        y, cache = block_forward(x, params, cfg)
        gx, grads = block_backward(FeatureMap(probe), cache, params, cfg)

        def masks_equal(a, b):
            return all(np.array_equal(u, v) for u, v in zip(a, b))

        checked = 0
        for name in ("w1_on", "w1_off", "w2_on", "w2_off"):
            w = getattr(params, name)
            g = getattr(grads, name)
            for field in ("data", "bias"):
                arr = getattr(w, field)
                direction = rng.normal(size=arr.shape)
                direction /= np.linalg.norm(direction)

                def shifted(scale):
                    new = ConvWeights(
                        arr + scale * direction if field == "data" else w.data,
                        bias=(arr + scale * direction) if field == "bias" else w.bias,
                    )
                    return dataclasses.replace(params, **{name: new})

                up, mu = phi(shifted(h))
                down, md = phi(shifted(-h))
                if not (masks_equal(mu, base_masks) and masks_equal(md, base_masks)):
                    continue  # kink crossed; direction not informative
                fd = (up - down) / (2.0 * h)
                an = float(np.sum(getattr(g, field) * direction))
                assert max_rel_err(np.array([an]), np.array([fd])) < 1e-5
                checked += 1
        assert checked >= 4  # most directions must have been mask-stable

        direction = rng.normal(size=x.data.shape)
        direction /= np.linalg.norm(direction)
        up, mu = phi(params)
        xs_up = FeatureMap(x.data + h * direction)
        xs_dn = FeatureMap(x.data - h * direction)
        yu, cu = block_forward(xs_up, params, cfg)
        yd, cd = block_forward(xs_dn, params, cfg)
        mu = _masks(cu)
        md = _masks(cd)
        if masks_equal(mu, base_masks) and masks_equal(md, base_masks):
            fd = float(np.sum(yu.data * probe) - np.sum(yd.data * probe)) / (2.0 * h)
            an = float(np.sum(gx.data * direction))
            assert max_rel_err(np.array([an]), np.array([fd])) < 1e-5

    def test_grad_shape_mismatch_rejected(self):
        cfg = OocsBlockConfig(c_in=1, c_out=4)
        params = init_block_params(cfg, seed=0)
        x = FeatureMap(np.zeros((1, 5, 5, 5)))
        _, cache = block_forward(x, params, cfg)
        with pytest.raises(DimensionError):
            block_backward(FeatureMap(np.zeros((4, 4, 4, 4))), cache, params, cfg)


def _count_convs(monkeypatch):
    """Count the calls through `oocs3d.block`'s conv3d_forward and conv3d_backward, by name."""
    import oocs3d.block as block

    calls = {"conv3d_forward": 0, "conv3d_backward": 0}
    for name in calls:
        real = getattr(block, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(block, name, counting)
    return calls


def _per_pathway_grads(grad_y, cache, params, cfg):
    """The input gradient and the w1_on, w1_off, w2_on, w2_off gradients, with one first-conv backward per pathway."""
    ch = cfg.c_half
    gx, sums, grads = 0.0, [], []
    for g_a2, y_half, a1, w2, w1 in (
        (grad_y[:ch], cache.y.data[:ch], cache.a1_on, params.w2_on, params.w1_on),
        (grad_y[ch:], cache.y.data[ch:], cache.a1_off, params.w2_off, params.w1_off),
    ):
        g_a1, g_w2 = conv3d_backward(a1, w2, FeatureMap(g_a2 * (y_half > 0.0)))
        g_pre1 = g_a1.data * (a1.data > 0.0)
        g_x, g_w1 = conv3d_backward(cache.x, w1, FeatureMap(g_pre1))
        gx = gx + g_x.data
        sums.append(g_pre1.sum(axis=0))
        grads.append((g_w1, g_w2))
    flipped = ConvWeights((params.on_kernel.data / cfg.c_in)[..., ::-1, ::-1, ::-1])
    gx = gx + conv3d_forward(FeatureMap((sums[0] - sums[1])[None]), flipped).data
    (g_w1_on, g_w2_on), (g_w1_off, g_w2_off) = grads
    return gx, (g_w1_on, g_w1_off, g_w2_on, g_w2_off)


class TestStackedFirstBackward:
    """One backward through the stacked w1_on/w1_off against one backward per pathway."""

    @pytest.mark.parametrize("off_bias", [True, False])
    @pytest.mark.parametrize("k_oocs", [3, 5])
    @pytest.mark.parametrize("c_in", [1, 3])
    def test_matches_per_pathway_formula(self, c_in, k_oocs, off_bias):
        cfg = OocsBlockConfig(c_in=c_in, c_out=6, k_oocs=k_oocs)
        params = init_block_params(cfg, seed=53 + c_in)
        if not off_bias:
            params = dataclasses.replace(params, w1_off=ConvWeights(params.w1_off.data))
        rng = np.random.default_rng(53 + k_oocs)
        x = FeatureMap(rng.normal(size=(c_in, 6, 7, 5)))
        y, cache = block_forward(x, params, cfg)
        g_y = rng.normal(size=y.data.shape)
        gx, grads = block_backward(FeatureMap(g_y), cache, params, cfg)
        want_gx, want = _per_pathway_grads(g_y, cache, params, cfg)
        assert np.abs(gx.data - want_gx).max() <= 1e-12 * np.abs(want_gx).max()
        for name, ref in zip(LEARNABLE, want):
            got = getattr(grads, name)
            if name.startswith("w2"):  # the second convs' backward is unchanged
                assert got.data.tobytes() == ref.data.tobytes() and got.bias.tobytes() == ref.bias.tobytes()
                continue
            assert got.data.shape == params.w1_on.data.shape
            for field in ("data", "bias"):
                arr, ref_arr = getattr(got, field), getattr(ref, field)
                if ref_arr is None:
                    assert arr is None
                    continue
                assert arr.flags.c_contiguous and not arr.flags.writeable
                assert np.abs(arr - ref_arr).max() <= 1e-12 * np.abs(ref_arr).max()


class TestCallBudget:
    """How many convs the block runs; a split of the stacked first-conv backward shows here."""

    def test_forward_and_backward_conv_counts(self, monkeypatch):
        cfg = OocsBlockConfig(c_in=2, c_out=4)
        params = init_block_params(cfg, seed=59)
        x = FeatureMap(make_rng(59).normal(size=(2, 5, 6, 4)))
        calls = _count_convs(monkeypatch)
        y, cache = block_forward(x, params, cfg)
        assert calls == {"conv3d_forward": 5, "conv3d_backward": 0}
        calls.update(conv3d_forward=0)
        block_backward(FeatureMap(np.ones(y.data.shape)), cache, params, cfg)
        assert calls == {"conv3d_forward": 1, "conv3d_backward": 3}


class TestSlimCache:
    """The cache holds the ReLU outputs, not the pre-activations, and the backward reads them as they are."""

    def test_backward_passes_the_cached_activations(self, monkeypatch):
        import oocs3d.block as block

        cfg = OocsBlockConfig(c_in=2, c_out=4)
        params = init_block_params(cfg, seed=61)
        x = FeatureMap(make_rng(61).normal(size=(2, 5, 6, 4)))
        y, cache = block_forward(x, params, cfg)
        inputs = []
        real = block.conv3d_backward

        def recording(inp, *args, **kwargs):
            inputs.append(inp)
            return real(inp, *args, **kwargs)

        monkeypatch.setattr(block, "conv3d_backward", recording)
        block_backward(FeatureMap(np.ones(y.data.shape)), cache, params, cfg)
        assert len(inputs) == 3
        assert inputs[0] is cache.a1_on and inputs[1] is cache.a1_off and inputs[2] is cache.x

    def test_forward_and_backward_peak(self, monkeypatch):
        # the caller holds y through the backward, as a training step does.
        # In units of one pathway's map (4 channels of 20^3) the traced peak
        # reads 13.7 here; a cache of the four pre-activations beside y, with
        # each ReLU redone in the backward, read 16.7
        cfg = OocsBlockConfig(c_in=2, c_out=8)
        params = init_block_params(cfg, seed=3)
        rng = make_rng(3)
        x = FeatureMap(rng.normal(size=(2, 20, 20, 20)))
        g = FeatureMap(rng.normal(size=(8, 20, 20, 20)))
        monkeypatch.setattr(_strips, "thread_count", lambda: 1)  # one lowering buffer at a time
        tracemalloc.start()
        try:
            y, cache = block_forward(x, params, cfg)
            block_backward(g, cache, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * (4 * 20 ** 3 * 8)


class TestConfigMustDescribeParams:
    """Every shape comes from the parameters; a config or params object that disagrees raises."""

    @staticmethod
    def _forward():
        cfg = OocsBlockConfig(c_in=2, c_out=4)
        params = init_block_params(cfg, seed=5)
        x = FeatureMap(make_rng(5).normal(size=(2, 5, 5, 5)))
        y, cache = block_forward(x, params, cfg)
        return cfg, params, x, FeatureMap(np.ones_like(y.data)), cache

    @pytest.mark.parametrize("field, value", [("c_in", 3), ("c_out", 8), ("k_learn", 5), ("k_oocs", 5)])
    def test_backward_refuses_another_config(self, field, value):
        cfg, params, _, g, cache = self._forward()
        with pytest.raises(DimensionError, match="params do not match") as exc:
            block_backward(g, cache, params, dataclasses.replace(cfg, **{field: value}))
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("other", ["other_seed", "equal_copy"])
    def test_backward_refuses_params_other_than_the_cached(self, other):
        # identity, not equal values: a copy is another object too
        cfg, params, _, g, cache = self._forward()
        wrong = init_block_params(cfg, seed=6) if other == "other_seed" else dataclasses.replace(params)
        with pytest.raises(ConfigError, match="cached forward") as exc:
            block_backward(g, cache, wrong, cfg)
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("field, value", [("k_learn", 5), ("k_oocs", 5)])
    def test_forward_refuses_a_config_of_other_kernel_sizes(self, field, value):
        cfg, params, x, _, _ = self._forward()
        with pytest.raises(DimensionError, match="params do not match") as exc:
            block_forward(x, params, dataclasses.replace(cfg, **{field: value}))
        assert exc.value.exit_code == 2


class TestParameterLedger:
    @pytest.mark.parametrize("k_learn", [3, 5])
    @pytest.mark.parametrize("c_in", [1, 2])
    @pytest.mark.parametrize("c_out", [4, 8])
    def test_learnable_count_closed_form(self, k_learn, c_in, c_out):
        cfg = OocsBlockConfig(c_in=c_in, c_out=c_out, k_learn=k_learn)
        params = init_block_params(cfg, seed=0)
        n = learnable_param_count(params)
        assert n == two_pathway_param_count(c_in, c_out, k_learn)
        ch = c_out // 2
        k3 = k_learn ** 3
        assert n == 2 * (ch * c_in * k3 + ch + ch * ch * k3 + ch)

    def test_fixed_kernels_add_zero_learnables(self):
        # doubling the fixed kernels' magnitude must not change the count
        cfg = OocsBlockConfig(c_in=2, c_out=4)
        params = init_block_params(cfg, seed=0)
        params2 = dataclasses.replace(params, on_kernel=ConvWeights(params.on_kernel.data * 3.0))
        assert learnable_param_count(params2) == learnable_param_count(params)

    def test_deficit_against_plain_two_conv_block(self):
        # the second-stage convs see half-width inputs, so the block holds
        # (c_out^2 / 2) * k^3 fewer weights than the plain stack; counted
        # on a built block
        for c_in, c_out, k in [(1, 4, 3), (2, 8, 3), (2, 4, 5)]:
            cfg = OocsBlockConfig(c_in=c_in, c_out=c_out, k_learn=k)
            n = learnable_param_count(init_block_params(cfg, 0))
            plain = plain_block_param_count(c_in, c_out, k)
            assert plain - n == (c_out ** 2 // 2) * k ** 3
            assert n < plain


class TestDeterminism:
    def test_forward_bit_identical_across_runs(self):
        cfg = OocsBlockConfig(c_in=2, c_out=4, k_oocs=5)
        params = init_block_params(cfg, seed=23)
        x = FeatureMap(make_rng(23).normal(size=(2, 7, 7, 7)))
        y1, _ = block_forward(x, params, cfg)
        y2, _ = block_forward(x, params, cfg)
        assert y1.data.tobytes() == y2.data.tobytes()


def _nudged(params, name, rng, data):
    """`params` with the data (or only the bias) of conv `name` moved by a small random step."""
    w = getattr(params, name)
    if data:
        w = ConvWeights(w.data + 1e-3 * rng.normal(size=w.data.shape), w.bias)
    else:
        w = ConvWeights(w.data, w.bias + 1e-3 * rng.normal(size=w.bias.shape))
    return dataclasses.replace(params, **{name: w})


# each probe kind: what it moves, and how many convs a forward from the base cache runs for it
_MOVES = {
    "nothing": (lambda x, p, rng: (x, p), 0),
    "w1_on": (lambda x, p, rng: (x, _nudged(p, "w1_on", rng, data=True)), 2),
    "w1_off": (lambda x, p, rng: (x, _nudged(p, "w1_off", rng, data=True)), 2),
    "w2_on": (lambda x, p, rng: (x, _nudged(p, "w2_on", rng, data=True)), 1),
    "w2_off": (lambda x, p, rng: (x, _nudged(p, "w2_off", rng, data=True)), 1),
    "w1_off_bias": (lambda x, p, rng: (x, _nudged(p, "w1_off", rng, data=False)), 2),
    "w2_on_bias": (lambda x, p, rng: (x, _nudged(p, "w2_on", rng, data=False)), 1),
    "input": (lambda x, p, rng: (FeatureMap(x.data + 1e-3 * rng.normal(size=x.data.shape)), p), 5),
    "on_kernel": (lambda x, p, rng: (x, _with_fixed_kernel(p, rng.normal(size=p.on_kernel.data.shape[2:]))), 5),
}


def _cache_bytes(cache):
    """The bytes of every array the cache holds, by field name."""
    return {"r": cache.r.tobytes(), **{f: getattr(cache, f).data.tobytes() for f in ("a1_on", "a1_off", "y")}}


class TestStageReuse:
    """`block_forward(..., base=)` reuses a stage only when its inputs are the same objects."""

    @staticmethod
    def _setup(c_in=2, k_oocs=3):
        cfg = OocsBlockConfig(c_in=c_in, c_out=4, k_oocs=k_oocs)
        params = init_block_params(cfg, seed=41)
        rng = make_rng(41)
        x = FeatureMap(rng.normal(size=(c_in, 5, 6, 4)))
        _, base = block_forward(x, params, cfg)
        return cfg, params, x, base, rng

    @pytest.mark.parametrize("k_oocs", [3, 5])
    @pytest.mark.parametrize("c_in", [1, 2])
    @pytest.mark.parametrize("kind", list(_MOVES))
    def test_bytes_equal_a_full_forward(self, kind, c_in, k_oocs):
        cfg, params, x, base, rng = self._setup(c_in, k_oocs)
        xm, pm = _MOVES[kind][0](x, params, rng)
        y_full, full = block_forward(xm, pm, cfg)
        y_inc, inc = block_forward(xm, pm, cfg, base=base)
        assert y_inc.data.tobytes() == y_full.data.tobytes()
        assert _cache_bytes(inc) == _cache_bytes(full)
        assert inc.x is xm and inc.params is pm

    @pytest.mark.parametrize("kind", list(_MOVES))
    def test_runs_only_the_convs_a_move_reaches(self, kind, monkeypatch):
        cfg, params, x, base, rng = self._setup()
        xm, pm = _MOVES[kind][0](x, params, rng)
        calls = _count_convs(monkeypatch)
        block_forward(xm, pm, cfg, base=base)
        assert calls["conv3d_forward"] == _MOVES[kind][1]

    def test_without_base_runs_every_conv(self, monkeypatch):
        cfg, params, x, _, _ = self._setup()
        calls = _count_convs(monkeypatch)
        block_forward(x, params, cfg)
        assert calls["conv3d_forward"] == 5

    @pytest.mark.parametrize("what, convs", [
        ("w2_on", 1), ("w1_off", 2), ("on_kernel", 5), ("input", 5),
    ])
    def test_equal_bytes_in_a_new_object_are_recomputed(self, what, convs, monkeypatch):
        cfg, params, x, base, _ = self._setup()
        if what == "input":
            xm, pm = FeatureMap(x.data.copy()), params
        else:
            w = getattr(params, what)
            xm, pm = x, dataclasses.replace(params, **{what: ConvWeights(w.data.copy(), w.bias)})
        calls = _count_convs(monkeypatch)
        y_inc, _ = block_forward(xm, pm, cfg, base=base)
        assert calls["conv3d_forward"] == convs
        y_full, _ = block_forward(x, params, cfg)
        assert y_inc.data.tobytes() == y_full.data.tobytes()
