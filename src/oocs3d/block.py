"""Encoder block with fixed On/Off center-surround residual injections.

The block runs two parallel pathways, each at half the output width.
Each pathway applies a learnable convolution whose pre-activation also
receives the response of a fixed, exactly balanced center-surround
kernel (On for one pathway, Off for the other), then a ReLU, a second
learnable convolution, and a final ReLU.  The two pathway outputs are
concatenated channel-wise, On first.

The parameters store the balanced On kernel K once.  Lifted, every
(output, input) channel pair holds P = K / c_in, so every On channel is
one response R, the cross-correlation of P with the input's channel
sum, and every Off channel is -R.  The block computes R once, with one
single-channel convolution, and adds it as +R to the On pre-activation
and as -R to the Off one; -R is an exact negation, so Off stays
bit-exactly antisymmetric.  For the same reason the backward pass sends
one single-channel map through the flipped kernel.  The two learnable
first convolutions share x too, so their backward is one pass through
their stacked weights.

Every shape, and P, comes from the parameters.  A config that does not
describe them raises DimensionError, and the backward pass refuses any
parameters but the ones its cache was made with.

The fixed kernels are excluded from every gradient path: the backward
pass produces no entry for them at all, so the block trains exactly as
many parameters as the same two-pathway block without the injections.
Because each pathway's second convolution maps c_out/2 channels onto
c_out/2, that count is exactly (c_out**2 / 2) * k_learn**3 below the
full-width c_in -> c_out -> c_out two-conv stack.

The cache keeps what the backward pass reads, the input, the two
first-stage activations and the output, and R for a later forward.  A
ReLU's output is positive exactly where its input is, so the backward
takes each mask from the cached output and no pre-activation is kept.

A forward pass may start from the cache of an earlier one (`base=`, see
`block_forward`) and take from it every stage whose inputs are the same
objects as there.  The reuse is byte-exact: containers freeze their
buffers, so the same object holds the same bytes, and the convolution is
byte-deterministic at a fixed BLAS thread count.  The finite-difference
check uses it, since most of its probes move one conv and leave the
other stages as they were.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .kernels import KernelSpec, make_kernel
from .rng import make_rng
from .tensor import ConvWeights, FeatureMap, _seal, conv3d_backward, conv3d_forward

# the four learnable convs, in the field order of OocsBlockParams and BlockGrads
LEARNABLE = ("w1_on", "w1_off", "w2_on", "w2_off")


@dataclass(frozen=True)
class OocsBlockConfig:
    """Static shape of one encoder block."""

    c_in: int
    c_out: int
    k_learn: int = 3
    k_oocs: int = 3

    def __post_init__(self):
        if self.c_in < 1:
            raise ConfigError(f"c_in must be >= 1, got {self.c_in}")
        if self.c_out < 2 or self.c_out % 2 != 0:
            raise ConfigError(f"c_out must be even and >= 2, got {self.c_out}")
        if self.k_learn < 1 or self.k_learn % 2 == 0:
            raise ConfigError(f"k_learn must be odd and >= 1, got {self.k_learn}")
        if self.k_oocs not in (3, 5):
            raise ConfigError(f"k_oocs must be 3 or 5, got {self.k_oocs}")

    @property
    def c_half(self) -> int:
        return self.c_out // 2


@dataclass(frozen=True)
class OocsBlockParams:
    """All tensors of one block: four learnable convs and the fixed On kernel.

    `on_kernel` is the balanced On kernel K as (1, 1, k, k, k) weights
    without bias.  The Off kernel is -K and is never stored.
    """

    w1_on: ConvWeights
    w1_off: ConvWeights
    w2_on: ConvWeights
    w2_off: ConvWeights
    on_kernel: ConvWeights

    def __post_init__(self):
        if self.on_kernel.data.shape[:2] != (1, 1) or self.on_kernel.bias is not None:
            raise ConfigError("the fixed On kernel must be one (1, 1, k, k, k) kernel without bias")
        for a, b in ((self.w1_on, self.w1_off), (self.w2_on, self.w2_off)):
            if a.data.shape != b.data.shape:
                raise DimensionError("paired pathway weights must share a shape")
        if self.w2_on.c_in != self.w1_on.c_out or self.w2_on.c_out != self.w1_on.c_out:
            raise DimensionError("second conv must map the pathway width onto itself")

    @property
    def fixed_on(self) -> ConvWeights:
        """P broadcast to (c_out/2, c_in, k, k, k), the On injection as a multichannel conv would apply it."""
        return ConvWeights(np.broadcast_to(_p(self), self.w1_on.data.shape[:2] + self.on_kernel.data.shape[2:]))

    @property
    def fixed_off(self) -> ConvWeights:
        """-P broadcast like `fixed_on`; its exact negation."""
        return ConvWeights(np.broadcast_to(-_p(self), self.w1_on.data.shape[:2] + self.on_kernel.data.shape[2:]))


def _p(params: OocsBlockParams) -> np.ndarray:
    """P = K / c_in as (1, 1, k, k, k): the kernel each lifted (output, input) channel pair holds."""
    return params.on_kernel.data / params.w1_on.c_in


@dataclass(frozen=True)
class BlockGrads:
    """Gradients for the learnable tensors only; fixed kernels have no entry."""

    w1_on: ConvWeights
    w1_off: ConvWeights
    w2_on: ConvWeights
    w2_off: ConvWeights


@dataclass(frozen=True)
class BlockCache:
    """Forward intermediates: the backward pass reads them, and a later forward may reuse them.

    `params` are the parameters the forward ran with and `r` is the fixed
    response R, so `block_forward(..., base=cache)` can tell which stages
    it may take from here.  `a1_on` and `a1_off` are the first-stage
    activations the second convs read, and `y` is the block's output;
    `a1 > 0` and `y > 0` are the ReLU masks the backward pass needs.
    """

    x: FeatureMap
    params: OocsBlockParams
    r: np.ndarray
    a1_on: FeatureMap
    a1_off: FeatureMap
    y: FeatureMap


def init_block_params(cfg: OocsBlockConfig, seed: int) -> OocsBlockParams:
    """Draw learnable weights uniform in +-1/sqrt(fan_in); build the fixed On kernel."""
    rng = make_rng(seed)

    def draw(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    ch = cfg.c_half
    k = cfg.k_learn
    fan1 = cfg.c_in * k ** 3
    fan2 = ch * k ** 3
    w1_on = ConvWeights(draw((ch, cfg.c_in, k, k, k), fan1), draw((ch,), fan1))
    w1_off = ConvWeights(draw((ch, cfg.c_in, k, k, k), fan1), draw((ch,), fan1))
    w2_on = ConvWeights(draw((ch, ch, k, k, k), fan2), draw((ch,), fan2))
    w2_off = ConvWeights(draw((ch, ch, k, k, k), fan2), draw((ch,), fan2))
    on_kernel = ConvWeights(make_kernel(KernelSpec(k=cfg.k_oocs), "on").weights[None, None])
    return OocsBlockParams(w1_on, w1_off, w2_on, w2_off, on_kernel)


def _check_config(params: OocsBlockParams, cfg: OocsBlockConfig) -> None:
    """Raise DimensionError unless `cfg` describes `params`, whose own check ties each Off conv to its On twin."""
    w1 = params.w1_on.data.shape  # (c_out/2, c_in, k, k, k)
    got = (w1[1], 2 * w1[0], w1[2], params.w2_on.data.shape[2], params.on_kernel.data.shape[2])
    if got != (cfg.c_in, cfg.c_out, cfg.k_learn, cfg.k_learn, cfg.k_oocs):
        raise DimensionError(f"params do not match the block config: params have (c_in, c_out, k_learn, "
                             f"second conv's k_learn, k_oocs) = {got}, config is {cfg}")


def _first_stage(x: FeatureMap, w1: ConvWeights, r: np.ndarray, inject) -> FeatureMap:
    """ReLU(conv(x, w1) `inject` R), built in one buffer: the sum, then the ReLU in place."""
    a1 = inject(conv3d_forward(x, w1).data, r)
    return FeatureMap(_seal(np.maximum(a1, 0.0, out=a1)))


def block_forward(
    x: FeatureMap, params: OocsBlockParams, cfg: OocsBlockConfig, base: BlockCache | None = None
) -> tuple[FeatureMap, BlockCache]:
    """Run the block; returns the concatenated output and the backward cache.

    With `base`, the cache of an earlier forward through the same block,
    a stage reuses `base`'s result when each of its inputs is the same
    object (`is`, not equal values) as in `base`:

    * R when `x is base.x` and `on_kernel` is `base`'s;
    * `a1_on` when R is reused and `w1_on` is `base`'s (`a1_off`
      likewise with `w1_off`);
    * the On half of `y` when `a1_on` is reused and `w2_on` is `base`'s,
      copied from `base.y` (the Off half likewise with `a1_off` and
      `w2_off`).

    The result is byte-identical to a forward without `base`, which is
    the same code with no stage reused.
    """
    _check_config(params, cfg)
    if x.channels != params.w1_on.c_in:
        raise DimensionError(f"input has {x.channels} channels, block expects {params.w1_on.c_in}")
    keep_r = base is not None and x is base.x and params.on_kernel is base.params.on_kernel
    keep1_on = keep_r and params.w1_on is base.params.w1_on
    keep1_off = keep_r and params.w1_off is base.params.w1_off
    keep2_on = keep1_on and params.w2_on is base.params.w2_on
    keep2_off = keep1_off and params.w2_off is base.params.w2_off
    if keep_r:
        r = base.r
    else:
        x_sum = FeatureMap(_seal(x.data.sum(axis=0, keepdims=True)))
        r = conv3d_forward(x_sum, ConvWeights(_p(params))).data
    a1_on = base.a1_on if keep1_on else _first_stage(x, params.w1_on, r, np.add)
    a1_off = base.a1_off if keep1_off else _first_stage(x, params.w1_off, r, np.subtract)
    ch = params.w1_on.c_out
    y = np.empty((2 * ch,) + x.data.shape[1:])
    for keep2, a1, w2, half in ((keep2_on, a1_on, params.w2_on, slice(0, ch)),
                                (keep2_off, a1_off, params.w2_off, slice(ch, 2 * ch))):
        if keep2:
            y[half] = base.y.data[half]
        else:
            np.maximum(conv3d_forward(a1, w2).data, 0.0, out=y[half])
    y = FeatureMap(_seal(y))
    return y, BlockCache(x=x, params=params, r=r, a1_on=a1_on, a1_off=a1_off, y=y)


def block_backward(
    grad_y: FeatureMap, cache: BlockCache, params: OocsBlockParams, cfg: OocsBlockConfig
) -> tuple[FeatureMap, BlockGrads]:
    """Analytic gradients for the input and the learnable tensors.

    The fixed injections contribute to the input gradient (they sit on
    the forward path) but receive no weight gradient of their own.  Their
    part is the adjoint of the shared response R: the map
    sum_o g_pre1_on[o] - sum_o g_pre1_off[o], correlated with P flipped on
    all three spatial axes, added to every input channel.  Each ReLU's
    mask is read from its cached output (`a1 > 0`, `y > 0`).

    `params` must be `cache.params`, the object the forward ran with.
    """
    if params is not cache.params:
        raise ConfigError("params are not the ones the cached forward ran with")
    _check_config(params, cfg)
    ch = params.w1_on.c_out
    out_shape = (2 * ch,) + cache.x.data.shape[1:]
    if grad_y.data.shape != out_shape:
        raise DimensionError(f"grad_y shape {grad_y.data.shape} does not match block output {out_shape}")

    # the first-conv gradients of both pathways, On rows first, as the
    # output gradient of the two first convs stacked into one
    g_pre1 = np.empty(out_shape)

    def second_backward(a1, w2, rows):
        g_pre2 = _seal(grad_y.data[rows] * (cache.y.data[rows] > 0.0))
        g_a1, g_w2 = conv3d_backward(a1, w2, FeatureMap(g_pre2))
        np.multiply(g_a1.data, a1.data > 0.0, out=g_pre1[rows])
        return g_w2

    on, off = slice(0, ch), slice(ch, 2 * ch)
    g_w2_on = second_backward(cache.a1_on, params.w2_on, on)
    g_w2_off = second_backward(cache.a1_off, params.w2_off, off)
    # both first convs read x, so one backward through their stacked weights
    # lowers x once and gives both pathways' input gradient in one correlation
    w1 = ConvWeights(_seal(np.concatenate([params.w1_on.data, params.w1_off.data])))
    gx, g_w1 = conv3d_backward(cache.x, w1, FeatureMap(_seal(g_pre1)))

    def first_grad(w, rows):
        return ConvWeights(g_w1.data[rows], None if w.bias is None else g_pre1[rows].sum(axis=(1, 2, 3)))

    flipped = ConvWeights(_p(params)[..., ::-1, ::-1, ::-1])
    s = _seal(g_pre1[on].sum(axis=0) - g_pre1[off].sum(axis=0))
    gx_fixed = conv3d_forward(FeatureMap(s[None]), flipped).data
    grads = BlockGrads(w1_on=first_grad(params.w1_on, on), w1_off=first_grad(params.w1_off, off),
                       w2_on=g_w2_on, w2_off=g_w2_off)
    return FeatureMap(_seal(gx.data + gx_fixed)), grads


def learnable_param_count(params: OocsBlockParams) -> int:
    """Number of trainable scalars actually stored in `params`."""
    total = 0
    for name in LEARNABLE:
        w = getattr(params, name)
        total += w.data.size
        if w.bias is not None:
            total += w.bias.size
    return total
