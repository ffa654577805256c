"""Finite-difference verification of the block's analytic gradients.

The check probes random unit directions in parameter (and input) space
and compares the analytic directional derivative against a central
difference.  Central differences only estimate a derivative where the
mapping is smooth, so directions that flip any ReLU activation between
the two evaluation points are redrawn, up to `_MAX_DRAWS` draws each;
the first-layer pre-activations are affine along any parameter
direction, so equal activation patterns at both endpoints rule out a
hidden crossing there.  Each probe's forward starts from the base
point's cache, and a ReLU output that is that cache's own object (a
stage `block_forward` reused) is not compared.  Along an accepted
direction the objective is polynomial of degree at most two, for which
the central difference is exact up to roundoff, and the comparison is
correspondingly tight.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .block import LEARNABLE, OocsBlockConfig, OocsBlockParams, block_backward, block_forward, init_block_params
from .errors import DomainError
from .rng import make_rng
from .tensor import ConvWeights, FeatureMap, _check_size, _seal

# offset separating the probe stream from the parameter-init stream
_PROBE_STREAM = 1_000_003
# draws per direction before the check gives up on finding one without a kink
_MAX_DRAWS = 32


@dataclass(frozen=True)
class GradCheckCase:
    """Outcome of one (config, seed) gradient check."""

    k_oocs: int
    c_in: int
    c_out: int
    seed: int
    max_rel_err: float
    directions: int
    redraws: int
    passed: bool


def _relu_outputs(cache) -> tuple[FeatureMap, ...]:
    return cache.a1_on, cache.a1_off, cache.y


def _kink_free(cache, base, base_signs) -> bool:
    """True when each ReLU output of `cache` is `base`'s own object or has `base_signs`'s pattern.

    `y` is new on every forward, so it is always compared in full; a half
    that `block_forward` copied from `base.y` has `base`'s pattern.
    """
    return all(out is out0 or np.array_equal(out.data > 0.0, sign)
               for out, out0, sign in zip(_relu_outputs(cache), _relu_outputs(base), base_signs))


def block_gradient_check(
    cfg: OocsBlockConfig,
    seed: int,
    h: float = 1e-5,
    n_dirs: int = 3,
    spatial: tuple[int, int, int] = (6, 6, 6),
    tol: float = 1e-5,
) -> GradCheckCase:
    """Check the data and bias of each learnable conv, in `LEARNABLE` order, then the input."""
    for name, value in (("step size h", h), ("tolerance tol", tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be finite and positive, got {value!r}")
    if n_dirs < 1:
        raise DomainError(f"n_dirs must be >= 1, got {n_dirs!r}")
    if len(spatial) != 3 or min(spatial) < 1:
        raise DomainError(f"spatial must be three positive sizes, got {spatial!r}")
    _check_size((cfg.c_out,) + tuple(spatial), "gradient-check probe")
    params = init_block_params(cfg, seed)
    rng = make_rng(seed + _PROBE_STREAM)
    x = FeatureMap(rng.uniform(-1.0, 1.0, (cfg.c_in,) + tuple(spatial)))
    probe = rng.normal(size=(cfg.c_out,) + tuple(spatial))

    _, base_cache = block_forward(x, params, cfg)
    base_signs = [out.data > 0.0 for out in _relu_outputs(base_cache)]

    def phi(xin: FeatureMap, p: OocsBlockParams):
        # a probe moves one conv or the input; the stages it leaves alone come from the base cache
        y, cache = block_forward(xin, p, cfg, base=base_cache)
        return float(np.sum(y.data * probe)), _kink_free(cache, base_cache, base_signs)

    gx, grads = block_backward(FeatureMap(probe), base_cache, params, cfg)

    def moved(name, field, step):
        w = getattr(params, name)
        data, bias = (_seal(w.data + step), w.bias) if field == "data" else (w.data, _seal(w.bias + step))
        return x, replace(params, **{name: ConvWeights(data, bias)})

    # (target name, analytic gradient, step -> (input, params) moved by that step)
    targets = [(f"{name}.{field}", getattr(getattr(grads, name), field), functools.partial(moved, name, field))
               for name in LEARNABLE for field in ("data", "bias")]
    targets.append(("x", gx.data, lambda step: (FeatureMap(_seal(x.data + step)), params)))

    max_rel = 0.0
    redraws = 0
    for target, g, move in targets:
        floor = 1e-8 * (1.0 + float(np.linalg.norm(g)))
        for _ in range(n_dirs):
            for _attempt in range(_MAX_DRAWS):
                u = rng.normal(size=g.shape)
                u /= float(np.linalg.norm(u))
                f_plus, kept_plus = phi(*move(h * u))
                f_minus, kept_minus = phi(*move(-h * u))
                if kept_plus and kept_minus:
                    break
                redraws += 1
            else:
                case = (cfg.k_oocs, cfg.c_in, cfg.c_out, seed)
                raise DomainError(f"no kink-free probe direction for {target} found in {_MAX_DRAWS} draws "
                                  f"at h={h!r} in case (k_oocs, c_in, c_out, seed) = {case}")
            fd = (f_plus - f_minus) / (2.0 * h)
            an = float(np.sum(g * u))
            rel = abs(an - fd) / max(abs(an), abs(fd), floor)
            max_rel = max(max_rel, rel)

    return GradCheckCase(
        k_oocs=cfg.k_oocs,
        c_in=cfg.c_in,
        c_out=cfg.c_out,
        seed=seed,
        max_rel_err=max_rel,
        directions=len(targets) * n_dirs,
        redraws=redraws,
        passed=max_rel < tol,
    )


def run_gradcheck_grid(
    seeds=(0, 1),
    h: float = 1e-5,
    n_dirs: int = 3,
    spatial: tuple[int, int, int] = (6, 6, 6),
    tol: float = 1e-5,
) -> list[GradCheckCase]:
    """Run the check on each (k_oocs, c_in, c_out) in (3, 5) x (1, 2) x (4, 8) and each seed.

    Rows come in that nesting order, seeds innermost.  No seed means no
    case, and raises DomainError.
    """
    rows = []
    for k, ci, co in itertools.product((3, 5), (1, 2), (4, 8)):
        cfg = OocsBlockConfig(c_in=ci, c_out=co, k_oocs=k)
        for seed in seeds:
            rows.append(block_gradient_check(cfg, seed, h=h, n_dirs=n_dirs, spatial=spatial, tol=tol))
    if not rows:
        raise DomainError("the gradient-check grid has no case: give at least one seed")
    return rows
