"""Finite-difference verification of the block's analytic gradients.

The check probes random unit directions in parameter (and input) space
and compares the analytic directional derivative against a central
difference.  Central differences only estimate a derivative where the
mapping is smooth, so directions that flip any ReLU activation between
the two evaluation points are redrawn; the first-layer pre-activations
are affine along any parameter direction, so equal activation patterns
at both endpoints rule out a hidden crossing there.  Each probe's forward
starts from the base point's cache, and only the stages it recomputed
are compared: a stage taken from that cache is the base point's own, so
its pattern cannot differ.  Along an accepted
direction the objective is polynomial of degree at most two, for which
the central difference is exact up to roundoff, and the comparison is
correspondingly tight.
"""

from __future__ import annotations

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


def _pathways(cache) -> tuple[tuple[FeatureMap, ConvWeights, np.ndarray], ...]:
    """Per pathway, On first: (first-stage activation, second conv, the pathway's half of y)."""
    ch = cache.params.w1_on.c_out
    return ((cache.a1_on, cache.params.w2_on, cache.y.data[:ch]),
            (cache.a1_off, cache.params.w2_off, cache.y.data[ch:]))


def _kink_free(cache, base, base_signs) -> bool:
    """True when each ReLU stage that `cache`'s forward recomputed has the sign pattern it has in `base`.

    `base_signs` holds `base`'s patterns per pathway as (a1 > 0, y half
    > 0).  A stage the forward took from `base` by identity (see
    `block_forward`) has `base`'s pattern, so it is not compared.
    """
    for (a1, w2, y_half), (a1_0, w2_0, _), (sign1, sign2) in zip(_pathways(cache), _pathways(base), base_signs):
        first = a1 is not a1_0
        if first and not np.array_equal(a1.data > 0.0, sign1):
            return False
        if (first or w2 is not w2_0) and not np.array_equal(y_half > 0.0, sign2):
            return False
    return True


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
    base_signs = [(a1.data > 0.0, y_half > 0.0) for a1, _, y_half in _pathways(base_cache)]

    def phi(xin: FeatureMap, p: OocsBlockParams):
        # a probe moves one conv or the input; the stages it leaves alone come from the base cache
        y, cache = block_forward(xin, p, cfg, base=base_cache)
        return float(np.sum(y.data * probe)), _kink_free(cache, base_cache, base_signs)

    gx, grads = block_backward(FeatureMap(probe), base_cache, params, cfg)

    def moved(name, data, bias):
        return x, replace(params, **{name: ConvWeights(data, bias)})

    # (analytic gradient, step -> (input, params) moved by that step)
    targets = []
    for name in LEARNABLE:
        w, g = getattr(params, name), getattr(grads, name)
        targets.append((g.data, lambda step, name=name, w=w: moved(name, _seal(w.data + step), w.bias)))
        targets.append((g.bias, lambda step, name=name, w=w: moved(name, w.data, _seal(w.bias + step))))
    targets.append((gx.data, lambda step: (FeatureMap(_seal(x.data + step)), params)))

    max_rel = 0.0
    redraws = 0
    for g, move in targets:
        floor = 1e-8 * (1.0 + float(np.linalg.norm(g)))
        for _ in range(n_dirs):
            for _attempt in range(32):
                u = rng.normal(size=g.shape)
                u /= float(np.linalg.norm(u))
                f_plus, kept_plus = phi(*move(h * u))
                f_minus, kept_minus = phi(*move(-h * u))
                if kept_plus and kept_minus:
                    break
                redraws += 1
            else:
                raise DomainError("no kink-free probe direction found in 32 draws")
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
