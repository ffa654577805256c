"""Finite-difference verification of the block's analytic gradients.

The check probes random unit directions in parameter (and input) space
and compares the analytic directional derivative against a central
difference.  Central differences only estimate a derivative where the
mapping is smooth, so directions that flip any ReLU activation between
the two evaluation points are redrawn; the first-layer pre-activations
are affine along any parameter direction, so equal activation patterns
at both endpoints rule out a hidden crossing there.  Along an accepted
direction the objective is polynomial of degree at most two, for which
the central difference is exact up to roundoff, and the comparison is
correspondingly tight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .block import (
    OocsBlockConfig,
    OocsBlockParams,
    block_backward,
    block_forward,
    init_block_params,
)
from .errors import DomainError
from .rng import make_rng
from .tensor import ConvWeights, FeatureMap, _check_size

_LEARNABLE = ("w1_on", "w1_off", "w2_on", "w2_off")
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


def _masks(cache) -> tuple[np.ndarray, ...]:
    return (
        cache.pre1_on > 0.0,
        cache.pre1_off > 0.0,
        cache.pre2_on > 0.0,
        cache.pre2_off > 0.0,
    )


def _same_masks(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _shift_param(params: OocsBlockParams, name: str, field: str, direction: np.ndarray, scale: float):
    w = getattr(params, name)
    if field == "data":
        new = ConvWeights(w.data + scale * direction, w.bias)
    else:
        new = ConvWeights(w.data, w.bias + scale * direction)
    return replace(params, **{name: new})


def block_gradient_check(
    cfg: OocsBlockConfig,
    seed: int,
    h: float = 1e-5,
    n_dirs: int = 3,
    spatial: tuple[int, int, int] = (6, 6, 6),
    tol: float = 1e-5,
) -> GradCheckCase:
    """Check every learnable tensor, every bias, and the input gradient."""
    if h <= 0.0:
        raise DomainError(f"step size must be positive, got {h!r}")
    if n_dirs < 1:
        raise DomainError(f"n_dirs must be >= 1, got {n_dirs!r}")
    if len(spatial) != 3 or min(spatial) < 1:
        raise DomainError(f"spatial must be three positive sizes, got {spatial!r}")
    _check_size((cfg.c_out,) + tuple(spatial), "gradient-check probe")
    params = init_block_params(cfg, seed)
    rng = make_rng(seed + _PROBE_STREAM)
    x = FeatureMap(rng.uniform(-1.0, 1.0, (cfg.c_in,) + tuple(spatial)))
    probe = rng.normal(size=(cfg.c_out,) + tuple(spatial))

    def phi(xin: FeatureMap, p: OocsBlockParams):
        y, cache = block_forward(xin, p, cfg)
        return float(np.sum(y.data * probe)), _masks(cache)

    _, base_cache = block_forward(x, params, cfg)
    base_masks = _masks(base_cache)
    gx, grads = block_backward(FeatureMap(probe), base_cache, params, cfg)

    max_rel = 0.0
    redraws = 0
    directions = 0

    def check_direction(g: np.ndarray, evaluate) -> None:
        nonlocal max_rel, redraws, directions
        floor = 1e-8 * (1.0 + float(np.linalg.norm(g)))
        for _ in range(n_dirs):
            for _attempt in range(32):
                u = rng.normal(size=g.shape)
                u /= float(np.linalg.norm(u))
                f_plus, m_plus = evaluate(h, u)
                f_minus, m_minus = evaluate(-h, u)
                if _same_masks(m_plus, base_masks) and _same_masks(m_minus, base_masks):
                    break
                redraws += 1
            else:
                raise DomainError("no kink-free probe direction found in 32 draws")
            fd = (f_plus - f_minus) / (2.0 * h)
            an = float(np.sum(g * u))
            rel = abs(an - fd) / max(abs(an), abs(fd), floor)
            max_rel = max(max_rel, rel)
            directions += 1

    for name in _LEARNABLE:
        g = getattr(grads, name)

        def eval_data(scale, u, name=name):
            return phi(x, _shift_param(params, name, "data", u, scale))

        def eval_bias(scale, u, name=name):
            return phi(x, _shift_param(params, name, "bias", u, scale))

        check_direction(g.data, eval_data)
        check_direction(g.bias, eval_bias)

    def eval_input(scale, u):
        return phi(FeatureMap(x.data + scale * u), params)

    check_direction(gx.data, eval_input)

    return GradCheckCase(
        k_oocs=cfg.k_oocs,
        c_in=cfg.c_in,
        c_out=cfg.c_out,
        seed=seed,
        max_rel_err=max_rel,
        directions=directions,
        redraws=redraws,
        passed=max_rel < tol,
    )


def run_gradcheck_grid(
    k_oocs=(3, 5),
    c_in=(1, 2),
    c_out=(4, 8),
    seeds=(0, 1),
    h: float = 1e-5,
    n_dirs: int = 3,
    spatial: tuple[int, int, int] = (6, 6, 6),
    tol: float = 1e-5,
) -> list[GradCheckCase]:
    """Run the check over the full shape grid; one row per (config, seed)."""
    rows = []
    for k in k_oocs:
        for ci in c_in:
            for co in c_out:
                cfg = OocsBlockConfig(c_in=ci, c_out=co, k_oocs=k)
                for seed in seeds:
                    rows.append(block_gradient_check(cfg, seed, h=h, n_dirs=n_dirs, spatial=spatial, tol=tol))
    return rows
