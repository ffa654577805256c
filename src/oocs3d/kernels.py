"""Synthesis of exactly balanced On/Off center-surround kernels.

A kernel is built in three steps.  The Gaussian width is derived from
the center/surround geometry: with surround radius r_s = k/2 and center
radius r_c = gamma * r_s, the width

    sigma = (r_c / gamma) * sqrt((1 - gamma^2) / (-6 ln gamma))

places the sign change of the difference of Gaussians exactly at r_c.
The difference of Gaussians

    f(rho) = gamma^-d exp(-rho^2 / (2 gamma^2 sigma^2)) - exp(-rho^2 / (2 sigma^2))

is sampled at integer voxel offsets, then each sign class is rescaled so
the positive entries sum to exactly +c and the negative entries to
exactly -c.  The Off kernel is the exact negation of the On kernel, so
their sum is exactly zero entrywise.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateKernelError, DomainError, InvalidKernelError
from .tensor import _check_size


@dataclass(frozen=True)
class KernelSpec:
    """Free parameters of one center-surround kernel."""

    k: int
    gamma: float = 2.0 / 3.0
    c: float = 3.0
    dims: int = 3

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 3 or self.k % 2 == 0:
            raise InvalidKernelError(f"kernel size must be an odd integer >= 3, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        if not (np.isfinite(self.gamma) and 0.0 < self.gamma < 1.0):
            raise DomainError(f"gamma must lie strictly between 0 and 1, got {self.gamma!r}")
        if not (np.isfinite(self.c) and self.c >= 1.0):
            raise DomainError(f"balance constant c must be >= 1, got {self.c!r}")
        if self.dims not in (2, 3):
            raise DomainError(f"dims must be 2 or 3, got {self.dims!r}")
        _check_size((self.k,) * self.dims, "kernel")


@dataclass(frozen=True)
class KernelDerivation:
    """Quantities derived while building a kernel, kept for inspection."""

    r_surround: float
    r_center: float
    sigma: float
    scale_pos: float
    scale_neg: float


class BalancedKernel:
    """A sampled, exactly balanced kernel plus its provenance-free recipe."""

    def __init__(self, spec: KernelSpec, derivation: KernelDerivation, weights, polarity: str):
        if polarity not in ("on", "off"):
            raise ConfigError(f"polarity must be 'on' or 'off', got {polarity!r}")
        arr = np.array(weights, dtype=np.float64, order="C")
        if arr.shape != (spec.k,) * spec.dims:
            raise DomainError(f"weights shape {arr.shape} does not match spec {(spec.k,) * spec.dims}")
        arr.setflags(write=False)
        self.spec = spec
        self.derivation = derivation
        self.weights = arr
        self.polarity = polarity

    def __repr__(self) -> str:
        s = self.spec
        return f"BalancedKernel(k={s.k}, gamma={s.gamma:g}, c={s.c:g}, dims={s.dims}, polarity={self.polarity!r})"


def compute_sigma(r_center: float, gamma: float) -> float:
    """Gaussian width that puts the kernel's zero crossing at r_center."""
    if not (np.isfinite(gamma) and 0.0 < gamma < 1.0):
        raise DomainError(f"gamma must lie strictly between 0 and 1, got {gamma!r}")
    if not (np.isfinite(r_center) and r_center > 0.0):
        raise DomainError(f"center radius must be positive, got {r_center!r}")
    return (r_center / gamma) * math.sqrt((1.0 - gamma * gamma) / (-6.0 * math.log(gamma)))


def _geometry(spec: KernelSpec) -> tuple[float, float, float]:
    r_surround = spec.k / 2.0
    r_center = spec.gamma * r_surround
    return r_surround, r_center, compute_sigma(r_center, spec.gamma)


def _dog_profile(spec: KernelSpec, sigma: float):
    """DoG value as a function of squared radius, unit amplitudes.

    Entries within 1e-12 of the peak-relative scale around the analytic
    sign change collapse to exact zeros: float noise there would
    otherwise leak sign-indeterminate values into the balancing step.
    """
    g = spec.gamma
    try:
        inv_center_norm = g ** -spec.dims
    except OverflowError as exc:
        # like any tiny gamma, it would leave no negative entry to balance
        raise DegenerateKernelError(f"gamma={g!r} puts the center peak beyond the float range") from exc
    tc = 2.0 * g * g * sigma * sigma
    ts = 2.0 * sigma * sigma
    snap = 1e-12 * (inv_center_norm - 1.0)

    def value(rho2: float) -> float:
        v = inv_center_norm * math.exp(-rho2 / tc) - math.exp(-rho2 / ts)
        return 0.0 if abs(v) <= snap else v

    return value


def sample_dog(spec: KernelSpec) -> np.ndarray:
    """Sample the unbalanced DoG on the k^dims integer offset grid.

    Each symmetry orbit (offsets equal up to axis permutation and sign)
    is evaluated once and replicated, so radial symmetry holds bit-exactly.
    """
    _, _, sigma = _geometry(spec)
    value = _dog_profile(spec, sigma)
    m = (spec.k - 1) // 2
    shape = (spec.k,) * spec.dims
    out = np.empty(shape)
    cache: dict[tuple, float] = {}
    for idx in np.ndindex(shape):
        pos = tuple(i - m for i in idx)
        key = tuple(sorted((abs(c) for c in pos), reverse=True))
        if key not in cache:
            cache[key] = value(float(sum(c * c for c in key)))
        out[idx] = cache[key]
    return out


def _sign_sums(arr: np.ndarray) -> tuple[float, float]:
    pos = arr[arr > 0.0]
    neg = arr[arr < 0.0]
    if pos.size == 0 or neg.size == 0:
        raise DegenerateKernelError("kernel needs at least one positive and one negative entry to balance")
    return float(pos.sum()), float(neg.sum())


def balance(raw, c: float) -> np.ndarray:
    """Rescale each sign class so positives sum to +c and negatives to -c.

    Zero entries belong to neither class and pass through untouched.
    """
    if not (np.isfinite(c) and c >= 1.0):
        raise DomainError(f"balance constant c must be >= 1, got {c!r}")
    arr = np.array(raw, dtype=np.float64)
    sum_pos, sum_neg = _sign_sums(arr)
    out = arr.copy()
    out[arr > 0.0] *= c / sum_pos
    out[arr < 0.0] *= c / -sum_neg
    return out


def make_kernel(spec: KernelSpec, polarity: str = "on") -> BalancedKernel:
    """Build the balanced kernel for `spec`; 'off' is the exact negation of 'on'."""
    raw = sample_dog(spec)
    r_surround, r_center, sigma = _geometry(spec)
    sum_pos, sum_neg = _sign_sums(raw)
    weights = balance(raw, spec.c)
    if polarity == "off":
        weights = -weights
    derivation = KernelDerivation(
        r_surround=r_surround,
        r_center=r_center,
        sigma=sigma,
        scale_pos=spec.c / sum_pos,
        scale_neg=spec.c / -sum_neg,
    )
    return BalancedKernel(spec, derivation, weights, polarity)


class BalanceResidual(NamedTuple):
    residual: float
    l1_mass: float


def continuous_balance_check(spec: KernelSpec, n_grid: int) -> BalanceResidual:
    """Midpoint-rule check that the continuous DoG integrates to zero.

    The quadrature runs over the ball of radius sigma * log2(n_grid)
    (6 sigma at the minimum n_grid of 64), on an n_grid^dims cell grid.
    Growing the ball with n_grid makes both the domain-truncation and the
    discretization error vanish, so the residual decreases as the grid
    refines.  Returns the absolute residual and the L1 mass of the
    integrand over the same domain.
    """
    if int(n_grid) != n_grid or n_grid < 64:
        raise DomainError(f"n_grid must be an integer >= 64, got {n_grid!r}")
    n_grid = int(n_grid)
    g = spec.gamma
    d = spec.dims
    sigma = _geometry(spec)[2]
    radius = sigma * math.log2(n_grid)
    h = 2.0 * radius / n_grid
    x = -radius + (np.arange(n_grid) + 0.5) * h
    inv_center_norm = g ** -d
    tc = 2.0 * g * g * sigma * sigma
    ts = 2.0 * sigma * sigma
    r2max = radius * radius
    plane = x[:, None] ** 2 + x[None, :] ** 2
    total = 0.0
    l1 = 0.0
    # one z-slab at a time keeps peak memory flat at large n_grid; 2D is
    # the single slab at z = 0
    for zv in x if d == 3 else (0.0,):
        rho2 = plane + zv * zv
        f = inv_center_norm * np.exp(-rho2 / tc) - np.exp(-rho2 / ts)
        inside = rho2 <= r2max
        total += float(f[inside].sum())
        l1 += float(np.abs(f[inside]).sum())
    cell = h ** d
    return BalanceResidual(residual=abs(total) * cell, l1_mass=l1 * cell)


def kernel_to_json(kern: BalancedKernel) -> str:
    """Serialize a kernel to JSON; floats round-trip exactly."""
    doc = {
        "spec": {
            "k": kern.spec.k,
            "gamma": kern.spec.gamma,
            "c": kern.spec.c,
            "dims": kern.spec.dims,
        },
        "derivation": {
            "r_surround": kern.derivation.r_surround,
            "r_center": kern.derivation.r_center,
            "sigma": kern.derivation.sigma,
            "scale_pos": kern.derivation.scale_pos,
            "scale_neg": kern.derivation.scale_neg,
        },
        "polarity": kern.polarity,
        "weights": kern.weights.tolist(),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def kernel_from_json(text: str) -> BalancedKernel:
    """Parse `kernel_to_json` output; malformed JSON or fields raise ConfigError."""
    try:
        doc = json.loads(text)
        spec = KernelSpec(**doc["spec"])
        derivation = KernelDerivation(**doc["derivation"])
        return BalancedKernel(spec, derivation, doc["weights"], doc["polarity"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed kernel JSON: {exc}") from exc


def kernel_to_csv(kern: BalancedKernel) -> str:
    """Flat CSV with columns x,y,z,weight; offsets count from the kernel center.

    x runs along the fastest (W) axis.  2D kernels report z=0 for every row.
    """
    m = (kern.spec.k - 1) // 2
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "z", "weight"])
    for idx in np.ndindex(kern.weights.shape):
        if kern.spec.dims == 3:
            z, y, x = (i - m for i in idx)
        else:
            y, x = (i - m for i in idx)
            z = 0
        writer.writerow([x, y, z, repr(float(kern.weights[idx]))])
    return buf.getvalue()
