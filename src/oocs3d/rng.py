"""Seeded randomness for every stochastic operation in the package.

All draws go through numpy's Philox bit generator, a counter-based PRNG
with a documented algorithm and identical streams across platforms for a
fixed seed.  Nothing in the package ever touches global numpy random
state.
"""

import numpy as np

from .errors import DomainError


def make_rng(seed: int) -> np.random.Generator:
    """Return a fresh Philox-backed generator for `seed`, which must be >= 0."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed))
