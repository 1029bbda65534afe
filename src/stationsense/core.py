"""Deterministic RNG streams and station-mask sampling.

Every stage (simulation, dataset building, training, evaluation) draws its
randomness from a labeled `RandomStream`, so a seed reproduces a run bitwise.
"""

from __future__ import annotations

import zlib

import numpy as np


class RandomStream:
    """Deterministic, labeled RNG stream.

    Identical (seed, label) pairs reproduce identical draw sequences. Child
    streams are derived by extending the label, so one stage's consumption
    never perturbs another stage's draws.
    """

    def __init__(self, seed: int, label: str = ""):
        self.seed = int(seed)
        self.label = label
        self._gen = None  # built on first draw: most derived streams never draw

    def child(self, label: str) -> "RandomStream":
        sep = "/" if self.label else ""
        return RandomStream(self.seed, f"{self.label}{sep}{label}")

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = zlib.crc32(self.label.encode("utf-8"))
            self._gen = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            )
        return self._gen

    # convenience passthroughs
    def random(self, size=None):
        return self.generator.random(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def exponential(self, scale=1.0, size=None):
        return self.generator.exponential(scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def permutation(self, n):
        return self.generator.permutation(n)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, label={self.label!r})"


def sample_mask_matrix(p_mask: float, n: int, n_stations: int, rng: RandomStream) -> np.ndarray:
    """(n, n_stations) boolean matrix of i.i.d. Bernoulli(p_mask) station
    masks. Consumes exactly n * n_stations draws from `rng`, row by row."""
    if not (0.0 <= p_mask <= 1.0):
        raise ValueError(f"p_mask must be in [0, 1], got {p_mask}")
    return rng.random((n, n_stations)) < p_mask

