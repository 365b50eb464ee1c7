"""Seedable, purpose-separated random streams.

Every source of randomness in the toolkit draws from an RngStream keyed by
(seed, purpose).  The generator is numpy's PCG64 seeded through a
SeedSequence whose spawn key encodes the purpose (and an optional child
path), so distinct purposes can never share state and the same
(seed, purpose) replays the same sequence on any platform and run.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

PURPOSES = ("init", "dropout", "mask", "split", "kmeans", "probe")
_PURPOSE_INDEX = {name: i for i, name in enumerate(PURPOSES)}


class RngStream:
    """One deterministic stream of randomness for a single purpose."""

    def __init__(self, seed: int, purpose: str, _path: tuple = ()):
        if purpose not in _PURPOSE_INDEX:
            raise ConfigError(f"unknown rng purpose {purpose!r}; expected one of {PURPOSES}")
        self.seed = int(seed)
        self.purpose = purpose
        self._path = tuple(int(i) for i in _path)
        key = (_PURPOSE_INDEX[purpose],) + self._path
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=key)))

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream, e.g. one per evaluation run."""
        return RngStream(self.seed, self.purpose, self._path + (int(index),))

    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform draws in [0, 1)."""
        return self._gen.random(size=size, dtype=np.float64)

    def integers(self, low: int, high: int, size=None) -> np.ndarray | int:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, purpose={self.purpose!r}, path={self._path})"
