"""Deterministic RNG derivation for independent random streams."""

from __future__ import annotations

import zlib

import numpy as np

_MASK = (1 << 63) - 1


def _as_entropy(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & _MASK


def spawn_rng(seed: int, *stream: int | str) -> np.random.Generator:
    """Create a generator for one named stream under a base seed.

    Two calls with the same (seed, stream) yield identical generators;
    distinct streams are statistically independent, so each consumer can
    derive its own randomness without sharing state.
    """
    return np.random.default_rng([_as_entropy(seed)] + [_as_entropy(p) for p in stream])


def spawn_seed(seed: int, *stream: int | str) -> int:
    """Derive a child integer seed for the same (seed, stream) pair."""
    return int(spawn_rng(seed, *stream).integers(0, _MASK))
