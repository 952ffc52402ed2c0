"""Named random streams derived from a single experiment seed.

Every component draws from its own stream so that a change in how one
component consumes randomness cannot silently shift the draws seen by the
others.  Stream identities are fixed integers; adding streams must not
renumber existing ones.
"""
from __future__ import annotations

import numpy as np

_STREAM_IDS = {
    "goals": 0,        # goal selection, region splits, strategy-level draws
    "exploration": 1,  # low-level explorative actions and parameter noise
    "environment": 2,  # reserved for stochastic environments (unused: worlds are deterministic)
}


def stream(seed: int, name: str) -> np.random.Generator:
    """Return the named generator for `seed`.

    Same (seed, name) always yields an identical sequence.
    """
    try:
        key = _STREAM_IDS[name]
    except KeyError:
        raise ValueError(f"unknown stream {name!r}; expected one of {sorted(_STREAM_IDS)}") from None
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


class RngStreams:
    """The streams one run draws from, created eagerly from one seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.goals = stream(seed, "goals")
        self.exploration = stream(seed, "exploration")


def weighted_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """``rng.choice(len(p), p=p)`` without its validation of `p`, a
    probability vector: the steps numpy runs after that check, so the same
    index from the same single uniform draw, and the stream advances
    exactly as there."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))
