"""Axis-aligned boxes for task spaces and region bounds, and array doubling."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box [low, high] in R^d."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if low.shape != high.shape or low.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(high < low):
            raise ValueError("box high must be >= low componentwise")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def dim(self) -> int:
        return self.low.shape[0]

    @property
    def extent(self) -> np.ndarray:
        return self.high - self.low

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extent))

    def contains(self, point: np.ndarray) -> bool:
        return bool(((point >= self.low) & (point <= self.high)).all())

    def clip(self, point: np.ndarray) -> np.ndarray:
        return np.clip(point, self.low, self.high)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.low + rng.random(self.dim) * self.extent

    def farthest_distance(self, point: np.ndarray) -> float:
        """Distance from `point` to the farthest corner of the box."""
        return float(np.linalg.norm(np.maximum(np.abs(point - self.low), np.abs(point - self.high))))


def grown(array: np.ndarray, axis: int = 0) -> np.ndarray:
    """`array` twice as long along `axis`; the new part is unset and untouched."""
    n = array.shape[axis]
    result = np.empty(array.shape[:axis] + (2 * n,) + array.shape[axis + 1 :], dtype=array.dtype)
    result[(slice(None),) * axis + (slice(n),)] = array
    return result
