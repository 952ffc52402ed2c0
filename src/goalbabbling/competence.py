"""Competence of a goal-reaching attempt.

Competence is a non-positive score: 0 means the goal was reached, -1 means
the attempt ended no closer than it started.  Scores between are the final
distance to the goal normalized by the starting distance, so a 1-unit miss
on a distant goal counts the same as a proportionally small miss on a near
goal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CompetenceConfig:
    reached_tolerance: float = -0.05   # clip threshold: scores above count as reached
    min_start_distance: float = 1e-3   # goals closer than this to the start score 0
    dim_scales: np.ndarray | None = None  # per-dimension weights for the distance

    def __post_init__(self):
        if self.reached_tolerance >= 0:
            raise ValueError("reached_tolerance must be negative")
        if self.min_start_distance <= 0:
            raise ValueError("min_start_distance must be positive")
        if self.dim_scales is not None:
            scales = np.asarray(self.dim_scales, dtype=float)
            if np.any(scales <= 0):
                raise ValueError("dim_scales must be positive")
            object.__setattr__(self, "dim_scales", scales)


def scaled_distance(a: np.ndarray, b: np.ndarray, cfg: CompetenceConfig) -> float:
    d = a - b
    if cfg.dim_scales is not None:
        d = d * cfg.dim_scales
    return math.sqrt(float(d @ d))


def scaled_distances(a: np.ndarray, b: np.ndarray, cfg: CompetenceConfig) -> np.ndarray:
    """``scaled_distance`` between matching rows of `a` and `b`, bit for bit."""
    d = a - b
    if cfg.dim_scales is not None:
        d = d * cfg.dim_scales
    return np.sqrt(np.vecdot(d, d))


def competence_normalized(
    goal: np.ndarray, final: np.ndarray, start: np.ndarray, cfg: CompetenceConfig
) -> float:
    """Normalized competence of an attempt that targeted `goal`, started at
    `start` and ended at `final`.

    Two clamps: 0 when the goal was already within `min_start_distance` of
    the start, and -1 when the attempt ended farther from the goal than it
    started.
    """
    d_start = scaled_distance(start, goal, cfg)
    if d_start < cfg.min_start_distance:
        return 0.0
    d_final = scaled_distance(goal, final, cfg)
    if d_final > d_start:
        return -1.0
    return -d_final / d_start


def clip_to_gamma(c: float, cfg: CompetenceConfig) -> float:
    """Clip a raw competence: scores above the tolerance count as reached (0)."""
    if c > 0:
        raise ValueError("competence must be non-positive")
    return c if c <= cfg.reached_tolerance else 0.0


def max_competence() -> float:
    """Score credited to points conserved as goals reached en route."""
    return 0.0
