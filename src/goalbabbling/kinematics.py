"""Deterministic simulated worlds.

Two environments share the same planar kinematic chain:

* ``ArmWorld`` -- an n-DOF arm stepped by small joint increments, so the
  joint configuration carries over from one micro-action to the next.
* ``SynergyWorld`` -- an episodic world where a whole action is encoded by
  a parameter vector in [0,1]^k, mapped to a joint pose and rolled out in
  one shot; the context is reset before every rollout.

Both are pure functions of (state, action) given their construction
arguments and are safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import Box

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class ArmGeometry:
    """Link lengths and symmetric joint limits of a planar chain."""

    link_lengths: np.ndarray
    joint_low: np.ndarray
    joint_high: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.link_lengths, dtype=float)
        low = np.asarray(self.joint_low, dtype=float)
        high = np.asarray(self.joint_high, dtype=float)
        if lengths.ndim != 1 or lengths.size == 0:
            raise ValueError("link_lengths must be a non-empty 1-d array")
        if np.any(lengths <= 0):
            raise ValueError("all link lengths must be positive")
        if low.shape != lengths.shape or high.shape != lengths.shape:
            raise ValueError("joint limits must match the number of links")
        if np.any(high <= low):
            raise ValueError("joint_high must exceed joint_low for every joint")
        object.__setattr__(self, "link_lengths", lengths)
        object.__setattr__(self, "joint_low", low)
        object.__setattr__(self, "joint_high", high)

    @property
    def n_dof(self) -> int:
        return self.link_lengths.shape[0]

    @property
    def total_length(self) -> float:
        return float(self.link_lengths.sum())

    @classmethod
    def equal_links(cls, n_dof: int, total_length: float = 50.0, joint_limit: float = math.pi) -> "ArmGeometry":
        lengths = np.full(n_dof, total_length / n_dof)
        return cls(lengths, np.full(n_dof, -joint_limit), np.full(n_dof, joint_limit))

    @classmethod
    def golden_links(cls, n_dof: int, total_length: float = 50.0, joint_limit: float = math.pi) -> "ArmGeometry":
        """Links shrinking by the golden ratio, normalized to `total_length`."""
        raw = GOLDEN_RATIO ** -np.arange(n_dof, dtype=float)
        lengths = total_length * raw / raw.sum()
        return cls(lengths, np.full(n_dof, -joint_limit), np.full(n_dof, joint_limit))


def forward_kinematics(geometry: ArmGeometry, alpha: np.ndarray) -> np.ndarray:
    """End-effector position of the chain at joint angles `alpha`.

    Cumulative-angle chain: each link is rotated by the sum of all joint
    angles up to and including its own.
    """
    acc = np.cumsum(alpha)
    lengths = geometry.link_lengths
    return np.array([float(lengths @ np.cos(acc)), float(lengths @ np.sin(acc))])


def forward_kinematics_many(geometry: ArmGeometry, alphas: np.ndarray) -> np.ndarray:
    """End-effector positions (rows x 2) for every row of joint angles.

    Row i equals ``forward_kinematics(geometry, alphas[i])`` bit for bit:
    ``np.vecdot`` runs the same inner product as the 1-d ``@``, whereas a
    matrix-vector product sums in another order.
    """
    acc = np.cumsum(alphas, axis=1)
    lengths = geometry.link_lengths
    return np.stack([np.vecdot(np.cos(acc), lengths), np.vecdot(np.sin(acc), lengths)], axis=1)


class PlanarWorld:
    """What both worlds share: a planar chain whose effector is the outcome."""

    geometry: ArmGeometry
    task_bounds: Box | None

    @property
    def effect_dim(self) -> int:
        return 2

    @property
    def reach_radius(self) -> float:
        return self.geometry.total_length

    def within_reach(self, point: np.ndarray) -> bool:
        """Membership in the reachable set: the disk of the chain's total
        length, intersected with the task bounds when configured."""
        if float(point @ point) > self.reach_radius**2:
            return False
        return self.task_bounds.contains(point) if self.task_bounds is not None else True


class ArmWorld(PlanarWorld):
    """Micro-action arm environment with an evolving joint-state context."""

    def __init__(
        self,
        geometry: ArmGeometry,
        rest_angle: float = 0.35,
        max_action_norm: float = 0.2,
        task_bounds: Box | None = None,
    ):
        if max_action_norm <= 0:
            raise ValueError("max_action_norm must be positive")
        self.geometry = geometry
        self.max_action_norm = float(max_action_norm)
        self.task_bounds = task_bounds
        rest = np.full(geometry.n_dof, float(rest_angle))
        if np.any(rest < geometry.joint_low) or np.any(rest > geometry.joint_high):
            raise ValueError("rest pose violates the joint limits")
        self._rest = rest
        self._rest_effector = forward_kinematics(geometry, rest)

    @property
    def n_dof(self) -> int:
        return self.geometry.n_dof

    def rest_state(self) -> np.ndarray:
        return self._rest.copy()

    def rest_effector(self) -> np.ndarray:
        return self._rest_effector.copy()

    def forward(self, alpha: np.ndarray) -> np.ndarray:
        return forward_kinematics(self.geometry, alpha)

    def step(self, alpha: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply a joint increment: the new joint state and its effector
        position.  An increment longer than ``max_action_norm`` is scaled
        onto that bound, and the result is clamped to the joint limits;
        both are silent, so the applied increment is the new state less
        `alpha`."""
        norm = math.sqrt(float(delta @ delta))
        if norm > self.max_action_norm:
            delta = delta * (self.max_action_norm / norm)
        new = np.clip(alpha + delta, self.geometry.joint_low, self.geometry.joint_high)
        return new, forward_kinematics(self.geometry, new)

    def step_sequence(
        self, alpha: np.ndarray, deltas: np.ndarray, effector: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Joint states and effector positions along a sequence of
        micro-actions from `alpha`, whose effector is at `effector`.

        Row 0 of each array is the start and row i + 1 the state after
        ``deltas[i]``; every row equals what ``step`` gives one action at a
        time, bit for bit.  The states are summed in one pass, which adds
        row by row as the steps do; from the first state that the clamp
        changes on, they are clamped one step at a time.
        """
        deltas = self._bounded(deltas)
        low, high = self.geometry.joint_low, self.geometry.joint_high
        alphas = np.empty((deltas.shape[0] + 1, self.n_dof))
        alphas[0] = alpha
        alphas[1:] = deltas
        np.add.accumulate(alphas, axis=0, out=alphas)
        # Compared as bits: the clamp also turns -0.0 at a limit of 0.0 into 0.0.
        summed = alphas[1:]
        changed = np.clip(summed, low, high).view(np.int64) != summed.view(np.int64)
        beyond = np.flatnonzero(changed.any(axis=1))
        for i in range(beyond[0] if beyond.size else deltas.shape[0], deltas.shape[0]):
            alphas[i + 1] = np.clip(alphas[i] + deltas[i], low, high)
        effectors = np.empty((alphas.shape[0], effector.shape[0]))
        effectors[0] = effector
        effectors[1:] = forward_kinematics_many(self.geometry, alphas[1:])
        return alphas, effectors

    def step_many(self, alphas: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One micro-action for each of several arms: row i of the new joint
        states and of their effector positions equals ``step(alphas[i],
        deltas[i])``'s, bit for bit."""
        new = np.clip(alphas + self._bounded(deltas), self.geometry.joint_low, self.geometry.joint_high)
        return new, forward_kinematics_many(self.geometry, new)

    def _bounded(self, deltas: np.ndarray) -> np.ndarray:
        """A copy of `deltas` with each row longer than ``max_action_norm``
        scaled onto it as ``step`` scales one action: ``np.vecdot`` runs the
        same inner product as the 1-d ``@``."""
        deltas = np.array(deltas, dtype=float)
        norms = np.sqrt(np.vecdot(deltas, deltas))
        over = norms > self.max_action_norm
        deltas[over] *= (self.max_action_norm / norms[over])[:, None]
        return deltas


class SynergyWorld(PlanarWorld):
    """Episodic environment: parameters in [0,1]^k map to one outcome point.

    Parameters are rescaled into the joint-limit intervals and the pose is
    evaluated through the same kinematic chain, which keeps the map redundant
    and its reachable set non-trivial while staying deterministic.
    """

    def __init__(self, geometry: ArmGeometry, task_bounds: Box | None = None):
        self.geometry = geometry
        self.task_bounds = task_bounds
        self._span = geometry.joint_high - geometry.joint_low
        self._rest_effect = self.rollout(np.full(geometry.n_dof, 0.5))

    @property
    def param_dim(self) -> int:
        return self.geometry.n_dof

    def rescale(self, theta: np.ndarray) -> np.ndarray:
        return self.geometry.joint_low + np.asarray(theta, dtype=float) * self._span

    def rollout(self, theta: np.ndarray) -> np.ndarray:
        return forward_kinematics(self.geometry, self.rescale(self._checked(theta, 1)))

    def rollout_many(self, thetas: np.ndarray) -> np.ndarray:
        """Outcomes (rows x 2) of every row of `thetas`; row i equals
        ``rollout(thetas[i])`` bit for bit."""
        return forward_kinematics_many(self.geometry, self.rescale(self._checked(thetas, 2)))

    def _checked(self, theta: np.ndarray, ndim: int) -> np.ndarray:
        """`theta` as floats, after checking its shape and its [0, 1] range."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != ndim or theta.shape[-1] != self.geometry.n_dof:
            shape = f"(rows, {self.geometry.n_dof})" if ndim == 2 else f"({self.geometry.n_dof},)"
            raise ValueError(f"theta must have shape {shape}")
        if np.any(theta < 0.0) or np.any(theta > 1.0):
            raise ValueError("theta components must lie in [0, 1]")
        return theta

    def rest_effect(self) -> np.ndarray:
        return self._rest_effect.copy()
