"""Goal-directed low-level exploration.

Two reaching procedures share the same outcome contract:

* ``reach_evolving`` steps an arm toward the goal through the local
  Jacobian's pseudo-inverse, interleaving bursts of small random actions
  whenever the local model is missing or mispredicts.
* ``reach_fixed`` predicts episode parameters from the local inverse model,
  and hill-climbs with distance-proportional parameter noise when the
  prediction does not improve on the best known outcome.

Every executed micro-action/rollout is inserted into memory exactly once
and reported through the ``hooks`` callback (used for en-route crediting),
unless learning is disabled for evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .competence import CompetenceConfig, clip_to_gamma, competence_normalized, scaled_distance, scaled_distances
from .kinematics import ArmWorld, SynergyWorld, forward_kinematics_many
from .memory import EvolvingMemory, FixedMemory

REACHED = "reached"
TIMEOUT = "timeout"
BLOCKED = "blocked"

# Two float distances closer than this count as "no progress".
_PROGRESS_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ReachingBudget:
    """Limits of a single reaching attempt.

    ``timeout_factor`` bounds micro-actions at ``factor * start_distance /
    velocity``; ``blocking_window`` ends the attempt after that many
    consecutive exploration phases without progress (0 disables the check).
    """

    velocity: float = 2.0
    timeout_factor: float = 1.5
    explore_actions: int = 20
    blocking_window: int = 0
    prediction_error_max: float = 1.0
    explore_scale: float = 0.05
    explore_noise: float = 1.0

    def __post_init__(self):
        if self.velocity <= 0:
            raise ValueError("velocity must be positive")
        if self.timeout_factor <= 1:
            raise ValueError("timeout_factor must exceed 1")
        if self.explore_actions < 0 or self.blocking_window < 0:
            raise ValueError("counts must be non-negative")

    def max_steps(self, start_distance: float) -> int:
        return int(math.ceil(self.timeout_factor * start_distance / self.velocity))


@dataclass(frozen=True)
class ReachOutcome:
    goal: np.ndarray
    final: np.ndarray
    gamma: float
    micro_actions_used: int
    terminated_by: str
    final_state: np.ndarray  # joint state (evolving) or best params (fixed)


def make_subgoals(start: np.ndarray, goal: np.ndarray, count: int) -> list[np.ndarray]:
    """Evenly spaced waypoints from `start` to `goal`, ending at the goal."""
    if count < 0:
        raise ValueError("subgoal count must be >= 0")
    if count == 0:
        return []
    return [start + (i / count) * (goal - start) for i in range(1, count + 1)]


def rest_reset_policy(counter: int, reset_every: int) -> bool:
    """True exactly when the attempt counter is a multiple of the reset value."""
    if reset_every < 1:
        raise ValueError("reset value must be >= 1")
    return counter % reset_every == 0


def _dist(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return math.sqrt(float(d @ d))


def _clip_norm(vector: np.ndarray, bound: float) -> np.ndarray:
    norm = math.sqrt(float(vector @ vector))
    if norm > bound:
        return vector * (bound / norm)
    return vector


def reach_evolving(
    world: ArmWorld,
    memory: EvolvingMemory,
    alpha: np.ndarray,
    goal: np.ndarray,
    budget: ReachingBudget,
    competence: CompetenceConfig,
    rng: np.random.Generator | None = None,
    hooks=None,
    allowance: int | None = None,
    learn: bool = True,
) -> ReachOutcome:
    """Steer the arm from its current joint state toward `goal`.

    With ``learn=False`` nothing is inserted or reported, so evaluation
    leaves memory untouched; callers should also zero ``explore_actions``
    and set ``blocking_window=1`` to forbid exploration entirely.
    """
    goal = np.asarray(goal, dtype=float)
    start = world.forward(alpha)
    current = start
    gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
    if gamma == 0.0:
        return ReachOutcome(goal, current, 0.0, 0, REACHED, alpha.copy())

    cap = budget.max_steps(scaled_distance(start, goal, competence))
    if allowance is not None:
        cap = min(cap, allowance)
    steps = 0
    best = _dist(current, goal)
    # Blocking bookkeeping: a streak of exploration triggers with no
    # improvement of the best distance between them.
    last_mark = best
    stalled_phases = 0

    def _advance(delta: np.ndarray):
        nonlocal alpha, current, steps, best
        result = world.step(alpha, delta)
        if learn:
            # The exemplar stores the actually-applied (post-clamp) increment.
            memory.insert(alpha, result.alpha - alpha, result.displacement)
        alpha = result.alpha
        current = result.effector_after
        steps += 1
        if hooks is not None:
            hooks(current)
        d = _dist(current, goal)
        if d < best:
            best = d
        return result

    while steps < cap:
        model = memory.local_jacobian(alpha)
        explore = model is None
        if model is not None:
            distance = _dist(current, goal)
            desired = (goal - current) * (min(budget.velocity, distance) / distance)
            delta = _clip_norm(model.pseudo_inverse @ desired, world.max_action_norm)
            result = _advance(delta)
            gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
            if gamma == 0.0:
                return ReachOutcome(goal, current, 0.0, steps, REACHED, alpha.copy())
            error = _dist(result.displacement, desired)
            explore = error > budget.prediction_error_max
        if explore:
            if budget.blocking_window:
                if best >= last_mark - _PROGRESS_TOLERANCE:
                    stalled_phases += 1
                else:
                    stalled_phases = 0
                last_mark = best
                if stalled_phases >= budget.blocking_window:
                    gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
                    return ReachOutcome(goal, current, gamma, steps, BLOCKED, alpha.copy())
            for _ in range(budget.explore_actions):
                if steps >= cap:
                    break
                delta = rng.uniform(-budget.explore_scale, budget.explore_scale, world.n_dof)
                _advance(_clip_norm(delta, world.max_action_norm))
                gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
                if gamma == 0.0:
                    return ReachOutcome(goal, current, 0.0, steps, REACHED, alpha.copy())

    gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
    return ReachOutcome(goal, current, gamma, steps, TIMEOUT, alpha.copy())


def reach_evolving_lockstep(
    world: ArmWorld,
    memory: EvolvingMemory,
    alpha: np.ndarray,
    goals: np.ndarray,
    budget: ReachingBudget,
    competence: CompetenceConfig,
) -> list[ReachOutcome]:
    """``reach_evolving(..., learn=False)`` from `alpha` toward every row of
    `goals`, advancing all unfinished reaches by one micro-action per round.

    Pure exploitation only: ``explore_actions`` must be 0 and
    ``blocking_window`` positive, so no random number is drawn and the
    reaches are independent.  Each outcome equals the one
    ``reach_evolving`` returns for its goal, bit for bit.
    """
    if budget.explore_actions or not budget.blocking_window:
        raise ValueError("lockstep reaching needs explore_actions=0 and blocking_window>=1")
    goals = np.asarray(goals, dtype=float)
    count = goals.shape[0]
    if count == 0:
        return []
    start = world.forward(alpha)
    alphas = np.tile(alpha, (count, 1))
    currents = np.tile(start, (count, 1))
    steps = np.zeros(count, dtype=int)
    ends = np.full(count, TIMEOUT, dtype=object)
    start_distance = scaled_distances(start, goals, competence)
    caps = np.array([budget.max_steps(float(d)) for d in start_distance], dtype=int)
    distance = np.sqrt(np.vecdot(currents - goals, currents - goals))
    best = distance.copy()
    last_mark = distance.copy()
    stalled = np.zeros(count, dtype=int)
    # A goal within min_start_distance of the start scores 0 at once.
    at_start = start_distance < competence.min_start_distance
    ends[at_start] = REACHED
    active = np.flatnonzero(~at_start)
    low, high = world.geometry.joint_low, world.geometry.joint_high

    while True:
        active = active[steps[active] < caps[active]]
        if not active.size:
            break
        pinvs, fitted = memory.local_pseudo_inverses(alphas[active])
        explore = ~fitted
        done = np.zeros(active.size, dtype=bool)
        moving = active[fitted]
        if moving.size:
            goal, current, d = goals[moving], currents[moving], distance[moving]
            desired = (goal - current) * (np.minimum(budget.velocity, d) / d)[:, None]
            delta = (pinvs[fitted] @ desired[:, :, None])[:, :, 0]
            norm = np.sqrt(np.vecdot(delta, delta))
            over = norm > world.max_action_norm
            delta[over] *= (world.max_action_norm / norm[over])[:, None]
            alphas[moving] = np.clip(alphas[moving] + delta, low, high)
            after = forward_kinematics_many(world.geometry, alphas[moving])
            currents[moving] = after
            steps[moving] += 1
            d = np.sqrt(np.vecdot(after - goal, after - goal))
            distance[moving] = d
            best[moving] = np.where(d < best[moving], d, best[moving])
            final_distance = scaled_distances(goal, after, competence)
            c = np.where(
                final_distance > start_distance[moving], -1.0, -final_distance / start_distance[moving]
            )
            reached = ~(c <= competence.reached_tolerance)
            miss = after - current - desired
            done[fitted] = reached
            explore[fitted] = ~reached & (np.sqrt(np.vecdot(miss, miss)) > budget.prediction_error_max)
            ends[moving[reached]] = REACHED
        exploring = active[explore]
        stalled[exploring] = np.where(
            best[exploring] >= last_mark[exploring] - _PROGRESS_TOLERANCE, stalled[exploring] + 1, 0
        )
        last_mark[exploring] = best[exploring]
        blocked = stalled[exploring] >= budget.blocking_window
        done[explore] = blocked
        ends[exploring[blocked]] = BLOCKED
        active = active[~done]

    outcomes = []
    for i in range(count):
        gamma = 0.0
        if ends[i] != REACHED:
            gamma = clip_to_gamma(competence_normalized(goals[i], currents[i], start, competence), competence)
        outcomes.append(ReachOutcome(goals[i], currents[i], gamma, int(steps[i]), ends[i], alphas[i]))
    return outcomes


def reach_fixed(
    world: SynergyWorld,
    memory: FixedMemory,
    goal: np.ndarray,
    budget: ReachingBudget,
    competence: CompetenceConfig,
    rng: np.random.Generator | None = None,
    hooks=None,
    allowance: int | None = None,
    learn: bool = True,
) -> ReachOutcome:
    """One episodic attempt: predict parameters for `goal`, then hill-climb.

    The context resets before every rollout, so competence is always
    measured against the world's rest outcome.  Exploration only triggers
    when the predicted rollout fails to improve on the closest outcome
    already in memory, and each explorative parameter vector is drawn
    around the best one found so far with noise proportional to the
    remaining distance.
    """
    goal = np.asarray(goal, dtype=float)
    start = world.rest_effect()
    cap = 1 + budget.explore_actions
    if allowance is not None:
        cap = min(cap, allowance)
    if cap <= 0:
        return ReachOutcome(goal, start, -1.0, 0, TIMEOUT, np.full(world.param_dim, 0.5))

    known_best: float | None = None
    if len(memory):
        # Closest already-observed outcome, measured in the same (possibly
        # rescaled) metric as the attempt distances.
        idx, _ = memory.nearest_effect(goal, 1)
        known_best = scaled_distance(goal, memory.effects[idx[0]], competence)
        theta = np.clip(memory.local_inverse(goal)[0], 0.0, 1.0)
    else:
        theta = rng.uniform(0.0, 1.0, world.param_dim)

    def _rollout(params: np.ndarray) -> tuple[np.ndarray, float]:
        outcome = world.rollout(params)
        if learn:
            memory.insert(params, outcome)
        if hooks is not None:
            hooks(outcome)
        return outcome, clip_to_gamma(competence_normalized(goal, outcome, start, competence), competence)

    outcome, gamma = _rollout(theta)
    rollouts = 1
    best_theta, best_outcome, best_gamma = theta, outcome, gamma
    if gamma == 0.0:
        return ReachOutcome(goal, outcome, 0.0, rollouts, REACHED, best_theta)

    attempt_distance = scaled_distance(goal, outcome, competence)
    inefficient = known_best is None or attempt_distance > known_best
    if inefficient:
        while rollouts < cap:
            noise = rng.uniform(-1.0, 1.0, world.param_dim)
            spread = budget.explore_noise * scaled_distance(goal, best_outcome, competence)
            candidate = np.clip(best_theta + noise * spread, 0.0, 1.0)
            outcome, gamma = _rollout(candidate)
            rollouts += 1
            if gamma > best_gamma:
                best_theta, best_outcome, best_gamma = candidate, outcome, gamma
            if gamma == 0.0:
                return ReachOutcome(goal, outcome, 0.0, rollouts, REACHED, best_theta)

    return ReachOutcome(goal, best_outcome, best_gamma, rollouts, TIMEOUT, best_theta)
