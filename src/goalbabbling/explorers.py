"""Goal-directed low-level exploration.

Two reaching procedures share the same outcome contract:

* ``reach_evolving`` steps an arm toward the goal through the local
  Jacobian's pseudo-inverse, interleaving bursts of small random actions
  whenever the local model is missing or mispredicts.  A burst is drawn,
  stepped and scored as one block and cut at its first micro-action that
  reaches the goal, with the same draws, states and records as taking
  the actions one at a time.
* ``reach_fixed`` predicts episode parameters from the local inverse model,
  and hill-climbs with distance-proportional parameter noise when the
  prediction does not improve on the best known outcome.  The hill-climb's
  noise is drawn at once, and the candidates around one best are rolled
  out and scored as one block, kept up to the first that improves on it,
  with the same draws, records and outcome as one rollout at a time.

Every executed micro-action/rollout is inserted into memory exactly once
and reported through the ``hooks`` callback (used for en-route crediting).
The arm itself bounds the length of each micro-action and clamps its
joints (``ArmWorld.step`` and its batch forms).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .competence import CompetenceConfig, clip_to_gamma, competence_normalized, scaled_distance, scaled_distances
from .kinematics import ArmWorld, SynergyWorld
from .memory import EvolvingMemory, FixedMemory, pseudo_inverse

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
    An arm attempt with no local model and ``explore_actions=0`` cannot
    move, and ends blocked at once.
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


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return math.sqrt(float(d @ d))


def _gammas(goals: np.ndarray, points: np.ndarray, start_distance, competence: CompetenceConfig) -> np.ndarray:
    """Clipped competence of each row of `points` as the end of an attempt at
    its goal from a start `start_distance` away: row by row,
    ``clip_to_gamma(competence_normalized(...))``, bit for bit."""
    final = scaled_distances(goals, points, competence)
    near = np.asarray(start_distance) < competence.min_start_distance
    start_distance = np.where(near, 1.0, start_distance)
    c = np.where(final > start_distance, -1.0, -final / start_distance)
    return np.where(near | ~(c <= competence.reached_tolerance), 0.0, c)


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
) -> ReachOutcome:
    """Steer the arm from its current joint state toward `goal`."""
    goal = np.asarray(goal, dtype=float)
    start = world.forward(alpha)
    current = start
    gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
    if gamma == 0.0:
        return ReachOutcome(current, 0.0, 0, REACHED, alpha.copy())

    start_distance = scaled_distance(start, goal, competence)
    cap = budget.max_steps(start_distance)
    if allowance is not None:
        cap = min(cap, allowance)
    steps = 0
    best = euclidean(current, goal)
    # Blocking bookkeeping: a streak of exploration triggers with no
    # improvement of the best distance between them.
    last_mark = best
    stalled_phases = 0

    def _record(before: np.ndarray, after: np.ndarray, displacement: np.ndarray, point: np.ndarray) -> None:
        # The exemplar stores the actually-applied (post-clamp) increment.
        memory.insert(before, after - before, displacement)
        if hooks is not None:
            hooks(point)

    while steps < cap:
        jacobian = memory.local_jacobian(alpha)
        explore = jacobian is None
        if jacobian is not None:
            distance = euclidean(current, goal)
            desired = (goal - current) * (min(budget.velocity, distance) / distance)
            result = world.step(alpha, pseudo_inverse(jacobian) @ desired, current)
            _record(alpha, result.alpha, result.displacement, result.effector_after)
            alpha, current = result.alpha, result.effector_after
            steps += 1
            best = min(best, euclidean(current, goal))
            gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
            if gamma == 0.0:
                return ReachOutcome(current, 0.0, steps, REACHED, alpha.copy())
            error = euclidean(result.displacement, desired)
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
                    return ReachOutcome(current, gamma, steps, BLOCKED, alpha.copy())
            if jacobian is None and not budget.explore_actions:
                # Nothing can move the arm, so every later round would be
                # this one again: end now, as the blocking check would.
                gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
                return ReachOutcome(current, gamma, steps, BLOCKED, alpha.copy())
            count = min(budget.explore_actions, cap - steps)
            if count:
                # The whole burst as one block; it ends early at the first
                # micro-action that reaches the goal.
                drawn = rng.bit_generator.state
                deltas = rng.uniform(-budget.explore_scale, budget.explore_scale, (count, world.n_dof))
                alphas, effectors = world.step_sequence(alpha, deltas, current)
                after = effectors[1:]
                reached = np.flatnonzero(_gammas(goal, after, start_distance, competence) == 0.0)
                kept = int(reached[0]) + 1 if reached.size else count
                if kept < count:
                    # Leave the stream where drawing one action at a time would.
                    rng.bit_generator.state = drawn
                    rng.uniform(-budget.explore_scale, budget.explore_scale, (kept, world.n_dof))
                moved = effectors[1 : kept + 1] - effectors[:kept]
                for i in range(kept):
                    _record(alphas[i], alphas[i + 1], moved[i], after[i])
                alpha, current = alphas[kept], after[kept - 1]
                steps += kept
                offsets = after[:kept] - goal
                best = min(best, float(np.sqrt(np.vecdot(offsets, offsets)).min()))
                if reached.size:
                    return ReachOutcome(current, 0.0, steps, REACHED, alpha.copy())

    gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
    return ReachOutcome(current, gamma, steps, TIMEOUT, alpha.copy())


def reach_evolving_lockstep(
    world: ArmWorld,
    memory: EvolvingMemory,
    alpha: np.ndarray,
    goals: np.ndarray,
    budget: ReachingBudget,
    competence: CompetenceConfig,
) -> list[ReachOutcome]:
    """A reach from `alpha` toward every row of `goals` that inserts
    nothing, advancing all unfinished reaches by one micro-action per round.

    Pure exploitation only: ``explore_actions`` must be 0 and
    ``blocking_window`` positive, so no random number is drawn and the
    reaches are independent.  Each outcome equals, bit for bit, the one
    ``reach_evolving`` returns for its goal over a memory that drops its
    inserts.
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
            alphas[moving], after = world.step_many(alphas[moving], delta)
            currents[moving] = after
            steps[moving] += 1
            d = np.sqrt(np.vecdot(after - goal, after - goal))
            distance[moving] = d
            best[moving] = np.where(d < best[moving], d, best[moving])
            reached = _gammas(goal, after, start_distance[moving], competence) == 0.0
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
        outcomes.append(ReachOutcome(currents[i], gamma, int(steps[i]), ends[i], alphas[i]))
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
) -> ReachOutcome:
    """One episodic attempt: predict parameters for `goal`, then hill-climb.

    The context resets before every rollout, so competence is always
    measured against the world's rest outcome.  Exploration only triggers
    when the predicted rollout fails to improve on the closest outcome
    already in memory, and each explorative parameter vector is drawn
    around the best one found so far with noise proportional to the
    remaining distance.  The first rollout goes through ``world.rollout``,
    the hill-climb's through ``world.rollout_many``.
    """
    goal = np.asarray(goal, dtype=float)
    start = world.rest_effect()
    cap = 1 + budget.explore_actions
    if allowance is not None:
        cap = min(cap, allowance)
    if cap <= 0:
        return ReachOutcome(start, -1.0, 0, TIMEOUT, np.full(world.param_dim, 0.5))

    known_best: float | None = None
    if len(memory):
        predicted, nearest = memory.local_inverse(goal)
        # Closest already-observed outcome, measured in the same (possibly
        # rescaled) metric as the attempt distances.
        known_best = scaled_distance(goal, memory.effects[nearest], competence)
        theta = np.clip(predicted, 0.0, 1.0)
    else:
        theta = rng.uniform(0.0, 1.0, world.param_dim)

    def _record(params: np.ndarray, outcome: np.ndarray) -> None:
        memory.insert(params, outcome)
        if hooks is not None:
            hooks(outcome)

    outcome = world.rollout(theta)
    _record(theta, outcome)
    gamma = clip_to_gamma(competence_normalized(goal, outcome, start, competence), competence)
    rollouts = 1
    best_theta, best_outcome, best_gamma = theta, outcome, gamma
    if gamma == 0.0:
        return ReachOutcome(outcome, 0.0, rollouts, REACHED, best_theta)

    attempt_distance = scaled_distance(goal, outcome, competence)
    inefficient = known_best is None or attempt_distance > known_best
    count = cap - rollouts
    if inefficient and count:
        # All the hill-climbing noise in one draw.  The rollouts go in
        # segments: every row of a segment is drawn around the same best
        # parameters, so all of them run as one block, and the segment ends
        # at its first row that improves on the best.
        drawn = rng.bit_generator.state
        noise = rng.uniform(-1.0, 1.0, (count, world.param_dim))
        start_distance = scaled_distance(start, goal, competence)
        row = 0
        while row < count:
            spread = budget.explore_noise * scaled_distance(goal, best_outcome, competence)
            candidates = np.clip(best_theta + noise[row:] * spread, 0.0, 1.0)
            outcomes = world.rollout_many(candidates)
            gammas = _gammas(goal, outcomes, start_distance, competence)
            better = np.flatnonzero(gammas > best_gamma)
            kept = int(better[0]) + 1 if better.size else count - row
            for i in range(kept):
                _record(candidates[i], outcomes[i])
            row += kept
            if better.size:
                best_theta, best_outcome, best_gamma = candidates[kept - 1], outcomes[kept - 1], float(gammas[kept - 1])
                if best_gamma == 0.0:
                    if row < count:
                        # Leave the stream where drawing one row per rollout would.
                        rng.bit_generator.state = drawn
                        rng.uniform(-1.0, 1.0, (row, world.param_dim))
                    return ReachOutcome(best_outcome, 0.0, rollouts + row, REACHED, best_theta)
        rollouts += count

    return ReachOutcome(best_outcome, best_gamma, rollouts, TIMEOUT, best_theta)
