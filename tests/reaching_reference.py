"""Reaching as it was written one micro-action or rollout at a time.

These are the oracles that the block bursts and block hill-climbs of
``goalbabbling.explorers`` are checked against, bit for bit, and, with
``learn=False`` (nothing inserted), the oracle of the lockstep
evaluation.  The package's reaches always insert; a test gives them a
``NoInserts`` memory to compare against ``learn=False``.  The exploit step
inverts the local Jacobian with the package's ``pseudo_inverse``, as the
package does, so the oracles check the burst and lockstep logic.  Their
``hooks`` see each executed outcome as it happens, one point at a time;
the package's reaches return all of them at once as ``ReachOutcome.path``,
and so do the oracles.
"""
import math

import numpy as np

from goalbabbling.competence import clip_to_gamma, competence_normalized, scaled_distance
from goalbabbling.explorers import BLOCKED, REACHED, TIMEOUT, ReachOutcome, euclidean
from goalbabbling.memory import pseudo_inverse


class NoInserts:
    """`memory` with ``insert`` and ``insert_many`` dropped: a reach through
    it learns nothing."""

    def __init__(self, memory):
        self.memory = memory

    def __len__(self):
        return len(self.memory)

    def __getattr__(self, name):
        return getattr(self.memory, name)

    def insert(self, *args):
        pass

    def insert_many(self, *args):
        pass


def reference_reach_evolving(
    world, memory, alpha, goal, budget, competence, rng=None, hooks=None, allowance=None, learn=True, events=None
):
    """``reach_evolving`` as it was written one micro-action at a time,
    reporting in `events` how each exploration burst ended."""
    events = [] if events is None else events
    goal = np.asarray(goal, dtype=float)
    start = world.forward(alpha)
    current = start
    steps = 0
    visited = []

    def outcome(gamma, terminated_by):
        return ReachOutcome(current, gamma, steps, terminated_by, alpha.copy(), _path(visited, goal))

    gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
    if gamma == 0.0:
        return outcome(0.0, REACHED)
    cap = budget.max_steps(scaled_distance(start, goal, competence))
    if allowance is not None:
        cap = min(cap, allowance)
    best = euclidean(current, goal)
    last_mark = best
    stalled_phases = 0

    def advance(delta):
        nonlocal alpha, current, steps, best
        stepped, after = world.step(alpha, delta)
        displacement = after - current
        if learn:
            memory.insert(alpha, stepped - alpha, displacement)
        alpha = stepped
        current = after
        steps += 1
        visited.append(current)
        if hooks is not None:
            hooks(current)
        best = min(best, euclidean(current, goal))
        return displacement

    def clip_norm(vector, bound):
        norm = math.sqrt(float(vector @ vector))
        return vector * (bound / norm) if norm > bound else vector

    while steps < cap:
        jacobian = memory.local_jacobian(alpha)
        explore = jacobian is None
        if jacobian is not None:
            distance = euclidean(current, goal)
            desired = (goal - current) * (min(budget.velocity, distance) / distance)
            displacement = advance(pseudo_inverse(jacobian) @ desired)
            gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
            if gamma == 0.0:
                return outcome(0.0, REACHED)
            explore = euclidean(displacement, desired) > budget.prediction_error_max
        if explore:
            if budget.blocking_window:
                stalled_phases = stalled_phases + 1 if best >= last_mark - 1e-6 else 0
                last_mark = best
                if stalled_phases >= budget.blocking_window:
                    gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
                    return outcome(gamma, BLOCKED)
            if jacobian is None and not budget.explore_actions:
                gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
                return outcome(gamma, BLOCKED)
            for row in range(budget.explore_actions):
                if steps >= cap:
                    events.append("cut")
                    break
                delta = rng.uniform(-budget.explore_scale, budget.explore_scale, world.n_dof)
                if np.linalg.norm(delta) > world.max_action_norm:
                    events.append("clipped")
                # The arm bounds and clamps the action itself; the clipped copy
                # only tells whether this step hits a joint limit.
                raw = alpha + clip_norm(delta, world.max_action_norm)
                if np.any(np.clip(raw, world.geometry.joint_low, world.geometry.joint_high) != raw):
                    events.append("clamped")
                advance(delta)
                gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
                if gamma == 0.0:
                    events.append("reached mid-burst" if row < budget.explore_actions - 1 else "reached")
                    return outcome(0.0, REACHED)
            else:
                events.append("full")
    gamma = clip_to_gamma(competence_normalized(goal, current, start, competence), competence)
    return outcome(gamma, TIMEOUT)


def reference_reach_fixed(
    world, memory, goal, budget, competence, rng=None, hooks=None, allowance=None, learn=True, events=None
):
    """``reach_fixed`` as it was written one rollout at a time, reporting in
    `events` how its hill-climb went."""
    events = [] if events is None else events
    goal = np.asarray(goal, dtype=float)
    start = world.rest_effect()
    cap = 1 + budget.explore_actions
    if allowance is not None:
        cap = min(cap, allowance)
    visited = []
    if cap <= 0:
        return ReachOutcome(start, -1.0, 0, TIMEOUT, np.full(world.param_dim, 0.5), _path(visited, goal))
    known_best = None
    if len(memory):
        idx, _ = memory._effect_index.query(goal, 1)
        known_best = scaled_distance(goal, memory.effects[idx[0]], competence)
        theta = np.clip(memory.local_inverse(goal)[0], 0.0, 1.0)
    else:
        events.append("random first theta")
        theta = rng.uniform(0.0, 1.0, world.param_dim)

    def rollout(params):
        outcome = world.rollout(params)
        if learn:
            memory.insert(params, outcome)
        visited.append(outcome)
        if hooks is not None:
            hooks(outcome)
        return outcome, clip_to_gamma(competence_normalized(goal, outcome, start, competence), competence)

    outcome, gamma = rollout(theta)
    rollouts = 1
    best_theta, best_outcome, best_gamma = theta, outcome, gamma
    if gamma == 0.0:
        return ReachOutcome(outcome, 0.0, rollouts, REACHED, best_theta, _path(visited, goal))
    if known_best is None or scaled_distance(goal, outcome, competence) > known_best:
        if cap == 1:
            events.append("no room")
        elif cap < 1 + budget.explore_actions:
            events.append("cut")
        improved = False
        while rollouts < cap:
            noise = rng.uniform(-1.0, 1.0, world.param_dim)
            spread = budget.explore_noise * scaled_distance(goal, best_outcome, competence)
            candidate = np.clip(best_theta + noise * spread, 0.0, 1.0)
            outcome, gamma = rollout(candidate)
            rollouts += 1
            if gamma > best_gamma:
                improved = True
                best_theta, best_outcome, best_gamma = candidate, outcome, gamma
                if gamma != 0.0 and rollouts < cap:
                    events.append("improved mid-block")
            if gamma == 0.0:
                events.append("reached mid-block" if rollouts < cap else "reached at the end")
                return ReachOutcome(outcome, 0.0, rollouts, REACHED, best_theta, _path(visited, goal))
        if not improved and cap > 1:
            events.append("no improvement")
    return ReachOutcome(best_outcome, best_gamma, rollouts, TIMEOUT, best_theta, _path(visited, goal))


def _path(points, goal):
    """The executed outcomes, in order, as one (rows x 2) array."""
    return np.array(points, dtype=float).reshape(len(points), goal.shape[0])

