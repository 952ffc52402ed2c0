"""Top-level experiment loop.

One run owns one world, one memory, one region tree and its own named
random streams, and executes goal-reaching attempts until the budget of
physical experiments (micro-actions or rollouts) is exhausted.  Four
exploration strategies are supported:

* ``sagg_riac``      -- interest-driven goal babbling in the task space;
* ``sagg_random``    -- goal babbling with uniformly random goals;
* ``actuator_random``-- random motor babbling in the actuator space;
* ``actuator_riac``  -- motor babbling driven by prediction-error progress
                        over a partition of the (state, action) space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .competence import CompetenceConfig, max_competence
from .config import (
    ACTUATOR_RANDOM,
    ACTUATOR_RIAC,
    ENV_ARM,
    SAGG_RANDOM,
    SAGG_RIAC,
    ExperimentConfig,
)
from .explorers import ReachingBudget, make_subgoals, reach_evolving, reach_fixed, rest_reset_policy
from .kinematics import ArmWorld, SynergyWorld
from .memory import EvolvingMemory, FixedMemory
from .regions import RecordOrigin, RegionTree
from .rng import RngStreams
from .spaces import Box

MODE_TAGS = {RegionTree.MODE_INTEREST: "interest", RegionTree.MODE_UNIFORM: "uniform", RegionTree.MODE_LOW_COMPETENCE: "low_competence"}
MODE_RANDOM = "random"

# Abort when this many consecutive attempts consume no physical experiments.
_STALL_LIMIT = 10_000


@dataclass(frozen=True)
class GoalEvent:
    attempt: int
    point: np.ndarray
    mode: str
    reachable: bool


@dataclass(frozen=True)
class AttemptRecord:
    attempt: int
    kind: str  # "goal" | "subgoal"
    mode: str
    goal: np.ndarray
    start: np.ndarray
    final: np.ndarray
    gamma: float
    actions: int
    terminated_by: str
    total_actions: int
    memory_size: int
    reachable: bool


@dataclass(frozen=True)
class SnapshotRecord:
    checkpoint: int
    used: int
    leaves: list


@dataclass(frozen=True)
class EvaluationRecord:
    checkpoint: int
    used: int
    error: float


@dataclass
class RunLog:
    config: dict
    attempts: list[AttemptRecord] = field(default_factory=list)
    goals: list[GoalEvent] = field(default_factory=list)
    snapshots: list[SnapshotRecord] = field(default_factory=list)
    evaluations: list[EvaluationRecord] = field(default_factory=list)
    resets: list[int] = field(default_factory=list)
    en_route_updates: int = 0
    final_memory_size: int = 0


class _Checkpoints:
    """Fires evaluation/snapshot collection once per crossed checkpoint."""

    def __init__(self, targets, world, test_goals, config: ExperimentConfig):
        self.pending = sorted(set(int(t) for t in targets))
        self.world = world
        self.test_goals = test_goals
        self.config = config

    def collect(self, used: int, memory, tree: RegionTree | None, log: RunLog) -> None:
        while self.pending and used >= self.pending[0]:
            target = self.pending.pop(0)
            if self.test_goals is not None:
                from .evaluation import evaluate

                error = evaluate(memory, self.world, self.test_goals, self.config)
                log.evaluations.append(EvaluationRecord(target, used, error))
            log.snapshots.append(SnapshotRecord(target, used, tree.snapshot() if tree is not None else []))


def competence_config(config: ExperimentConfig) -> CompetenceConfig:
    return CompetenceConfig(config.reached_tolerance, config.min_start_distance, config.dim_scales())


def reaching_budget(config: ExperimentConfig) -> ReachingBudget:
    return ReachingBudget(
        velocity=config.velocity,
        timeout_factor=config.timeout_factor,
        explore_actions=config.explore_actions,
        blocking_window=config.blocking_window,
        prediction_error_max=config.mispredict_threshold,
        explore_scale=config.explore_scale,
        explore_noise=config.explore_noise,
    )


def _build_tree(config: ExperimentConfig, rng: np.random.Generator) -> RegionTree:
    return RegionTree(
        config.task_box,
        rng=rng,
        window=config.window,
        capacity=config.region_capacity,
        split_candidates=config.split_candidates,
        probabilities=(config.p1 / 100.0, config.p2 / 100.0, config.p3 / 100.0),
    )


def strategy_goal(
    config: ExperimentConfig, tree: RegionTree | None, rng: np.random.Generator, goals_made: int = 0
) -> tuple[np.ndarray, str]:
    """Next self-generated goal for the goal-babbling strategies.

    Interest-driven selection activates only after the burn-in quota of
    uniformly drawn goals, and needs a region tree; random goal babbling
    ignores the tree entirely.
    """
    box = config.task_box
    if config.strategy == SAGG_RANDOM:
        return box.sample(rng), MODE_RANDOM
    if config.strategy != SAGG_RIAC:
        raise ValueError(f"strategy {config.strategy!r} does not self-generate task-space goals")
    if goals_made < config.burn_in:
        return box.sample(rng), MODE_TAGS[RegionTree.MODE_UNIFORM]
    if tree is None:
        raise ValueError("interest-driven goal selection needs a region tree")
    point, mode = tree.select_goal(rng)
    return point, MODE_TAGS[mode]


def run_experiment(config: ExperimentConfig, checkpoints=(), test_goals=None) -> RunLog:
    """Execute one full run; identical (config, checkpoints, db) inputs
    reproduce an identical log."""
    return run_with_memory(config, checkpoints, test_goals)[0]


def run_with_memory(config: ExperimentConfig, checkpoints=(), test_goals=None):
    """As `run_experiment`, but also return the final sensorimotor memory."""
    streams = RngStreams(config.seed)
    world = config.build_world()
    log = RunLog(config=config.to_dict())
    marks = _Checkpoints(checkpoints, world, test_goals, config)
    if config.environment.type == ENV_ARM:
        if config.strategy in (SAGG_RIAC, SAGG_RANDOM):
            memory = _run_goal_babbling_arm(config, world, streams, marks, log)
        else:
            memory = _run_actuator_arm(config, world, streams, marks, log)
    else:
        if config.strategy in (SAGG_RIAC, SAGG_RANDOM):
            memory = _run_goal_babbling_map(config, world, streams, marks, log)
        else:
            memory = _run_actuator_map(config, world, streams, marks, log)
    return log, memory


# ---------------------------------------------------------------------- arm

def _run_goal_babbling_arm(config, world: ArmWorld, streams, marks: _Checkpoints, log: RunLog) -> None:
    memory = EvolvingMemory(
        world.n_dof,
        world.effect_dim,
        neighbors=config.regression_neighbors,
        support_radius=config.support_radius,
    )
    tree = _build_tree(config, streams.goals)
    competence = competence_config(config)
    budget = reaching_budget(config)

    def conserve(point: np.ndarray) -> None:
        tree.update(point, max_competence(), RecordOrigin.EN_ROUTE)
        log.en_route_updates += 1

    hooks = conserve if config.conservation else None
    alpha = world.rest_state()
    used = attempt = goals_made = idle = 0
    while used < config.budget:
        marks.collect(used, memory, tree, log)
        if rest_reset_policy(attempt, config.reset_every):
            alpha = world.rest_state()
            log.resets.append(used)
        goal, mode = strategy_goal(config, tree, streams.goals, goals_made)
        goals_made += 1
        log.goals.append(GoalEvent(attempt, goal, mode, world.within_reach(goal)))
        current = world.forward(alpha)
        targets = make_subgoals(current, goal, config.subgoal_count) if config.subgoals else [goal]
        spent = 0
        for i, target in enumerate(targets):
            if used >= config.budget:
                break
            start = world.forward(alpha)
            outcome = reach_evolving(
                world,
                memory,
                alpha,
                target,
                budget,
                competence,
                rng=streams.exploration,
                hooks=hooks,
                allowance=config.budget - used,
            )
            alpha = outcome.final_state
            used += outcome.micro_actions_used
            spent += outcome.micro_actions_used
            kind = "goal" if i == len(targets) - 1 else "subgoal"
            origin = RecordOrigin.SELF_GENERATED if kind == "goal" else RecordOrigin.SUBGOAL
            tree.update(target, outcome.gamma, origin)
            log.attempts.append(
                AttemptRecord(
                    attempt, kind, mode, target, start, outcome.final, outcome.gamma,
                    outcome.micro_actions_used, outcome.terminated_by, used, len(memory),
                    world.within_reach(target),
                )
            )
        attempt += 1
        idle = idle + 1 if spent == 0 else 0
        if idle > _STALL_LIMIT:
            raise RuntimeError("experiment stalled: attempts consume no micro-actions")
    marks.collect(used, memory, tree, log)
    log.final_memory_size = len(memory)
    return memory


def _actuator_reset_period(config, world: ArmWorld) -> int:
    """Micro-actions between rest resets for the motor-babbling baselines:
    the budgeted step count of a reach to the farthest eligible goal."""
    farthest = config.task_box.farthest_distance(world.rest_effector())
    return max(1, int(math.ceil(config.timeout_factor * farthest / config.velocity)))


def _run_actuator_arm(config, world: ArmWorld, streams, marks: _Checkpoints, log: RunLog) -> None:
    memory = EvolvingMemory(
        world.n_dof,
        world.effect_dim,
        neighbors=config.regression_neighbors,
        support_radius=config.support_radius,
    )
    policy = (
        ActuatorRiacPolicy(
            Box(
                np.concatenate([world.geometry.joint_low, np.full(world.n_dof, -config.explore_scale)]),
                np.concatenate([world.geometry.joint_high, np.full(world.n_dof, config.explore_scale)]),
            ),
            state_dim=world.n_dof,
            window=config.window,
            capacity=config.region_capacity,
            split_candidates=config.split_candidates,
            rng=streams.goals,
        )
        if config.strategy == ACTUATOR_RIAC
        else None
    )
    period = _actuator_reset_period(config, world)
    alpha = world.rest_state()
    log.resets.append(0)
    used = 0
    since_reset = 0
    while used < config.budget:
        marks.collect(used, memory, tree=None, log=log)
        if since_reset == period:
            alpha = world.rest_state()
            since_reset = 0
            log.resets.append(used)
        if policy is None:
            delta = streams.exploration.uniform(-config.explore_scale, config.explore_scale, world.n_dof)
        else:
            delta = policy.choose_point(alpha)[world.n_dof :]
        result = world.step(alpha, delta)
        applied = result.alpha - alpha
        if policy is not None:
            model = memory.local_jacobian(alpha)
            predicted = model.jacobian @ applied if model is not None else np.zeros(world.effect_dim)
            error = float(np.linalg.norm(result.displacement - predicted))
        memory.insert(alpha, applied, result.displacement)
        if policy is not None:
            policy.observe(np.concatenate([alpha, applied]), error)
        alpha = result.alpha
        used += 1
        since_reset += 1
    marks.collect(used, memory, tree=None, log=log)
    log.final_memory_size = len(memory)
    return memory


class ActuatorRiacPolicy:
    """Prediction-error-progress babbling over an actuator-side input space.

    The same windowed-progress/split machinery used for task-space goals is
    instantiated over the actuator inputs -- (joint state, increment) pairs
    for the arm, episode parameters for the episodic world -- with
    forward-model prediction errors as the recorded values.  Points are
    sampled inside a leaf drawn with probability proportional to its
    interest; when a current state is given, only leaves whose first
    ``state_dim`` coordinates contain it are eligible.
    """

    def __init__(self, bounds: Box, state_dim: int, window, capacity, split_candidates, rng):
        self.state_dim = int(state_dim)
        self.tree = RegionTree(
            bounds,
            rng=rng,
            window=window,
            capacity=capacity,
            split_candidates=split_candidates,
        )
        self.rng = rng
        # Every leaf in depth-first (left-to-right) order, with its interest
        # and, one column per leaf, the half-open box [low, high) of states
        # that the splits above it admit (the outer bounds of the space admit
        # every state).  Only `observe` changes the tree, and it keeps these
        # in step.
        self._ordered = [self.tree.root]
        self._interests = np.array([self.tree.root.interest])
        self._state_low = np.full((self.state_dim, 1), -np.inf)
        self._state_high = np.full((self.state_dim, 1), np.inf)

    def _admitted(self, state: np.ndarray) -> np.ndarray:
        """Positions in depth-first order of the leaves a descent reaches
        when it follows `state` at state-space splits and takes both sides
        of the other splits."""
        state = state[:, None]
        admits = (self._state_low <= state) & (state < self._state_high)
        return np.flatnonzero(np.logical_and.reduce(admits, axis=0))

    def choose_point(self, state: np.ndarray | None = None) -> np.ndarray:
        """Sample an input-space point; `state` constrains the leading dims."""
        if state is None:
            leaves = self.tree.leaves()
            interests = np.array([leaf.interest for leaf in leaves])
        else:
            admitted = self._admitted(state)
            interests = self._interests[admitted]
        weights = interests - interests.min()
        total = weights.sum()
        if total <= 0.0:
            pick = self.rng.integers(len(interests))
        else:
            pick = self.rng.choice(len(interests), p=weights / total)
        leaf = leaves[pick] if state is None else self._ordered[admitted[pick]]
        return leaf.bounds.sample(self.rng)

    def observe(self, point: np.ndarray, error: float) -> None:
        leaf = self.tree.update(point, error, RecordOrigin.SELF_GENERATED)
        i = self._ordered.index(leaf)
        if leaf.is_leaf:
            self._interests[i] = leaf.interest
            return
        # The leaf split: its children take its place, left first.
        low, high = self._state_low[:, i], self._state_high[:, i]
        left_high, right_low = high.copy(), low.copy()
        if leaf.split_dim < self.state_dim:
            left_high[leaf.split_dim] = right_low[leaf.split_dim] = leaf.split_value
        self._ordered[i : i + 1] = [leaf.left, leaf.right]
        self._interests = np.insert(self._interests, i + 1, leaf.right.interest)
        self._interests[i] = leaf.left.interest
        self._state_low = np.insert(self._state_low, i + 1, right_low, axis=1)
        self._state_high = np.insert(self._state_high, i, left_high, axis=1)


# ---------------------------------------------------------------------- episodic map

def _run_goal_babbling_map(config, world: SynergyWorld, streams, marks: _Checkpoints, log: RunLog) -> None:
    memory = FixedMemory(
        world.param_dim,
        world.effect_dim,
        inverse_candidates=config.inverse_candidates,
        inverse_neighborhood=config.inverse_neighborhood,
    )
    tree = _build_tree(config, streams.goals)
    competence = competence_config(config)
    budget = reaching_budget(config)

    def conserve(point: np.ndarray) -> None:
        tree.update(point, max_competence(), RecordOrigin.EN_ROUTE)
        log.en_route_updates += 1

    hooks = conserve if config.conservation else None
    rest = world.rest_effect()
    used = attempt = goals_made = idle = 0
    while used < config.budget:
        marks.collect(used, memory, tree, log)
        goal, mode = strategy_goal(config, tree, streams.goals, goals_made)
        goals_made += 1
        log.goals.append(GoalEvent(attempt, goal, mode, world.within_reach(goal)))
        targets = make_subgoals(rest, goal, config.subgoal_count) if config.subgoals else [goal]
        spent = 0
        for i, target in enumerate(targets):
            if used >= config.budget:
                break
            outcome = reach_fixed(
                world,
                memory,
                target,
                budget,
                competence,
                rng=streams.exploration,
                hooks=hooks,
                allowance=config.budget - used,
            )
            used += outcome.micro_actions_used
            spent += outcome.micro_actions_used
            kind = "goal" if i == len(targets) - 1 else "subgoal"
            origin = RecordOrigin.SELF_GENERATED if kind == "goal" else RecordOrigin.SUBGOAL
            tree.update(target, outcome.gamma, origin)
            log.attempts.append(
                AttemptRecord(
                    attempt, kind, mode, target, rest, outcome.final, outcome.gamma,
                    outcome.micro_actions_used, outcome.terminated_by, used, len(memory),
                    world.within_reach(target),
                )
            )
        attempt += 1
        idle = idle + 1 if spent == 0 else 0
        if idle > _STALL_LIMIT:
            raise RuntimeError("experiment stalled: attempts consume no rollouts")
    marks.collect(used, memory, tree, log)
    log.final_memory_size = len(memory)
    return memory


def _run_actuator_map(config, world: SynergyWorld, streams, marks: _Checkpoints, log: RunLog) -> None:
    memory = FixedMemory(
        world.param_dim,
        world.effect_dim,
        inverse_candidates=config.inverse_candidates,
        inverse_neighborhood=config.inverse_neighborhood,
    )
    policy = (
        ActuatorRiacPolicy(
            Box(np.zeros(world.param_dim), np.ones(world.param_dim)),
            state_dim=0,
            window=config.window,
            capacity=config.region_capacity,
            split_candidates=config.split_candidates,
            rng=streams.goals,
        )
        if config.strategy == ACTUATOR_RIAC
        else None
    )
    used = 0
    while used < config.budget:
        marks.collect(used, memory, tree=None, log=log)
        if policy is None:
            theta = streams.exploration.uniform(0.0, 1.0, world.param_dim)
        else:
            theta = policy.choose_point(None)
        outcome = world.rollout(theta)
        if policy is not None:
            # 1-NN forward prediction from the closest known parameters.
            if len(memory):
                idx, _ = memory.nearest_params(theta, 1)
                predicted = memory.effects[idx[0]]
            else:
                predicted = np.zeros(world.effect_dim)
            policy.observe(theta, float(np.linalg.norm(outcome - predicted)))
        memory.insert(theta, outcome)
        used += 1
    marks.collect(used, memory, tree=None, log=log)
    log.final_memory_size = len(memory)
    return memory
