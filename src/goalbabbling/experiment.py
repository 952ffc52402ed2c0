"""Top-level experiment loops.

One run owns one world, one memory, one region tree and its own named
random streams, and executes goal-reaching attempts until the budget of
physical experiments (micro-actions or rollouts) is exhausted.  Four
exploration strategies are supported:

* ``sagg_riac``      -- interest-driven goal babbling in the task space;
* ``sagg_random``    -- goal babbling with uniformly random goals;
* ``actuator_random``-- random motor babbling in the actuator space;
* ``actuator_riac``  -- motor babbling driven by prediction-error progress
                        over a partition of the (state, action) space.

Each family has one loop, ``_run_goal_babbling`` or ``_run_motor_babbling``,
which runs in either world through a world adapter (``world_adapter``).  The
adapter alone builds the world's memory (``new_memory``) and knows the state
an action starts from, when it goes back to rest and how that is logged,
where a goal attempt starts, which reach runs (``reach_evolving`` on the arm,
``reach_fixed`` on the episodic map, looked up here at call time), how a
snapshot of the learner reaches for test goals in pure exploitation
(``exploit``), and for motor babbling the action box, the random draw, the
prediction error and the insert.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .competence import CompetenceConfig, max_competence
from .config import (
    ACTUATOR_RIAC,
    ENV_ARM,
    SAGG_RANDOM,
    SAGG_RIAC,
    ConfigError,
    ExperimentConfig,
)
from .explorers import (
    ReachingBudget, make_subgoals, reach_evolving, reach_evolving_lockstep, reach_fixed, rest_reset_policy
)
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
    attempts: list[AttemptRecord] = field(default_factory=list)
    goals: list[GoalEvent] = field(default_factory=list)
    snapshots: list[SnapshotRecord] = field(default_factory=list)
    evaluations: list[EvaluationRecord] = field(default_factory=list)
    resets: list[int] = field(default_factory=list)
    en_route_updates: int = 0


def check_checkpoints(checkpoints, budget: int) -> None:
    """Reject a checkpoint past `budget`: no run of that budget reaches it."""
    late = [c for c in checkpoints if c > budget]
    if late:
        raise ConfigError(f"checkpoint {late[0]} exceeds the budget of {budget}")


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


def run_with_memory(config: ExperimentConfig, checkpoints=(), test_goals=None):
    """Execute one full run and return its log and final sensorimotor
    memory; identical (config, checkpoints, db) inputs reproduce an
    identical log and memory."""
    check_checkpoints(checkpoints, config.budget)
    streams = RngStreams(config.seed)
    adapter = world_adapter(config, config.build_world())
    log = RunLog()
    marks = _Checkpoints(checkpoints, adapter.world, test_goals, config)
    run = _run_goal_babbling if config.strategy in (SAGG_RIAC, SAGG_RANDOM) else _run_motor_babbling
    return log, run(config, adapter, streams, marks, log)


def _run_goal_babbling(config, adapter: _WorldAdapter, streams, marks: _Checkpoints, log: RunLog):
    memory = adapter.new_memory()
    tree = _build_tree(config, streams.goals)
    competence = competence_config(config)
    budget = reaching_budget(config)

    def conserve(point: np.ndarray) -> None:
        tree.update(point, max_competence(), RecordOrigin.EN_ROUTE)

    hooks = conserve if config.conservation else None
    used = attempt = goals_made = idle = 0
    while used < config.budget:
        marks.collect(used, memory, tree, log)
        adapter.begin(attempt, used, log)
        goal, mode = strategy_goal(config, tree, streams.goals, goals_made)
        goals_made += 1
        log.goals.append(GoalEvent(attempt, goal, mode, adapter.world.within_reach(goal)))
        targets = make_subgoals(adapter.position(), goal, config.subgoal_count) if config.subgoals else [goal]
        spent = 0
        for i, target in enumerate(targets):
            if used >= config.budget:
                break
            start = adapter.position()
            outcome = adapter.reach(
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
                    attempt, kind, mode, target, start, outcome.final, outcome.gamma,
                    outcome.micro_actions_used, outcome.terminated_by, used, len(memory),
                    adapter.world.within_reach(target),
                )
            )
        attempt += 1
        idle = idle + 1 if spent == 0 else 0
        if idle > _STALL_LIMIT:
            raise RuntimeError("experiment stalled: attempts consume no physical experiments")
    marks.collect(used, memory, tree, log)
    log.en_route_updates = tree.records_by_origin[RecordOrigin.EN_ROUTE]
    return memory


def _run_motor_babbling(config, adapter: _WorldAdapter, streams, marks: _Checkpoints, log: RunLog):
    memory = adapter.new_memory()
    policy = (
        ActuatorRiacPolicy(
            adapter.motor_box(),
            state_dim=adapter.state_dim,
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
        adapter.begin(used, used, log)
        if policy is None:
            adapter.babble(memory, adapter.random_action(streams.exploration), predict=False)
        else:
            action = policy.choose_point(adapter.state)[adapter.state_dim :]
            policy.observe(*adapter.babble(memory, action, predict=True))
        used += 1
    marks.collect(used, memory, tree=None, log=log)
    return memory


class ActuatorRiacPolicy:
    """Prediction-error-progress babbling over an actuator-side input space.

    The same windowed-progress/split machinery used for task-space goals is
    instantiated over the actuator inputs -- (joint state, increment) pairs
    for the arm, episode parameters for the episodic world -- with
    forward-model prediction errors as the recorded values.  Points are
    sampled inside a leaf that `RegionTree.draw_leaf` draws, as goal
    selection does; when a current state is given, only the leaves whose
    cut box admits it on the first ``state_dim`` coordinates are eligible.
    Both draws come from the tree's random stream, which also draws its
    split candidates.
    """

    def __init__(self, bounds: Box, state_dim: int, window, capacity, split_candidates, rng):
        self.state_dim = int(state_dim)
        self.tree = RegionTree(bounds, rng, window=window, capacity=capacity, split_candidates=split_candidates)

    def choose_point(self, state: np.ndarray | None = None) -> np.ndarray:
        """Sample an input-space point; `state` constrains the leading dims."""
        prefix = None if state is None else state[: self.state_dim]
        return self.tree.draw_leaf(self.tree.rng, prefix).bounds.sample(self.tree.rng)

    def observe(self, point: np.ndarray, error: float) -> None:
        self.tree.update(point, error, RecordOrigin.SELF_GENERATED)


# ---------------------------------------------------------------------- worlds

def world_adapter(config: ExperimentConfig, world) -> _WorldAdapter:
    """The adapter that runs `config`'s strategy in `world`."""
    return (_ArmAdapter if config.environment.type == ENV_ARM else _MapAdapter)(config, world)


class _WorldAdapter:
    """The per-world part of a run; the module docstring lists its duties."""

    # Leading coordinates of a motor-babbling point that hold the state.
    state_dim = 0
    state = None

    def __init__(self, config: ExperimentConfig, world):
        self.config, self.world = config, world

    def begin(self, counter: int, used: int, log: RunLog) -> None:
        """Called before each goal-babbling attempt (`counter` counts them)
        and each motor-babbling action (`counter` is `used`)."""


class _ArmAdapter(_WorldAdapter):
    def __init__(self, config: ExperimentConfig, world: ArmWorld):
        super().__init__(config, world)
        self.state_dim = world.n_dof
        self.state, self.effector = world.rest_state(), world.rest_effector()
        if config.strategy in (SAGG_RIAC, SAGG_RANDOM):
            self.period = config.reset_every
        else:
            # The step cap of a reach to the farthest eligible goal.
            self.period = max(1, reaching_budget(config).max_steps(config.task_box.farthest_distance(self.effector)))

    def new_memory(self) -> EvolvingMemory:
        config = self.config
        return EvolvingMemory(
            self.world.n_dof, self.world.effect_dim,
            neighbors=config.regression_neighbors, support_radius=config.support_radius,
        )

    def begin(self, counter: int, used: int, log: RunLog) -> None:
        if rest_reset_policy(counter, self.period):
            self.state, self.effector = self.world.rest_state(), self.world.rest_effector()
            log.resets.append(used)

    def position(self) -> np.ndarray:
        return self.effector

    def reach(self, memory, target, budget, competence, **options):
        outcome = reach_evolving(self.world, memory, self.state, target, budget, competence, **options)
        self.state, self.effector = outcome.final_state, outcome.final
        return outcome

    def exploit(self, memory, goals, budget, competence) -> list[np.ndarray]:
        outcomes = reach_evolving_lockstep(self.world, memory, self.world.rest_state(), goals, budget, competence)
        return [outcome.final for outcome in outcomes]

    def motor_box(self) -> Box:
        scale = np.full(self.world.n_dof, self.config.explore_scale)
        geometry = self.world.geometry
        return Box(np.concatenate([geometry.joint_low, -scale]), np.concatenate([geometry.joint_high, scale]))

    def random_action(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-self.config.explore_scale, self.config.explore_scale, self.world.n_dof)

    def babble(self, memory: EvolvingMemory, delta: np.ndarray, predict: bool):
        alpha = self.state
        result = self.world.step(alpha, delta, self.effector)
        applied = result.alpha - alpha
        point = error = None
        if predict:
            jacobian = memory.local_jacobian(alpha)
            predicted = jacobian @ applied if jacobian is not None else np.zeros(self.world.effect_dim)
            error = float(np.linalg.norm(result.displacement - predicted))
            point = np.concatenate([alpha, applied])
        memory.insert(alpha, applied, result.displacement)
        self.state, self.effector = result.alpha, result.effector_after
        return point, error


class _MapAdapter(_WorldAdapter):
    def __init__(self, config: ExperimentConfig, world: SynergyWorld):
        super().__init__(config, world)
        self.rest = world.rest_effect()

    def new_memory(self) -> FixedMemory:
        config = self.config
        return FixedMemory(
            self.world.param_dim, self.world.effect_dim,
            inverse_candidates=config.inverse_candidates, inverse_neighborhood=config.inverse_neighborhood,
        )

    def position(self) -> np.ndarray:
        return self.rest

    def reach(self, memory, target, budget, competence, **options):
        return reach_fixed(self.world, memory, target, budget, competence, **options)

    def exploit(self, memory, goals, budget, competence) -> list[np.ndarray]:
        if len(memory) == 0:
            return [self.rest] * len(goals)
        return self.world.rollout_many(np.clip(memory.local_inverses(goals)[0], 0.0, 1.0))

    def motor_box(self) -> Box:
        return Box(np.zeros(self.world.param_dim), np.ones(self.world.param_dim))

    def random_action(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 1.0, self.world.param_dim)

    def babble(self, memory: FixedMemory, theta: np.ndarray, predict: bool):
        outcome = self.world.rollout(theta)
        error = None
        if predict:
            # 1-NN forward prediction from the closest known parameters.
            if len(memory):
                idx, _ = memory.nearest_params(theta, 1)
                predicted = memory.effects[idx[0]]
            else:
                predicted = np.zeros(self.world.effect_dim)
            error = float(np.linalg.norm(outcome - predicted))
        memory.insert(theta, outcome)
        return theta, error
