import dataclasses

import numpy as np
import pytest

from goalbabbling.competence import CompetenceConfig, clip_to_gamma, competence_normalized
from goalbabbling.config import (
    STRATEGIES, ConfigError, EnvironmentSpec, ExperimentConfig, bundled_config_path, load_config
)
from goalbabbling.experiment import ActuatorRiacPolicy, run_with_memory, strategy_goal
from goalbabbling.regions import interest_of
from goalbabbling.rng import RngStreams
from goalbabbling.spaces import Box


def arm_config(**overrides):
    defaults = dict(
        strategy="sagg_riac",
        budget=600,
        seed=1,
        environment=EnvironmentSpec(type="arm", n_dof=3, rest_angle=0.35),
        task_low=(0.0, -60.0),
        task_high=(60.0, 60.0),
        region_capacity=15,
        burn_in_goals=4,
        subgoal_count=3,
        velocity=1.0,
        explore_actions=8,
        regression_neighbors=8,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def map_config(**overrides):
    defaults = dict(
        strategy="sagg_riac",
        budget=400,
        seed=2,
        environment=EnvironmentSpec(type="synergy_map", n_dof=4),
        task_low=(-80.0, -80.0),
        task_high=(80.0, 80.0),
        region_capacity=15,
        burn_in_goals=4,
        subgoals=False,
        explore_actions=6,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_zero_budget_gives_empty_log():
    log, memory = run_with_memory(arm_config(budget=0))
    assert log.attempts == []
    assert log.goals == []
    assert len(memory) == 0


def test_budget_is_spent_exactly():
    for config in (arm_config(), map_config()):
        log = run_with_memory(config)[0]
        assert log.attempts[-1].total_actions == config.budget


def test_sagg_random_mode_log_is_all_random():
    log = run_with_memory(arm_config(strategy="sagg_random", budget=300))[0]
    assert log.goals
    assert all(g.mode == "random" for g in log.goals)


def test_sagg_riac_modes_activate_after_burn_in():
    log = run_with_memory(arm_config(budget=1500, burn_in_goals=3))[0]
    modes = [g.mode for g in log.goals]
    assert set(modes[:3]) == {"uniform"}
    assert set(modes[3:]) & {"interest", "low_competence"}


def test_memory_growth_matches_budget():
    # Every micro-action is stored exactly once.
    config = arm_config(budget=500)
    log, memory = run_with_memory(config)
    assert len(memory) == 500 == log.attempts[-1].memory_size


def test_conservation_updates_once_per_micro_action():
    config = arm_config(budget=400, conservation=True)
    log = run_with_memory(config)[0]
    assert log.en_route_updates == 400
    off = run_with_memory(dataclasses.replace(config, conservation=False))[0]
    assert off.en_route_updates == 0


def test_gamma_consistent_with_competence_module():
    config = arm_config(budget=800)
    log = run_with_memory(config)[0]
    competence = CompetenceConfig(config.reached_tolerance, config.min_start_distance, config.dim_scales())
    assert log.attempts
    for row in log.attempts:
        expected = clip_to_gamma(
            competence_normalized(row.goal, row.final, row.start, competence), competence
        )
        assert row.gamma == pytest.approx(expected, abs=1e-12)


def test_determinism_fifteen_dof_thousand_steps():
    config = ExperimentConfig(
        strategy="sagg_riac",
        budget=1000,
        seed=9,
        environment=EnvironmentSpec(type="arm", n_dof=15, rest_angle=0.15),
        task_low=(0.0, -150.0),
        task_high=(150.0, 150.0),
        burn_in_goals=10,
    )
    a = run_with_memory(config)[0]
    b = run_with_memory(config)[0]
    assert len(a.attempts) == len(b.attempts)
    for ra, rb in zip(a.attempts, b.attempts):
        assert ra.gamma == rb.gamma
        assert ra.actions == rb.actions
        assert np.array_equal(ra.goal, rb.goal)
        assert np.array_equal(ra.final, rb.final)
    assert a.resets == b.resets
    assert [g.mode for g in a.goals] == [g.mode for g in b.goals]


def test_seed_changes_trajectories():
    config = arm_config(budget=300)
    a = run_with_memory(config)[0]
    b = run_with_memory(dataclasses.replace(config, seed=1234))[0]
    assert any(
        not np.array_equal(ga.point, gb.point) for ga, gb in zip(a.goals, b.goals)
    )


# ------------------------------------------------------------- strategy_goal

def test_strategy_goal_uniform_mean_near_center():
    config = arm_config(strategy="sagg_random")
    rng = RngStreams(5).goals
    draws = np.array([strategy_goal(config, None, rng)[0] for _ in range(100_000)])
    center = (config.task_box.low + config.task_box.high) / 2.0
    span = config.task_box.extent
    assert np.all(np.abs(draws.mean(axis=0) - center) < 0.01 * span)


def test_strategy_goal_rejects_actuator_strategies():
    config = arm_config(strategy="actuator_random")
    with pytest.raises(ValueError):
        strategy_goal(config, None, RngStreams(1).goals)


# --------------------------------------------------------------- actuator runs

def test_actuator_random_reset_cadence():
    config = arm_config(strategy="actuator_random", budget=500)
    log = run_with_memory(config)[0]
    assert len(log.resets) >= 2
    gaps = np.diff(log.resets)
    assert len(set(gaps.tolist())) == 1  # reset exactly every max micro-actions


def test_actuator_runs_populate_memory_but_no_goals():
    for strategy in ("actuator_random", "actuator_riac"):
        config = arm_config(strategy=strategy, budget=300)
        log, memory = run_with_memory(config)
        assert log.goals == []
        assert log.attempts == []
        assert len(memory) == 300


def test_actuator_map_strategies_run():
    for strategy in ("actuator_random", "actuator_riac"):
        config = map_config(strategy=strategy, budget=200)
        log, memory = run_with_memory(config)
        assert len(memory) == 200


def test_actuator_riac_selections_track_progress_halfspace():
    # Synthetic landscape: prediction errors decay only where the first
    # coordinate is positive; selections should concentrate there.
    rng = np.random.default_rng(3)
    policy = ActuatorRiacPolicy(
        Box(np.array([-1.0, -0.1]), np.array([1.0, 0.1])),
        state_dim=1,
        window=10,
        capacity=20,
        split_candidates=30,
        rng=rng,
    )
    feed = np.random.default_rng(4)
    progress_count = 0
    for _ in range(600):
        point = policy.tree.bounds.sample(feed)
        if point[0] > 0:
            progress_count += 1
            error = 1.5 * np.exp(-progress_count / 80.0)
        else:
            error = 1.0
        policy.observe(point, error)
    picks = np.array([policy.choose_point(None) for _ in range(500)])
    assert (picks[:, 0] > 0).mean() >= 0.6


def _walk_candidate_leaves(policy, state):
    """Reference filter: a depth-first descent that follows `state` at
    state-space splits and takes both sides of the other splits."""
    leaves, stack = [], [policy.tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        elif node.split_dim < policy.state_dim:
            stack.append(node.left if state[node.split_dim] < node.split_value else node.right)
        else:
            stack.extend([node.left, node.right])
    return leaves[::-1]


def _left_to_right(node):
    return [node] if node.is_leaf else _left_to_right(node.left) + _left_to_right(node.right)


def test_actuator_riac_leaf_filter_matches_tree_descent():
    low, high = np.array([-1.0, -1.0, -0.1, -0.1]), np.array([1.0, 1.0, 0.1, 0.1])
    policy = ActuatorRiacPolicy(
        Box(low, high), state_dim=2, window=6, capacity=5, split_candidates=10, rng=np.random.default_rng(5)
    )
    feed = np.random.default_rng(6)
    for _ in range(800):
        policy.observe(policy.tree.bounds.sample(feed), float(feed.random()))
    tree = policy.tree
    leaves = tree.leaves()
    # Every slot, in key order, is the recursive left-to-right walk.
    ordered = [leaves[s] for s in tree.admitting(low[:0])]
    assert len(ordered) == len(leaves) > 50
    assert all(a is b for a, b in zip(ordered, _left_to_right(tree.root), strict=True))
    assert any(node.bounds.low[0] > -1.0 for node in ordered if node.depth > 0)
    np.testing.assert_array_equal(
        tree._interests[tree.admitting(low[:0])],
        [interest_of(leaf.gammas[: leaf.count].tolist(), tree.window) for leaf in ordered],
    )
    # Random states, the outer corners (joint clamping reaches the upper
    # bound exactly) and states lying exactly on split values.
    states = list(feed.uniform(-1.0, 1.0, size=(200, 2))) + [low[:2], high[:2], np.array([1.0, -1.0])]
    states += [leaf.bounds.low[:2] for leaf in ordered[::7]]
    for state in states:
        admitted = [leaves[s] for s in tree.admitting(state)]
        expected = _walk_candidate_leaves(policy, state)
        assert len(admitted) == len(expected) and all(a is b for a, b in zip(admitted, expected))


def test_checkpoint_snapshots_recorded():
    config = arm_config(budget=400)
    log = run_with_memory(config, checkpoints=[100, 400])[0]
    assert [snap.checkpoint for snap in log.snapshots] == [100, 400]
    for snap in log.snapshots:
        area = sum(np.prod(high - low) for low, high, _, _ in snap.leaves)
        assert area == pytest.approx(np.prod(config.task_box.extent))


@pytest.mark.parametrize("strategy", ["sagg_riac", "actuator_riac"])
def test_checkpoint_past_the_budget_is_rejected_before_the_run(strategy, monkeypatch):
    def no_world(self):
        raise AssertionError("the run started")

    monkeypatch.setattr(ExperimentConfig, "build_world", no_world)
    with pytest.raises(ConfigError, match="checkpoint 401 exceeds the budget of 400"):
        run_with_memory(arm_config(strategy=strategy, budget=400), checkpoints=[100, 401])


def test_attempt_counters_are_monotone():
    log = run_with_memory(arm_config(budget=700))[0]
    totals = [row.total_actions for row in log.attempts]
    assert totals == sorted(totals)
    attempts = [row.attempt for row in log.attempts]
    assert attempts == sorted(attempts)


# The run fields that no output file holds, so the golden digests cannot
# see them: (resets, en-route updates, final memory size) for seed 3 and a
# 300-step budget.
_ARM_GOAL_RESETS = [0, 49, 69, 130, 160, 176, 210, 235, 267, 295]
_ARM_MOTOR_RESETS = [0, 72, 144, 216, 288]
PINNED_LOG_FIELDS = {
    ("arm2_demo", "sagg_riac"): (_ARM_GOAL_RESETS, 300, 300),
    ("arm2_demo", "sagg_random"): (_ARM_GOAL_RESETS, 300, 300),
    ("arm2_demo", "actuator_random"): (_ARM_MOTOR_RESETS, 0, 300),
    ("arm2_demo", "actuator_riac"): (_ARM_MOTOR_RESETS, 0, 300),
    ("map8_mid", "sagg_riac"): ([], 300, 300),
    ("map8_mid", "sagg_random"): ([], 300, 300),
    ("map8_mid", "actuator_random"): ([], 0, 300),
    ("map8_mid", "actuator_riac"): ([], 0, 300),
}


@pytest.mark.parametrize("name, strategy", sorted(PINNED_LOG_FIELDS))
def test_run_log_fields_outside_the_outputs_are_pinned(name, strategy):
    config = dataclasses.replace(load_config(bundled_config_path(name), seed=3, budget=300), strategy=strategy)
    log, memory = run_with_memory(config)
    assert (log.resets, log.en_route_updates, len(memory)) == PINNED_LOG_FIELDS[(name, strategy)]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_arm_strategy_obeys_the_action_bound(strategy):
    """No strategy applies a micro-action longer than the arm's
    `max_action_norm` (0.2), also when its random draws reach past it:
    `explore_scale` 0.1 on 15 joints draws actions up to 0.1 * sqrt(15),
    about 0.39, long."""
    config = load_config(bundled_config_path("arm15_mid"), seed=3, budget=1500)
    config = dataclasses.replace(config, strategy=strategy, explore_scale=0.1)
    _, memory = run_with_memory(config)
    norms = np.linalg.norm(memory._actions[: len(memory)], axis=1)
    bound = config.environment.max_action_norm
    assert norms.max() <= bound * (1 + 1e-12)
    assert norms.max() >= bound * (1 - 1e-9)  # the draws do reach the bound
