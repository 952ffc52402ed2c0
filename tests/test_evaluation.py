import dataclasses

import numpy as np
import pytest
from scipy.stats import chisquare

from goalbabbling.config import ConfigError, EnvironmentSpec, ExperimentConfig, bundled_config_path, load_config
from goalbabbling.evaluation import (
    compare_strategies,
    evaluate,
    exploitation_budget,
    exploitation_competence,
    make_test_db,
    reachable_fraction,
)
from goalbabbling.experiment import GoalEvent, RunLog, run_with_memory
from goalbabbling.explorers import reach_evolving_lockstep
from goalbabbling.memory import EvolvingMemory, FixedMemory
from reaching_reference import reference_reach_evolving


def arm_config(**overrides):
    defaults = dict(
        strategy="sagg_riac",
        budget=500,
        seed=1,
        environment=EnvironmentSpec(type="arm", n_dof=2, rest_angle=0.35),
        task_low=(0.0, -60.0),
        task_high=(60.0, 60.0),
        region_capacity=20,
        burn_in_goals=5,
        subgoal_count=3,
        velocity=1.0,
        explore_actions=10,
        regression_neighbors=8,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ------------------------------------------------------------------- test db

def test_test_db_points_are_reachable():
    config = ExperimentConfig(strategy="sagg_riac", budget=1, seed=1)
    world = config.build_world()
    goals = make_test_db(world, 100, seed=3)
    assert goals.shape == (100, 2)
    assert np.all(np.linalg.norm(goals, axis=1) <= 50.0)
    assert np.all(goals[:, 0] >= 0.0)  # task bounds respected


def test_test_db_empty():
    config = ExperimentConfig(strategy="sagg_riac", budget=1, seed=1)
    goals = make_test_db(config.build_world(), 0, seed=3)
    assert goals.shape == (0, 2)


def test_test_db_seeds_give_distinct_sets():
    config = ExperimentConfig(strategy="sagg_riac", budget=1, seed=1)
    world = config.build_world()
    a = make_test_db(world, 50, seed=1)
    b = make_test_db(world, 50, seed=2)
    assert not np.array_equal(a, b)


def test_test_db_uniform_over_reachable_area():
    # Chi-square against cell probabilities estimated by an independent
    # Monte-Carlo area oracle on a 10x10 grid over the bounding box.
    config = ExperimentConfig(strategy="sagg_riac", budget=1, seed=1)
    world = config.build_world()
    goals = make_test_db(world, 4000, seed=17)
    low = np.array([0.0, -50.0])
    high = np.array([50.0, 50.0])
    edges_x = np.linspace(low[0], high[0], 11)
    edges_y = np.linspace(low[1], high[1], 11)
    counts, *_ = np.histogram2d(goals[:, 0], goals[:, 1], bins=[edges_x, edges_y])

    oracle_rng = np.random.default_rng(99)
    sample = low + oracle_rng.random((200_000, 2)) * (high - low)
    inside = sample[[world.within_reach(p) for p in sample]]
    oracle_counts, *_ = np.histogram2d(inside[:, 0], inside[:, 1], bins=[edges_x, edges_y])
    mask = oracle_counts.ravel() > 200  # cells with meaningful area only
    expected = oracle_counts.ravel()[mask] / oracle_counts.ravel()[mask].sum() * counts.ravel()[mask].sum()
    result = chisquare(counts.ravel()[mask], expected)
    assert result.pvalue > 0.01


def test_test_db_rejects_impossible_region():
    config = ExperimentConfig(
        strategy="sagg_riac",
        budget=1,
        seed=1,
        task_low=(200.0, 200.0),
        task_high=(300.0, 300.0),  # entirely outside the 50-unit disk
    )
    with pytest.raises(ValueError):
        make_test_db(config.build_world(), 10, seed=1)


# ------------------------------------------------------------------ evaluate

def test_empty_memory_error_is_rest_distance():
    config = arm_config()
    world = config.build_world()
    goals = make_test_db(world, 25, seed=5)
    memory = EvolvingMemory(2, 2)
    expected = float(np.mean(np.linalg.norm(goals - world.rest_effector(), axis=1)))
    assert evaluate(memory, world, goals, config) == pytest.approx(expected)


def test_evaluation_leaves_memory_untouched():
    config = arm_config(budget=2000)
    world = config.build_world()
    goals = make_test_db(world, 20, seed=6)
    _, memory = run_with_memory(config)
    size = len(memory)
    arrays = [memory._index._rows.copy(), memory._actions.copy(), memory._effects.copy()]
    tree, tree_n = memory._index._tree, memory._index._tree_n
    evaluate(memory, world, goals, config)
    assert len(memory) == size
    for before, after in zip(arrays, [memory._index._rows, memory._actions, memory._effects]):
        np.testing.assert_array_equal(after, before)
    assert memory._index._tree is tree
    assert memory._index._tree_n == tree_n


def _memory_prefix(memory: EvolvingMemory, size: int) -> EvolvingMemory:
    """A memory holding the first `size` exemplars of `memory`."""
    prefix = EvolvingMemory(
        memory.context_dim, memory.effect_dim, neighbors=memory.neighbors, support_radius=memory.support_radius
    )
    for i in range(size):
        prefix.insert(memory._index.points[i], memory._actions[i], memory._effects[i])
    return prefix


@pytest.mark.parametrize("name", ["arm2_demo", "arm15_mid", "arm15_big"])
def test_lockstep_evaluation_equals_per_goal_reaches_bitwise(name):
    config = load_config(bundled_config_path(name), seed=3, budget=1300)
    world = config.build_world()
    _, trained = run_with_memory(config)
    goals = np.vstack(
        [make_test_db(world, 25, seed=8), world.rest_effector(), [1.5 * world.reach_radius, 0.0]]
    )
    budget = exploitation_budget(config)
    competence = exploitation_competence(config)
    # Empty; tail only; tree only with an empty tail; tree plus tail.
    for size in (0, 300, 1024, 1300):
        memory = _memory_prefix(trained, size)
        outcomes = reach_evolving_lockstep(world, memory, world.rest_state(), goals, budget, competence)
        errors = []
        for goal, outcome in zip(goals, outcomes):
            expected = reference_reach_evolving(
                world, memory, world.rest_state(), goal, budget, competence, learn=False
            )
            assert np.array_equal(outcome.final, expected.final)
            assert np.array_equal(outcome.final_state, expected.final_state)
            assert outcome.gamma == expected.gamma
            assert outcome.micro_actions_used == expected.micro_actions_used
            assert outcome.terminated_by == expected.terminated_by
            errors.append(float(np.sqrt((expected.final - goal) @ (expected.final - goal))))
        assert outcomes[-2].terminated_by == "reached" and outcomes[-2].micro_actions_used == 0
        assert evaluate(memory, world, goals, config) == float(np.mean(errors))


def test_lockstep_reaching_rejects_exploration_budgets():
    config = arm_config()
    world = config.build_world()
    budget = dataclasses.replace(exploitation_budget(config), explore_actions=5)
    with pytest.raises(ValueError):
        reach_evolving_lockstep(
            world, EvolvingMemory(2, 2), world.rest_state(), np.zeros((1, 2)), budget, exploitation_competence(config)
        )


def test_trained_two_dof_arm_reaches_below_one_unit():
    # Empirical oracle fixture: a converged 2-DOF run scores a mean error
    # below one task unit on a 50-unit arm.
    config = arm_config(budget=20_000)
    world = config.build_world()
    goals = make_test_db(world, 40, seed=555)
    _, memory = run_with_memory(config)
    assert evaluate(memory, world, goals, config) <= 1.0


def test_evaluate_fixed_context_with_empty_memory():
    config = ExperimentConfig(
        strategy="sagg_riac",
        budget=1,
        seed=1,
        environment=EnvironmentSpec(type="synergy_map", n_dof=4),
        task_low=(-80.0, -80.0),
        task_high=(80.0, 80.0),
    )
    world = config.build_world()
    goals = make_test_db(world, 10, seed=7)
    memory = FixedMemory(4, 2)
    expected = float(np.mean(np.linalg.norm(goals - world.rest_effect(), axis=1)))
    assert evaluate(memory, world, goals, config) == pytest.approx(expected)


@pytest.mark.parametrize("size", [0, 1, 300, 512, 700])  # empty; tiny; tail only; tree only; tree plus tail
def test_map_evaluation_equals_per_goal_loop_bitwise(size):
    config = load_config(bundled_config_path("map8_mid"), seed=5, budget=700)
    world = config.build_world()
    _, trained = run_with_memory(config)
    memory = FixedMemory(
        world.param_dim, inverse_candidates=config.inverse_candidates, inverse_neighborhood=config.inverse_neighborhood
    )
    for i in range(size):
        memory.insert(trained.params[i], trained.effects[i])
    goals = np.vstack([make_test_db(world, 30, seed=9), world.rest_effect(), [0.9 * world.reach_radius, 0.0]])
    errors = []
    for goal in goals:
        if size == 0:
            final = world.rest_effect()
        else:
            final = world.rollout(np.clip(memory.local_inverse(goal)[0], 0.0, 1.0))
        errors.append(float(np.sqrt((final - goal) @ (final - goal))))
    assert evaluate(memory, world, goals, config) == float(np.mean(errors))
    assert evaluate(memory, world, goals[:0], config) == 0.0
    assert len(memory) == size


# ----------------------------------------------------------------- fractions

def _log_with_goals(modes_reachable):
    log = RunLog()
    for i, (mode, reachable) in enumerate(modes_reachable):
        log.goals.append(GoalEvent(i, np.zeros(2), mode, reachable))
    return log


def test_reachable_fraction_all_reachable():
    log = _log_with_goals([("interest", True)] * 30)
    assert reachable_fraction(log) == 1.0


def test_reachable_fraction_ignores_uniform_and_random_modes():
    log = _log_with_goals([("uniform", False)] * 10 + [("interest", True)] * 10)
    assert reachable_fraction(log) == 1.0


def test_reachable_fraction_empty_is_nan():
    log = _log_with_goals([("random", True)] * 5)
    assert np.isnan(reachable_fraction(log))


def test_reachable_fraction_windows():
    rows = [("interest", False)] * 10 + [("interest", True)] * 20
    log = _log_with_goals(rows)
    assert reachable_fraction(log, (0.0, 1 / 3)) == 0.0
    assert reachable_fraction(log, (2 / 3, 1.0)) == 1.0


def test_uniform_goals_match_area_ratio_oracle():
    # Uniform goal draws over the mid-size task space hit the reachable set
    # at the Monte-Carlo area ratio of the half-disk within the box.
    from goalbabbling.experiment import strategy_goal
    from goalbabbling.rng import RngStreams

    config = ExperimentConfig(
        strategy="sagg_random",
        budget=1,
        seed=11,
        environment=EnvironmentSpec(type="arm", n_dof=15, rest_angle=0.15),
        task_low=(0.0, -150.0),
        task_high=(150.0, 150.0),
    )
    world = config.build_world()
    rng = np.random.default_rng(123)
    sample = config.task_box.low + rng.random((200_000, 2)) * config.task_box.extent
    ratio = np.mean([world.within_reach(p) for p in sample])
    assert ratio == pytest.approx(np.pi * 50.0**2 / 2 / (150.0 * 300.0), abs=0.005)

    draws = RngStreams(11).goals
    goals = [strategy_goal(config, None, draws)[0] for _ in range(20_000)]
    observed = np.mean([world.within_reach(g) for g in goals])
    assert observed == pytest.approx(ratio, abs=0.01)


def test_discovery_effect_on_short_reference_run():
    config = ExperimentConfig(
        strategy="sagg_riac",
        budget=12_000,
        seed=5,
        environment=EnvironmentSpec(type="arm", n_dof=15, rest_angle=0.15),
        task_low=(0.0, -150.0),
        task_high=(150.0, 150.0),
        burn_in_goals=10,
    )
    log, _ = run_with_memory(config)
    overall = reachable_fraction(log)
    assert overall > 2 * (np.pi * 50.0**2 / 2) / (150.0 * 300.0)


# -------------------------------------------------------------- comparisons

def test_compare_null_calibration_same_strategy():
    # The same strategy against itself (made distinct only by a label) must
    # not produce systematically significant one-sided p-values.
    base = arm_config(budget=800)
    twin = dataclasses.replace(base, strategy="sagg_random")
    goals = make_test_db(base.build_world(), 15, seed=31)
    result = compare_strategies([base, twin], [1, 2, 3, 4, 5, 6], [800], goals)
    p_values = [row.p_less for row in result.significance]
    assert all(p > 0.05 for p in p_values) or sum(p > 0.05 for p in p_values) >= len(p_values) / 2


def test_compare_outputs_are_job_count_invariant():
    base = arm_config(budget=400)
    other = dataclasses.replace(base, strategy="sagg_random")
    goals = make_test_db(base.build_world(), 10, seed=32)
    serial = compare_strategies([base, other], [1, 2], [400], goals, n_jobs=1)
    parallel = compare_strategies([base, other], [1, 2], [400], goals, n_jobs=2)
    assert [dataclasses.astuple(c) for c in serial.curves] == [
        dataclasses.astuple(c) for c in parallel.curves
    ]
    assert [dataclasses.astuple(s) for s in serial.significance] == [
        dataclasses.astuple(s) for s in parallel.significance
    ]


@pytest.mark.parametrize(
    "change, field",
    [
        (dict(environment=EnvironmentSpec(type="arm", n_dof=3, rest_angle=0.35)), "environment"),
        (dict(task_low=(0.0, -50.0)), "task_low"),
        (dict(task_high=(50.0, 60.0)), "task_high"),
    ],
)
def test_compare_rejects_configs_of_different_worlds(change, field):
    base = arm_config(budget=100)
    other = dataclasses.replace(base, strategy="sagg_random", **change)
    with pytest.raises(ValueError, match=f"differ in {field}"):
        compare_strategies([base, other], [1], [100], np.zeros((1, 2)))


def test_compare_rejects_a_checkpoint_past_a_budget_before_any_run(monkeypatch):
    import goalbabbling.evaluation as evaluation

    def no_run(job):
        raise AssertionError("a run started")

    monkeypatch.setattr(evaluation, "_one_run", no_run)
    base = arm_config(budget=300)
    other = dataclasses.replace(base, strategy="sagg_random", budget=200)
    with pytest.raises(ConfigError, match="checkpoint 250 exceeds the budget of 200"):
        compare_strategies([base, other], [1], [100, 250], np.zeros((1, 2)))


def test_compare_rejects_single_config():
    base = arm_config()
    with pytest.raises(ConfigError):
        compare_strategies([base], [1, 2], [100], np.zeros((1, 2)))


def test_compare_rejects_a_repeated_strategy():
    base = arm_config()
    with pytest.raises(ConfigError, match="duplicate strategy"):
        compare_strategies([base, dataclasses.replace(base, seed=2)], [1], [100], np.zeros((1, 2)))


@pytest.mark.parametrize(
    "seeds, goals",
    [([1], None), ([1], np.zeros((0, 2))), ([], np.zeros((1, 2)))],
    ids=["no-test-db", "empty-test-db", "no-seeds"],
)
def test_compare_without_test_goals_or_seeds_is_rejected_before_any_run(monkeypatch, seeds, goals):
    import goalbabbling.evaluation as evaluation

    def no_run(job):
        raise AssertionError("a run started")

    monkeypatch.setattr(evaluation, "_one_run", no_run)
    base = arm_config(budget=100)
    with pytest.raises(ConfigError):
        compare_strategies([base, dataclasses.replace(base, strategy="sagg_random")], seeds, [100], goals)


def test_default_checkpoints_clip_to_budget():
    from goalbabbling.evaluation import default_checkpoints

    assert default_checkpoints(30000) == [1000, 2000, 5000, 10000, 20000, 30000]
    assert default_checkpoints(3000) == [1000, 2000, 3000]
    assert default_checkpoints(500) == [500]
