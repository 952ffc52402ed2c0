import dataclasses
import math

import numpy as np
import pytest

from goalbabbling.competence import (
    CompetenceConfig,
    clip_to_gamma,
    competence_normalized,
    scaled_distance,
    scaled_distances,
)
from goalbabbling.config import bundled_config_path, load_config
from goalbabbling.experiment import competence_config
from goalbabbling.explorers import (
    BLOCKED,
    REACHED,
    TIMEOUT,
    ReachingBudget,
    _gammas,
    make_subgoals,
    reach_evolving,
    reach_evolving_lockstep,
    reach_fixed,
    rest_reset_policy,
)
from goalbabbling.kinematics import ArmGeometry, ArmWorld
from goalbabbling.memory import EvolvingMemory, FixedMemory
from reaching_reference import NoInserts, reference_reach_evolving, reference_reach_fixed

COMP = CompetenceConfig()


def two_dof_world():
    return ArmWorld(ArmGeometry.equal_links(2, total_length=50.0), rest_angle=0.35)


def seeded_memory(world, steps=500, seed=42, neighbors=8, support_radius=0.5):
    memory = EvolvingMemory(world.n_dof, 2, neighbors=neighbors, support_radius=support_radius)
    rng = np.random.default_rng(seed)
    alpha = world.rest_state()
    for _ in range(steps):
        delta = rng.uniform(-0.05, 0.05, world.n_dof)
        result = world.step(alpha, delta)
        memory.insert(alpha, result.alpha - alpha, result.displacement)
        alpha = result.alpha
    return memory


# ------------------------------------------------------------------ subgoals

def test_make_subgoals_direct_evaluation():
    points = make_subgoals(np.array([0.0, 0.0]), np.array([10.0, 0.0]), 5)
    np.testing.assert_allclose(points, [[2, 0], [4, 0], [6, 0], [8, 0], [10, 0]])


def test_make_subgoals_single_is_goal():
    (only,) = make_subgoals(np.array([1.0, 2.0]), np.array([5.0, 6.0]), 1)
    np.testing.assert_array_equal(only, [5.0, 6.0])


def test_make_subgoals_collinear():
    start = np.array([1.0, -2.0])
    goal = np.array([-3.0, 7.0])
    for point in make_subgoals(start, goal, 7):
        cross = (point - start)[0] * (goal - start)[1] - (point - start)[1] * (goal - start)[0]
        assert abs(cross) < 1e-9


# --------------------------------------------------------------- reset policy

def test_reset_every_attempt():
    assert all(rest_reset_policy(i, 1) for i in range(10))


def test_reset_alternate_attempts():
    assert [rest_reset_policy(i, 2) for i in range(4)] == [True, False, True, False]


def test_reset_every_third():
    assert [i for i in range(6) if rest_reset_policy(i, 3)] == [0, 3]


def test_reset_rejects_zero():
    with pytest.raises(ValueError):
        rest_reset_policy(0, 0)


# ------------------------------------------------------------- reach_evolving

def test_goal_at_current_position_is_reached_without_actions():
    world = two_dof_world()
    memory = EvolvingMemory(2, 2)
    goal = world.rest_effector()
    out = reach_evolving(world, memory, world.rest_state(), goal, ReachingBudget(velocity=1.0), COMP)
    assert out.terminated_by == REACHED
    assert out.micro_actions_used == 0
    assert out.gamma == 0.0


def test_seeded_memory_reaches_most_nearby_goals():
    # Empirical oracle: after 500 random micro-actions of experience, at
    # least 90% of goals at 0.3x the arm radius are reached within budget.
    world = two_dof_world()
    memory = seeded_memory(world)
    budget = ReachingBudget(velocity=1.0, explore_actions=10, prediction_error_max=0.5)
    rng = np.random.default_rng(1)
    goal_rng = np.random.default_rng(7)
    reached = 0
    for _ in range(50):
        angle = goal_rng.uniform(-math.pi, math.pi)
        goal = 15.0 * np.array([math.cos(angle), math.sin(angle)])
        out = reach_evolving(world, memory, world.rest_state(), goal, budget, COMP, rng=rng)
        reached += out.terminated_by == REACHED
    assert reached >= 45


def test_unreachable_goal_times_out_or_blocks_with_low_gamma():
    world = two_dof_world()
    memory = seeded_memory(world, steps=300)
    rng = np.random.default_rng(2)
    goal = np.array([90.0, 0.0])  # outside the 50-unit disk
    for window in (0, 3):
        budget = ReachingBudget(velocity=1.0, explore_actions=5, blocking_window=window)
        out = reach_evolving(world, memory, world.rest_state(), goal, budget, COMP, rng=rng)
        assert out.terminated_by in (TIMEOUT, BLOCKED)
        assert out.gamma < COMP.reached_tolerance


def test_micro_action_budget_is_respected():
    world = two_dof_world()
    memory = EvolvingMemory(2, 2)
    rng = np.random.default_rng(3)
    goal = np.array([0.0, 40.0])
    budget = ReachingBudget(velocity=1.0, explore_actions=7)
    start = world.rest_effector()
    out = reach_evolving(world, memory, world.rest_state(), goal, budget, COMP, rng=rng)
    cap = budget.max_steps(np.linalg.norm(start - goal))
    # Exploration bursts stop exactly at the cap.
    assert out.micro_actions_used <= cap
    assert out.terminated_by == TIMEOUT


def test_allowance_truncates_attempt():
    world = two_dof_world()
    memory = EvolvingMemory(2, 2)
    rng = np.random.default_rng(4)
    out = reach_evolving(
        world, memory, world.rest_state(), np.array([0.0, 40.0]),
        ReachingBudget(velocity=1.0, explore_actions=7), COMP, rng=rng, allowance=5,
    )
    assert out.micro_actions_used == 5


def test_memory_grows_once_per_micro_action():
    world = two_dof_world()
    memory = EvolvingMemory(2, 2)
    rng = np.random.default_rng(5)
    out = reach_evolving(
        world, memory, world.rest_state(), np.array([10.0, 30.0]),
        ReachingBudget(velocity=1.0, explore_actions=6), COMP, rng=rng,
    )
    assert len(memory) == out.micro_actions_used


def test_hooks_called_once_per_micro_action():
    world = two_dof_world()
    memory = EvolvingMemory(2, 2)
    rng = np.random.default_rng(6)
    seen = []
    out = reach_evolving(
        world, memory, world.rest_state(), np.array([10.0, 30.0]),
        ReachingBudget(velocity=1.0, explore_actions=6), COMP, rng=rng, hooks=seen.append,
    )
    assert len(seen) == out.micro_actions_used


def test_blocking_counts_consecutive_stalled_phases():
    # An empty memory forces an exploration phase on every loop; zero
    # explorative actions mean no progress, so the attempt must end blocked
    # rather than timing out.
    world = two_dof_world()
    memory = EvolvingMemory(2, 2)
    budget = ReachingBudget(velocity=1.0, explore_actions=0, blocking_window=3)
    out = reach_evolving(world, memory, world.rest_state(), np.array([0.0, 40.0]), budget, COMP)
    assert out.terminated_by == BLOCKED
    assert out.micro_actions_used == 0


def test_no_model_and_no_exploration_ends_blocked_at_once():
    # Neither a local model nor explorative actions can move the arm; with
    # the blocking check off the attempt must still end, not spin.
    world = two_dof_world()
    budget = ReachingBudget(velocity=1.0, explore_actions=0, blocking_window=0)
    out = reach_evolving(world, EvolvingMemory(2, 2), world.rest_state(), np.array([0.0, 40.0]), budget, COMP)
    assert out.terminated_by == BLOCKED
    assert out.micro_actions_used == 0
    assert np.array_equal(out.final_state, world.rest_state())


def test_exploit_mode_inserts_nothing():
    world = two_dof_world()
    memory = seeded_memory(world, steps=200)
    size = len(memory)
    budget = ReachingBudget(velocity=1.0, explore_actions=0, blocking_window=1)
    (out,) = reach_evolving_lockstep(world, memory, world.rest_state(), np.array([[5.0, 30.0]]), budget, COMP)
    assert len(memory) == size
    assert out.terminated_by in (REACHED, TIMEOUT, BLOCKED)


# ---------------------------------------------------------------- reach_fixed

class LinearWorld:
    """Duck-typed episodic world with an exactly linear parameter-to-effect map."""

    def __init__(self, mapping):
        self.mapping = mapping
        self.param_dim = mapping.shape[1]
        self.effect_dim = mapping.shape[0]

    def rollout(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.mapping @ theta

    def rollout_many(self, thetas):
        return np.array([self.rollout(theta) for theta in thetas])

    def rest_effect(self):
        return self.mapping @ np.full(self.param_dim, 0.5)


def linear_world(seed=3):
    rng = np.random.default_rng(seed)
    return LinearWorld(rng.normal(size=(2, 4))), rng


def test_zero_noise_exploration_is_stationary():
    world, rng = linear_world()
    memory = FixedMemory(4, 2)
    far = np.array([50.0, 50.0])  # force the inefficiency path
    memory.insert(np.full(4, 0.25), world.rollout(np.full(4, 0.25)))
    seen = []
    budget = ReachingBudget(velocity=1.0, explore_actions=5, explore_noise=0.0)
    reach_fixed(world, memory, far, budget, COMP, rng=rng, hooks=seen.append)
    for outcome in seen[1:]:
        np.testing.assert_array_equal(outcome, seen[1])


def test_goal_already_in_memory_is_reached_without_exploration():
    world, rng = linear_world()
    memory = FixedMemory(4, 2, inverse_candidates=3, inverse_neighborhood=5)
    thetas = rng.random((30, 4))
    for theta in thetas:
        memory.insert(theta, world.rollout(theta))
    goal = world.rollout(thetas[4])
    out = reach_fixed(world, memory, goal, ReachingBudget(velocity=1.0, explore_actions=10), COMP, rng=rng)
    assert out.terminated_by == REACHED
    assert out.micro_actions_used == 1


def test_linear_map_goals_solved_within_tolerance():
    # Empirical oracle: 200 seeded rollouts, in-span goals; at least 90% of
    # 50 trials end below 5% of the outcome-space diameter.
    world, rng = linear_world()
    mapping = world.mapping
    memory = FixedMemory(4, 2, inverse_candidates=5, inverse_neighborhood=10)
    for _ in range(200):
        theta = rng.random(4)
        memory.insert(theta, world.rollout(theta))
    corners = np.array(
        [mapping @ c for c in np.stack(np.meshgrid(*[[0, 1]] * 4), -1).reshape(-1, 4)]
    )
    diameter = np.linalg.norm(corners.max(0) - corners.min(0))
    goal_rng = np.random.default_rng(9)
    budget = ReachingBudget(velocity=1.0, explore_actions=20)
    good = 0
    for _ in range(50):
        goal = mapping @ goal_rng.random(4)
        out = reach_fixed(world, memory, goal, budget, COMP, rng=goal_rng)
        good += np.linalg.norm(out.final - goal) < 0.05 * diameter
    assert good >= 45


def test_fixed_attempt_returns_best_rollout_and_grows_memory():
    world, rng = linear_world(seed=11)
    memory = FixedMemory(4, 2)
    memory.insert(np.full(4, 0.9), world.rollout(np.full(4, 0.9)))
    goal = np.array([30.0, -30.0])  # unreachable: exploration runs fully
    seen = []
    budget = ReachingBudget(velocity=1.0, explore_actions=12, explore_noise=0.5)
    before = len(memory)
    out = reach_fixed(world, memory, goal, budget, COMP, rng=rng, hooks=seen.append)
    assert len(memory) - before == out.micro_actions_used == len(seen)
    distances = [np.linalg.norm(y - goal) for y in seen]
    assert np.linalg.norm(out.final - goal) == pytest.approx(min(distances))


def test_fixed_rollout_allowance():
    world, rng = linear_world(seed=12)
    memory = FixedMemory(4, 2)
    out = reach_fixed(
        world, memory, np.array([40.0, 40.0]),
        ReachingBudget(velocity=1.0, explore_actions=50), COMP, rng=rng, allowance=3,
    )
    assert out.micro_actions_used == 3


# ------------------------------------------------------------ block competence

@pytest.mark.parametrize(
    "competence",
    [COMP, CompetenceConfig(reached_tolerance=-0.3, min_start_distance=0.5, dim_scales=np.array([0.5, 2.0]))],
)
def test_gammas_equal_the_scalar_competence(competence):
    # Goals from on top of the start (below min_start_distance) to far away,
    # points from on the goal to beyond the start.
    rng = np.random.default_rng(0)
    start = np.array([1.0, -2.0])
    goals = start + rng.normal(size=(300, 2)) * rng.choice([1e-4, 0.3, 3.0], size=(300, 1))
    points = goals + rng.normal(size=(300, 2)) * rng.choice([0.0, 0.01, 1.0, 10.0], size=(300, 1))
    expected = [clip_to_gamma(competence_normalized(g, p, start, competence), competence) for g, p in zip(goals, points)]
    start_distance = scaled_distances(start, goals, competence)
    assert np.array_equal(_gammas(goals, points, start_distance, competence), expected)
    for goal, point, gamma in zip(goals, points, expected):
        assert _gammas(goal, point[None], scaled_distance(start, goal, competence), competence)[0] == gamma
    kinds = {0.0, -1.0}
    assert (start_distance < competence.min_start_distance).any()
    assert kinds <= set(expected) and any(g not in kinds for g in expected)


# ------------------------------------------------- block bursts vs one step at a time

def _reach_setup(reference, memory, spec, events):
    """The memory a reach gets and its extra options: the reference learns
    unless the case says otherwise and reports `events`; a case without
    learning gives the package's reach a memory that drops its inserts."""
    learn = spec.get("learn", True)
    if reference:
        return memory, dict(learn=learn, events=events)
    return (memory if learn else NoInserts(memory)), {}


def _memory_state(memory):
    n = len(memory)
    index = memory._index
    tree_size = index._tree.n if index._tree is not None else 0
    return index.points.copy(), memory._actions[:n].copy(), memory._effects[:n].copy(), index._tree_n, tree_size


def _far_memory(world, config, count, seed=0):
    """`count` exemplars at random joint states, none of them near the rest
    state, so reaches from rest start without a local model."""
    memory = EvolvingMemory(world.n_dof, 2, neighbors=config.regression_neighbors, support_radius=config.support_radius)
    rng = np.random.default_rng(seed)
    low, high = world.geometry.joint_low, world.geometry.joint_high
    for _ in range(count):
        alpha = rng.uniform(low, high)
        while np.linalg.norm(alpha - world.rest_state()) < 4 * config.support_radius:
            alpha = rng.uniform(low, high)
        result = world.step(alpha, rng.uniform(-0.05, 0.05, world.n_dof))
        memory.insert(alpha, result.alpha - alpha, result.displacement)
    return memory


BURST_CASES = {
    # The tolerance counts a goal reached once the arm halves its distance,
    # so random bursts reach goals and stop part-way through.
    "reached mid-burst": dict(
        budget=dict(velocity=0.25), competence=CompetenceConfig(reached_tolerance=-0.8), distance=(2.0, 8.0)
    ),
    "allowance cuts a burst": dict(allowance=7),
    # Goals out of reach, so the arm stalls and the blocking check ends reaches.
    "blocking window": dict(budget=dict(blocking_window=1), memory=("near", 300), distance=(60.0, 110.0)),
    "no learning": dict(learn=False, memory=("near", 300)),
    "no hooks": dict(hooks=False),
    "rebuild inside a burst": dict(memory=("far", 505)),
    "clipped and clamped": dict(budget=dict(explore_scale=0.3), start="near limit"),
}


@pytest.mark.parametrize("config_name", ["arm2_demo", "arm15_mid", "arm15_big"])
@pytest.mark.parametrize("case", sorted(BURST_CASES))
def test_block_bursts_match_one_step_at_a_time(config_name, case):
    spec = BURST_CASES[case]
    config = load_config(bundled_config_path(config_name))
    world = config.build_world()
    settings = dict(
        velocity=config.velocity,
        timeout_factor=config.timeout_factor,
        explore_actions=20,
        explore_scale=config.explore_scale,
        prediction_error_max=config.mispredict_threshold,
    )
    budget = ReachingBudget(**{**settings, **spec.get("budget", {})})
    competence = spec.get("competence", COMP)
    kind, size = spec.get("memory", ("empty", 0))
    make_memory = {
        "empty": lambda: EvolvingMemory(world.n_dof, 2, config.regression_neighbors, config.support_radius),
        "near": lambda: seeded_memory(world, size, 0, config.regression_neighbors, config.support_radius),
        "far": lambda: _far_memory(world, config, size),
    }[kind]
    alpha = world.rest_state()
    if spec.get("start") == "near limit":
        alpha = world.geometry.joint_high - 0.02
    rng = np.random.default_rng(len(case) + world.n_dof)
    events, ends, rebuilt = [], set(), False
    for trial in range(8):
        low, high = spec.get("distance", (5.0, 60.0))
        angle = rng.uniform(-math.pi, math.pi)
        goal = world.forward(alpha) + rng.uniform(low, high) * np.array([math.cos(angle), math.sin(angle)])
        runs = []
        for reach in (reference_reach_evolving, reach_evolving):
            memory = make_memory()
            stream = np.random.default_rng(1000 + trial)
            points = []
            target, options = _reach_setup(reach is reference_reach_evolving, memory, spec, events)
            out = reach(
                world, target, alpha, goal, budget, competence, rng=stream,
                hooks=None if spec.get("hooks") is False else points.append,
                allowance=spec.get("allowance"), **options,
            )
            runs.append((out, _memory_state(memory), points, stream.bit_generator.state))
        (ref, ref_memory, ref_points, ref_state), (got, got_memory, got_points, got_state) = runs
        for field in ("final", "final_state"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
        assert (got.gamma, got.micro_actions_used, got.terminated_by) == (
            ref.gamma, ref.micro_actions_used, ref.terminated_by
        )
        for got_part, ref_part in zip(got_memory, ref_memory):
            assert np.array_equal(got_part, ref_part)
        assert len(got_points) == len(ref_points)
        assert all(np.array_equal(a, b) for a, b in zip(got_points, ref_points))
        assert got_state == ref_state
        ends.add(got.terminated_by)
        rebuilt |= got_memory[4] > ref_memory[4] - got.micro_actions_used
    assert events  # every case runs bursts
    if case == "reached mid-burst":
        assert "reached mid-burst" in events
    if case == "allowance cuts a burst":
        assert "cut" in events
    if case == "blocking window":
        assert BLOCKED in ends
    if case == "clipped and clamped":
        assert "clipped" in events and "clamped" in events
    if case == "rebuild inside a burst":
        assert rebuilt


# ------------------------------------------- block hill-climb vs one rollout at a time

def _fixed_memory_state(memory):
    state = [memory.params.copy(), memory.effects.copy()]
    for index in (memory._effect_index, memory._param_index):
        state += [index._tree_n, index._tree.n if index._tree is not None else 0]
    return state


FIXED_CASES = {
    # The tolerance counts a goal reached once the outcome halves its
    # distance, so hill-climbs reach goals part-way through their block.
    "reached mid-block": dict(tolerance=-0.5),
    "improved mid-block": dict(),
    # Rare on the linear double, so more goals.
    "no improvement": dict(trials=40),
    "allowance of one": dict(allowance=1),
    "allowance cuts the block": dict(allowance=4),
    "no learning": dict(learn=False),
    "no hooks": dict(hooks=False),
    "empty memory": dict(memory=0),
    "no noise": dict(budget=dict(explore_noise=0.0)),
    "rebuild inside a block": dict(memory=505),
}


def _fixed_world(name):
    """The world, its competence, a goal sampler and the world whose
    outcomes fill the memory, for a LinearWorld double or a bundled
    episodic config.

    A linear map's local inverse is exact, so the double's memory holds the
    outcomes of another map: its predictions miss and hill-climbs run.
    """
    if name == "linear":
        world, _ = linear_world(seed=5)

        def sample_goal(rng):
            return world.mapping @ rng.uniform(-0.5, 1.5, world.param_dim)

        return world, COMP, sample_goal, linear_world(seed=6)[0]
    config = load_config(bundled_config_path(name))
    world = config.build_world()
    return world, competence_config(config), config.task_box.sample, world


@pytest.mark.parametrize("world_name", ["linear", "map8_mid"])
@pytest.mark.parametrize("case", sorted(FIXED_CASES))
def test_block_hill_climb_matches_one_rollout_at_a_time(world_name, case):
    spec = FIXED_CASES[case]
    world, competence, sample_goal, fill_world = _fixed_world(world_name)
    if "tolerance" in spec:
        competence = dataclasses.replace(competence, reached_tolerance=spec["tolerance"])
    budget = ReachingBudget(velocity=1.0, explore_actions=10, **spec.get("budget", {}))
    size = spec.get("memory", 40)

    def make_memory():
        memory = FixedMemory(world.param_dim, 2, inverse_candidates=5, inverse_neighborhood=10)
        fill = np.random.default_rng(17)
        for _ in range(size):
            theta = fill.random(world.param_dim)
            memory.insert(theta, fill_world.rollout(theta))
        return memory

    rng = np.random.default_rng(len(case))
    events, rebuilt = [], False
    for trial in range(spec.get("trials", 12)):
        goal = sample_goal(rng)
        runs = []
        for reach in (reference_reach_fixed, reach_fixed):
            memory = make_memory()
            stream = np.random.default_rng(2000 + trial)
            points = []
            target, options = _reach_setup(reach is reference_reach_fixed, memory, spec, events)
            out = reach(
                world, target, goal, budget, competence, rng=stream,
                hooks=None if spec.get("hooks") is False else points.append,
                allowance=spec.get("allowance"), **options,
            )
            runs.append((out, _fixed_memory_state(memory), points, stream.bit_generator.state))
        (ref, ref_memory, ref_points, ref_state), (got, got_memory, got_points, got_state) = runs
        for field in ("final", "final_state"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
        assert (got.gamma, got.micro_actions_used, got.terminated_by) == (
            ref.gamma, ref.micro_actions_used, ref.terminated_by
        )
        assert type(got.gamma) is float
        for got_part, ref_part in zip(got_memory, ref_memory):
            assert np.array_equal(got_part, ref_part)
        assert len(got_points) == len(ref_points)
        assert all(np.array_equal(a, b) for a, b in zip(got_points, ref_points))
        assert got_state == ref_state
        rebuilt |= got_memory[2] > size
    expected = {
        "reached mid-block": "reached mid-block",
        "improved mid-block": "improved mid-block",
        "no improvement": "no improvement",
        "allowance of one": "no room",
        "allowance cuts the block": "cut",
        "empty memory": "random first theta",
        "no noise": "no improvement",
    }.get(case, "improved mid-block")
    assert expected in events
    if case == "rebuild inside a block":
        assert rebuilt
    if case == "no learning":
        assert len(memory) == size
    if case == "no noise":
        assert "improved mid-block" not in events
