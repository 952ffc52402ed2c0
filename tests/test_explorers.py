import math

import numpy as np
import pytest

from goalbabbling.competence import CompetenceConfig
from goalbabbling.explorers import (
    BLOCKED,
    REACHED,
    TIMEOUT,
    ReachingBudget,
    make_subgoals,
    reach_evolving,
    reach_fixed,
    rest_reset_policy,
)
from goalbabbling.kinematics import ArmGeometry, ArmWorld
from goalbabbling.memory import EvolvingMemory, FixedMemory

COMP = CompetenceConfig()


def two_dof_world():
    return ArmWorld(ArmGeometry.equal_links(2, total_length=50.0), rest_angle=0.35)


def seeded_memory(world, steps=500, seed=42):
    memory = EvolvingMemory(world.n_dof, 2, neighbors=8, support_radius=0.5)
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
    out = reach_evolving(
        world, memory, world.rest_state(), np.array([5.0, 30.0]), budget, COMP, learn=False
    )
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
