import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalbabbling.kinematics import (
    ArmGeometry,
    ArmWorld,
    SynergyWorld,
    forward_kinematics,
    forward_kinematics_many,
)
from goalbabbling.spaces import Box


def oracle_fk(lengths, alphas):
    """Independent plain-math chain evaluation (no numpy vectorization)."""
    acc = 0.0
    x = y = 0.0
    for length, angle in zip(lengths, alphas):
        acc += angle
        x += length * math.cos(acc)
        y += length * math.sin(acc)
    return np.array([x, y])


def test_fk_fully_extended():
    geometry = ArmGeometry.equal_links(2, total_length=50.0)
    np.testing.assert_allclose(forward_kinematics(geometry, np.zeros(2)), [50.0, 0.0], atol=1e-12)


def test_fk_right_angle():
    geometry = ArmGeometry.equal_links(2, total_length=50.0)
    np.testing.assert_allclose(
        forward_kinematics(geometry, np.array([math.pi / 2, 0.0])), [0.0, 50.0], atol=1e-12
    )


def test_fk_rest_pose_matches_high_precision_fixture():
    # Frozen from a 50-digit evaluation of the chain sum for 15 equal links
    # totaling 50 units, every joint at +0.35 rad.
    geometry = ArmGeometry.equal_links(15, total_length=50.0)
    world = ArmWorld(geometry, rest_angle=0.35)
    expected = np.array([-8.9098408665703193252, 3.1677142233305126247])
    np.testing.assert_allclose(world.rest_effector(), expected, rtol=1e-12)


def test_fk_random_poses_match_oracle():
    rng = np.random.default_rng(3)
    geometry = ArmGeometry.golden_links(7, total_length=50.0)
    for _ in range(50):
        alpha = rng.uniform(-math.pi, math.pi, 7)
        np.testing.assert_allclose(
            forward_kinematics(geometry, alpha), oracle_fk(geometry.link_lengths, alpha), rtol=1e-10, atol=1e-10
        )


def test_batched_fk_equals_single_fk_bitwise():
    rng = np.random.default_rng(4)
    for n_dof in (2, 7, 15):
        geometry = ArmGeometry.golden_links(n_dof, total_length=50.0)
        alphas = rng.uniform(-math.pi, math.pi, (64, n_dof))
        expected = np.array([forward_kinematics(geometry, alpha) for alpha in alphas])
        assert np.array_equal(forward_kinematics_many(geometry, alphas), expected)


def test_golden_links_sum_to_total_and_decrease():
    geometry = ArmGeometry.golden_links(15, total_length=50.0)
    assert geometry.total_length == pytest.approx(50.0)
    assert np.all(np.diff(geometry.link_lengths) < 0)


def clamps(world, alpha, delta) -> bool:
    """Whether a step by `delta` from `alpha` hits a joint limit."""
    raw = alpha + delta
    return bool(np.any(np.clip(raw, world.geometry.joint_low, world.geometry.joint_high) != raw))


def test_step_identity():
    world = ArmWorld(ArmGeometry.equal_links(2, total_length=50.0))
    stepped, effector = world.step(np.zeros(2), np.zeros(2))
    np.testing.assert_array_equal(stepped, np.zeros(2))
    np.testing.assert_allclose(effector - world.forward(np.zeros(2)), [0.0, 0.0], atol=0)
    assert not clamps(world, np.zeros(2), np.zeros(2))


def test_step_matches_finite_difference_of_oracle():
    # First-order response of the extended 2-link arm to a tiny base rotation.
    world = ArmWorld(ArmGeometry.equal_links(2, total_length=50.0))
    eps = 1e-6
    _, effector = world.step(np.zeros(2), np.array([eps, 0.0]))
    displacement = effector - world.forward(np.zeros(2))
    expected = oracle_fk([25.0, 25.0], [eps, 0.0]) - oracle_fk([25.0, 25.0], [0.0, 0.0])
    np.testing.assert_allclose(displacement, expected, rtol=1e-12, atol=1e-15)
    # First-order prediction: the quadratic remainder is O(L * eps^2).
    np.testing.assert_allclose(displacement, [0.0, 50.0 * eps], rtol=1e-6, atol=1e-9)


def test_step_clamps_at_joint_limit():
    geometry = ArmGeometry.equal_links(2, total_length=50.0, joint_limit=1.0)
    world = ArmWorld(geometry, rest_angle=0.0)
    stepped, effector = world.step(np.array([1.0, 0.0]), np.array([0.1, 0.0]))
    assert clamps(world, np.array([1.0, 0.0]), np.array([0.1, 0.0]))
    assert stepped[0] == 1.0
    assert effector.tobytes() == world.forward(stepped).tobytes()


@pytest.mark.parametrize("joint_limit", [math.pi, 0.4])  # 0.4 clamps most steps
def test_step_bounds_long_actions_as_its_batch_forms_do_bit_for_bit(joint_limit):
    world = ArmWorld(ArmGeometry.golden_links(15, total_length=50.0, joint_limit=joint_limit), rest_angle=0.0)
    rng = np.random.default_rng(5)
    # Mostly longer than max_action_norm (0.2); zero rows stay zero.
    deltas = rng.uniform(-0.15, 0.15, (64, world.n_dof))
    deltas[::16] = 0.0
    alphas = rng.uniform(-joint_limit, joint_limit, (64, world.n_dof))
    drawn = deltas.copy()
    many_alphas, many_effectors = world.step_many(alphas, deltas)
    start = world.rest_state()
    seq_alphas, seq_effectors = world.step_sequence(start, deltas, world.rest_effector())
    assert np.array_equal(deltas, drawn)  # the batch forms leave their input alone
    alpha = start
    for i, delta in enumerate(deltas):
        one, one_effector = world.step(alphas[i], delta)
        assert one.tobytes() == many_alphas[i].tobytes()
        assert one_effector.tobytes() == many_effectors[i].tobytes()
        applied = one - alphas[i]
        assert math.sqrt(float(applied @ applied)) <= world.max_action_norm * (1 + 1e-12)
        alpha, effector = world.step(alpha, delta)
        assert alpha.tobytes() == seq_alphas[i + 1].tobytes()
        assert effector.tobytes() == seq_effectors[i + 1].tobytes()
    assert np.linalg.norm(deltas, axis=1).max() > 2 * world.max_action_norm


@pytest.mark.parametrize("low", [-0.3, 0.0])
def test_step_sequence_that_leaves_the_joint_limits_mid_burst_equals_single_steps(low):
    # Joint 0 stays inside its limits for four steps, passes the upper one
    # at the fifth and walks on clamped.  Joint 1 rests at -0.0 and moves by
    # -0.0, so with a lower limit of 0.0 the clamp turns its -0.0 into 0.0
    # from the first step on.
    world = ArmWorld(ArmGeometry(np.full(3, 10.0), np.full(3, low), np.full(3, 0.3)), rest_angle=-0.0)
    deltas = np.array([[0.05, -0.0, 0.01]] * 4 + [[0.15, -0.0, 0.01]] + [[-0.05, -0.0, -0.02]] * 3)
    alpha, effector = world.rest_state(), world.rest_effector()
    seq_alphas, seq_effectors = world.step_sequence(alpha, deltas, effector)
    for i, delta in enumerate(deltas):
        alpha, effector = world.step(alpha, delta)
        assert alpha.tobytes() == seq_alphas[i + 1].tobytes()
        assert effector.tobytes() == seq_effectors[i + 1].tobytes()
    assert seq_alphas[4, 0] < 0.3 == seq_alphas[5, 0]
    assert np.signbit(seq_alphas[1:, 1]).all() == (low < 0.0)


def test_step_composition_is_linear_in_state_without_clamping():
    world = ArmWorld(ArmGeometry.equal_links(3, total_length=50.0))
    delta = np.array([0.01, -0.02, 0.015])
    alpha = np.array([0.2, 0.3, -0.1])
    stepped = alpha
    for _ in range(4):
        stepped, _ = world.step(stepped, delta)
    np.testing.assert_allclose(stepped, alpha + 4 * delta, atol=1e-12)


def test_rollout_midpoint_is_rest_pose():
    geometry = ArmGeometry.equal_links(5, total_length=50.0)
    world = SynergyWorld(geometry)
    np.testing.assert_allclose(world.rollout(np.full(5, 0.5)), forward_kinematics(geometry, np.zeros(5)), atol=1e-12)


def test_rollout_corner_hand_value():
    geometry = ArmGeometry.equal_links(2, total_length=50.0, joint_limit=math.pi / 2)
    world = SynergyWorld(geometry)
    np.testing.assert_allclose(world.rollout(np.array([1.0, 1.0])), [-25.0, 25.0], atol=1e-12)


def test_rollout_matches_high_precision_fixtures():
    # Frozen 50-digit chain evaluations for 2 links of 25, limits [-pi/2, pi/2].
    geometry = ArmGeometry.equal_links(2, total_length=50.0, joint_limit=math.pi / 2)
    world = SynergyWorld(geometry)
    fixtures = [
        ((0.25, 0.75), (42.67766952966368811, -17.67766952966368811)),
        ((0.9, 0.1), (32.725424859373685603, 23.776412907378839303)),
        ((0.123456, 0.654321), (28.606010819651993178, -39.212859738386169514)),
    ]
    for theta, expected in fixtures:
        np.testing.assert_allclose(world.rollout(np.array(theta)), expected, rtol=1e-12)


def test_rollout_is_fk_of_rescaled_theta_exactly():
    geometry = ArmGeometry.equal_links(6, total_length=50.0)
    world = SynergyWorld(geometry)
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.random(6)
        assert np.array_equal(world.rollout(theta), forward_kinematics(geometry, world.rescale(theta)))


def test_rollout_rejects_out_of_range_theta():
    world = SynergyWorld(ArmGeometry.equal_links(3, total_length=50.0))
    with pytest.raises(ValueError):
        world.rollout(np.array([0.5, 1.2, 0.5]))


def test_batched_rollout_equals_single_rollouts_bitwise():
    world = SynergyWorld(ArmGeometry.golden_links(8, total_length=50.0))
    rng = np.random.default_rng(12)
    thetas = np.vstack([rng.random((40, 8)), np.zeros(8), np.ones(8), np.full(8, 0.5)])
    outcomes = world.rollout_many(thetas)
    assert outcomes.shape == (len(thetas), 2)
    for theta, outcome in zip(thetas, outcomes):
        assert np.array_equal(outcome, world.rollout(theta))
    assert world.rollout_many(np.zeros((0, 8))).shape == (0, 2)


@pytest.mark.parametrize(
    "thetas",
    [np.full(3, 0.5), np.full((2, 4), 0.5), np.full((2, 2), 0.5), np.full((1, 2, 3), 0.5),
     np.array([[0.5, 0.5, 0.5], [0.5, 1.2, 0.5]]), np.array([[0.5, -0.1, 0.5]])],
)
def test_batched_rollout_rejects_what_rollout_rejects(thetas):
    world = SynergyWorld(ArmGeometry.equal_links(3, total_length=50.0))
    with pytest.raises(ValueError):
        world.rollout_many(thetas)


def test_reset_is_idempotent_and_configured():
    world = ArmWorld(ArmGeometry.equal_links(4, total_length=50.0), rest_angle=0.35)
    first = world.rest_state()
    second = world.rest_state()
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(first, np.full(4, 0.35))
    first[0] = 99.0  # copies must not alias the world's state
    np.testing.assert_array_equal(world.rest_state(), np.full(4, 0.35))


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    delta=st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=4),
)
def test_fk_lipschitz_bound(alpha, delta):
    geometry = ArmGeometry.equal_links(4, total_length=50.0)
    a = np.array(alpha)
    d = np.array(delta)
    jump = np.linalg.norm(forward_kinematics(geometry, a + d) - forward_kinematics(geometry, a))
    assert jump <= geometry.total_length * np.abs(d).sum() + 1e-9


@settings(max_examples=50, deadline=None)
@given(alpha=st.lists(st.floats(-math.pi, math.pi), min_size=5, max_size=5))
def test_fk_stays_in_reachability_disk(alpha):
    geometry = ArmGeometry.golden_links(5, total_length=50.0)
    point = forward_kinematics(geometry, np.array(alpha))
    assert np.linalg.norm(point) <= geometry.total_length + 1e-9


def test_within_reach_respects_disk_and_task_bounds():
    box = Box(np.array([0.0, -150.0]), np.array([150.0, 150.0]))
    world = ArmWorld(ArmGeometry.equal_links(15, total_length=50.0), task_bounds=box)
    assert world.within_reach(np.array([30.0, 30.0]))
    assert not world.within_reach(np.array([49.0, 49.0]))  # outside the disk
    assert not world.within_reach(np.array([-30.0, 30.0]))  # outside the box
