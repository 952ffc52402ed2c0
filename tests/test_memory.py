import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalbabbling.memory import (
    EmptyMemoryError,
    EvolvingMemory,
    FixedMemory,
    LocalLinearModel,
    NearestIndex,
    SensorimotorEntry,
)


def linear_scan(points, key, k):
    """Brute-force k-NN oracle."""
    d = np.linalg.norm(points - key, axis=1)
    order = np.argsort(d, kind="stable")[:k]
    return order, d[order]


# --------------------------------------------------------------------- index

def test_single_entry_is_nearest_for_any_key():
    index = NearestIndex(3)
    index.add(np.array([1.0, 2.0, 3.0]))
    for key in (np.zeros(3), np.full(3, 100.0)):
        idx, _ = index.query(key, 1)
        assert list(idx) == [0]


def test_query_on_empty_memory_raises():
    with pytest.raises(EmptyMemoryError):
        NearestIndex(2).query(np.zeros(2), 1)


def test_k_larger_than_size_saturates():
    index = NearestIndex(2)
    index.add(np.array([0.0, 0.0]))
    index.add(np.array([1.0, 0.0]))
    idx, dist = index.query(np.zeros(2), 10)
    assert len(idx) == 2
    assert list(dist) == sorted(dist)


def test_duplicate_keys_are_both_retained():
    memory = EvolvingMemory(2, 2)
    entry = (np.array([1.0, 1.0]), np.array([0.1, 0.1]), np.array([0.5, 0.5]))
    memory.insert(*entry)
    memory.insert(*entry)
    assert len(memory) == 2
    assert len(memory.nearest(np.array([1.0, 1.0]), 2)) == 2


def test_exact_queries_match_linear_scan_across_rebuilds():
    # Enough inserts to force several kd-tree rebuilds, queries interleaved.
    rng = np.random.default_rng(5)
    index = NearestIndex(4, rebuild_every=128)
    points = rng.normal(size=(2000, 4))
    for point in points:
        index.add(point)
    for key in rng.normal(size=(1000, 4)):
        idx, dist = index.query(key, 7)
        oracle_idx, oracle_dist = linear_scan(points, key, 7)
        np.testing.assert_allclose(dist, oracle_dist, rtol=1e-12)
        assert set(idx) == set(oracle_idx)


@pytest.mark.parametrize(
    "size",
    [5, 16, 23, 40],  # tail only, tree only (empty tail), tree plus tail, two rebuilds plus tail
)
def test_query_many_equals_query_row_by_row(size):
    # Points on a coarse grid, keys on and off it: many exact distance ties,
    # also at the k-th neighbour, and duplicated points.
    rng = np.random.default_rng(size)
    index = NearestIndex(2, rebuild_every=16)
    for point in rng.integers(0, 3, (size, 2)).astype(float):
        index.add(point)
    keys = np.vstack([rng.integers(0, 3, (30, 2)).astype(float), rng.normal(1.0, 1.0, (30, 2))])
    for k in (1, 3, 7, size, size + 5):
        idx, dist = index.query_many(keys, k)
        for row, key in enumerate(keys):
            one_idx, one_dist = index.query(key, k)
            assert np.array_equal(idx[row], one_idx)
            assert np.array_equal(dist[row], one_dist)


def test_query_many_on_empty_index_raises():
    with pytest.raises(EmptyMemoryError):
        NearestIndex(2).query_many(np.zeros((3, 2)), 1)


def test_local_pseudo_inverses_equal_single_fits_bitwise():
    rng = np.random.default_rng(9)
    memory = EvolvingMemory(3, 2, neighbors=8, support_radius=0.6)
    for _ in range(700):
        context = rng.uniform(-1.0, 1.0, 3)
        action = rng.normal(0.0, 0.1, 3)
        memory.insert(context, action, rng.normal(size=(2, 3)) @ action)
    contexts = rng.uniform(-1.3, 1.3, (80, 3))
    pinvs, fitted = memory.local_pseudo_inverses(contexts)
    assert 0 < fitted.sum() < len(contexts)
    for row, context in enumerate(contexts):
        model = memory.local_jacobian(context)
        assert fitted[row] == (model is not None)
        expected = model.pseudo_inverse if model is not None else np.zeros((3, 2))
        assert np.array_equal(pinvs[row], expected)


def test_insert_nearest_round_trip():
    memory = EvolvingMemory(3, 2)
    rng = np.random.default_rng(9)
    contexts = rng.normal(size=(50, 3))
    for c in contexts:
        memory.insert(c, rng.normal(size=3), rng.normal(size=2))
    for c in contexts:
        (entry,) = memory.nearest(c, 1)
        np.testing.assert_array_equal(entry.context, c)


def test_insert_rejects_dimension_mismatch():
    memory = EvolvingMemory(3, 2)
    with pytest.raises(ValueError):
        memory.insert(np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        memory.insert(np.zeros(3), np.zeros(3), np.zeros(3))


# ------------------------------------------------------------ local jacobian

def _fill_linear(memory, jacobian, contexts, actions):
    for context, action in zip(contexts, actions):
        memory.insert(context, action, jacobian @ action)


def test_local_jacobian_recovers_known_linear_map():
    rng = np.random.default_rng(2)
    true_j = rng.normal(size=(2, 4))
    memory = EvolvingMemory(4, 2, neighbors=32, support_radius=10.0, min_support=4)
    contexts = rng.normal(scale=0.05, size=(32, 4))
    actions = rng.uniform(-1.0, 1.0, size=(32, 4))
    _fill_linear(memory, true_j, contexts, actions)
    model = memory.local_jacobian(np.zeros(4))
    assert model.support_size == 32
    assert np.linalg.norm(model.jacobian - true_j) < 1e-6


def test_pseudo_inverse_of_identity_is_identity():
    jac = np.eye(2)
    pinv = np.linalg.pinv(jac)
    np.testing.assert_allclose(pinv, np.eye(2), atol=1e-12)


def test_pseudo_inverse_closed_form_row_vector():
    # J = [1 2]: J+ = J^T (J J^T)^-1 = (0.2, 0.4)^T.
    jac = np.array([[1.0, 2.0]])
    np.testing.assert_allclose(np.linalg.pinv(jac), [[0.2], [0.4]], atol=1e-12)


def test_local_model_computes_the_missing_side_on_first_read():
    rng = np.random.default_rng(9)
    jac = rng.normal(size=(2, 5))
    from_map = LocalLinearModel(jac, None, 7)
    assert from_map.jacobian is jac
    np.testing.assert_array_equal(from_map.pseudo_inverse, np.linalg.pinv(jac))
    assert from_map.pseudo_inverse is from_map.pseudo_inverse
    inverse = rng.normal(size=(5, 2))
    from_inverse = LocalLinearModel(None, inverse, 3)
    np.testing.assert_array_equal(from_inverse.jacobian, np.linalg.pinv(inverse))
    assert from_inverse.pseudo_inverse is inverse and from_inverse.support_size == 3
    with pytest.raises(ValueError):
        LocalLinearModel(None, None, 0)


def test_memory_models_pair_each_side_with_its_pseudo_inverse():
    rng = np.random.default_rng(10)
    evolving = EvolvingMemory(3, 2, neighbors=10, support_radius=10.0)
    fixed = FixedMemory(3, 2, inverse_candidates=3, inverse_neighborhood=6)
    for _ in range(20):
        context, action, effect = rng.normal(size=3), rng.normal(size=3), rng.normal(size=2)
        evolving.insert(context, action, effect)
        fixed.insert(action, effect)
    model = evolving.local_jacobian(np.zeros(3))
    np.testing.assert_array_equal(model.pseudo_inverse, np.linalg.pinv(model.jacobian))
    _, model = fixed.local_inverse(np.zeros(2))
    np.testing.assert_array_equal(model.jacobian, np.linalg.pinv(model.pseudo_inverse))


def test_local_jacobian_requires_support_within_radius():
    memory = EvolvingMemory(2, 2, neighbors=8, support_radius=0.5, min_support=4)
    rng = np.random.default_rng(1)
    # Entries exist, but all far from the query point.
    for _ in range(10):
        memory.insert(np.array([5.0, 5.0]) + rng.normal(scale=0.01, size=2), rng.normal(size=2), rng.normal(size=2))
    assert memory.local_jacobian(np.zeros(2)) is None


def test_local_jacobian_permutation_invariant():
    rng = np.random.default_rng(7)
    true_j = rng.normal(size=(2, 3))
    contexts = rng.normal(scale=0.1, size=(12, 3))
    actions = rng.uniform(-1.0, 1.0, size=(12, 3))
    models = []
    for order in (np.arange(12), rng.permutation(12)):
        memory = EvolvingMemory(3, 2, neighbors=12, support_radius=10.0)
        _fill_linear(memory, true_j, contexts[order], actions[order])
        models.append(memory.local_jacobian(np.zeros(3)))
    np.testing.assert_allclose(models[0].jacobian, models[1].jacobian, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_moore_penrose_identities_on_produced_models(rows, cols, seed):
    rng = np.random.default_rng(seed)
    memory = EvolvingMemory(cols, rows, neighbors=4 * max(rows, cols), support_radius=10.0, min_support=1)
    true_j = rng.normal(size=(rows, cols))
    for _ in range(4 * max(rows, cols)):
        action = rng.normal(size=cols)
        memory.insert(rng.normal(scale=0.05, size=cols), action, true_j @ action)
    model = memory.local_jacobian(np.zeros(cols))
    jac, pinv = model.jacobian, model.pseudo_inverse
    assert np.linalg.norm(jac @ pinv @ jac - jac) < 1e-8
    assert np.linalg.norm(pinv @ jac @ pinv - pinv) < 1e-8


# ------------------------------------------------------------- fixed context

def test_local_inverse_single_entry_returns_it():
    memory = FixedMemory(4, 2)
    theta = np.array([0.1, 0.9, 0.5, 0.3])
    memory.insert(theta, np.array([10.0, -3.0]))
    predicted, model = memory.local_inverse(np.array([50.0, 50.0]))
    np.testing.assert_allclose(predicted, theta, atol=1e-12)
    assert model.support_size == 1


def test_local_inverse_raises_on_empty_memory():
    with pytest.raises(EmptyMemoryError):
        FixedMemory(4, 2).local_inverse(np.zeros(2))


def sample_std_oracle(values):
    """Plain-math sample standard deviation, summed over components."""
    n = len(values)
    total = 0.0
    for j in range(len(values[0])):
        mean = sum(v[j] for v in values) / n
        total += math.sqrt(sum((v[j] - mean) ** 2 for v in values) / (n - 1))
    return total


def test_local_inverse_prefers_single_cluster():
    # Two well-separated parameter clusters produce outcomes in the same
    # effect region; the tight-cluster set must win over any mixed set.
    rng = np.random.default_rng(4)
    memory = FixedMemory(3, 2, inverse_candidates=4, inverse_neighborhood=6)
    cluster_a = 0.1 + 0.01 * rng.random((8, 3))
    cluster_b = 0.9 + 0.01 * rng.random((8, 3))
    effects = 0.05 * rng.random((16, 2))
    for theta, effect in zip(np.vstack([cluster_a, cluster_b]), effects):
        memory.insert(theta, effect)
    predicted, _ = memory.local_inverse(np.array([0.0, 0.0]))
    in_a = np.all(np.abs(predicted - 0.105) < 0.05)
    in_b = np.all(np.abs(predicted - 0.905) < 0.05)
    assert in_a or in_b  # never the mid-cluster average ~0.5
    mixed = list(cluster_a[:3]) + list(cluster_b[:3])
    assert sample_std_oracle(list(cluster_a[:6])) < sample_std_oracle(mixed)


def test_local_inverse_solves_linear_map():
    rng = np.random.default_rng(8)
    mapping = rng.normal(size=(2, 5))  # y = A @ theta
    memory = FixedMemory(5, 2, inverse_candidates=5, inverse_neighborhood=12)
    thetas = rng.random((60, 5))
    for theta in thetas:
        memory.insert(theta, mapping @ theta)
    for _ in range(10):
        goal = mapping @ rng.random(5)
        predicted, _ = memory.local_inverse(goal)
        assert np.linalg.norm(mapping @ predicted - goal) < 1e-6


def test_nearest_on_fixed_memory_keys_by_effect():
    memory = FixedMemory(2, 2)
    memory.insert(np.array([0.1, 0.1]), np.array([0.0, 0.0]))
    memory.insert(np.array([0.9, 0.9]), np.array([10.0, 10.0]))
    (entry,) = memory.nearest(np.array([9.0, 9.0]), 1)
    np.testing.assert_array_equal(entry.effect, [10.0, 10.0])
    assert entry.action is None


# ----------------------------------------------------------------- csv round trip

def test_evolving_memory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    memory = EvolvingMemory(3, 2)
    for _ in range(20):
        memory.insert(rng.normal(size=3), rng.normal(size=3), rng.normal(size=2))
    path = tmp_path / "memory.csv"
    memory.dump_csv(path)
    loaded = EvolvingMemory.load_csv(path)
    assert len(loaded) == 20
    np.testing.assert_array_equal(loaded._index.points, memory._index.points)


def test_fixed_memory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    memory = FixedMemory(4, 2)
    for _ in range(15):
        memory.insert(rng.random(4), rng.normal(size=2))
    path = tmp_path / "memory.csv"
    memory.dump_csv(path)
    loaded = FixedMemory.load_csv(path)
    assert len(loaded) == 15
    np.testing.assert_array_equal(loaded.params, memory.params)
    np.testing.assert_array_equal(loaded.effects, memory.effects)


def test_approximate_mode_respects_relative_bound():
    # With slack enabled, each returned distance stays within (1 + eps) of
    # the true i-th nearest distance from the brute-force oracle.
    rng = np.random.default_rng(21)
    eps = 0.5
    index = NearestIndex(6, eps=eps, rebuild_every=64)
    points = rng.normal(size=(800, 6))
    for point in points:
        index.add(point)
    for key in rng.normal(size=(200, 6)):
        _, dist = index.query(key, 5)
        _, true_dist = linear_scan(points, key, 5)
        assert np.all(dist <= (1 + eps) * true_dist + 1e-12)
