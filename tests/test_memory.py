import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalbabbling import memory as memory_module
from goalbabbling.memory import EmptyMemoryError, EvolvingMemory, FixedMemory, NearestIndex, _fit_ridge, pseudo_inverse


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
    idx, dist = memory._index.query(np.array([1.0, 1.0]), 2)
    assert sorted(idx) == [0, 1] and list(dist) == [0.0, 0.0]


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


def test_query_many_equals_query_across_blocks_of_keys():
    # More keys than one pick block holds, the last block partial.
    rng = np.random.default_rng(3)
    index = NearestIndex(3, rebuild_every=64)
    for point in rng.integers(0, 4, (100, 3)).astype(float):
        index.add(point)
    keys = np.vstack([rng.integers(0, 4, (150, 3)).astype(float), rng.normal(1.5, 1.0, (150, 3))])
    idx, dist = index.query_many(keys, 9)
    for row, key in enumerate(keys):
        one_idx, one_dist = index.query(key, 9)
        assert np.array_equal(idx[row], one_idx)
        assert np.array_equal(dist[row], one_dist)


def reference_query(index, key, k):
    """`NearestIndex.query` as it was before its single-key path went
    sort-free: the tree's k nearest and the whole tail's stable argsort,
    always concatenated and stably sorted by distance."""
    k_eff = min(k, index._n)
    tail = index._rows[index._tree_n : index._n]
    cand_idx, cand_dist = [], []
    if index._tree is not None:
        dist, idx = index._tree.query(key, k=min(k_eff, index._tree_n))
        cand_idx.append(np.atleast_1d(idx).astype(np.intp))
        cand_dist.append(np.atleast_1d(dist))
    if tail.shape[0]:
        diff = tail - key
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.argsort(d2, kind="stable")[:k_eff]
        cand_idx.append(order + index._tree_n)
        cand_dist.append(np.sqrt(d2[order]))
    idx = np.concatenate(cand_idx)
    dist = np.concatenate(cand_dist)
    order = np.argsort(dist, kind="stable")[:k_eff]
    return idx[order], dist[order]


@settings(max_examples=400, deadline=None)
@given(
    dim=st.sampled_from([2, 8, 15]),
    state=st.sampled_from(["tree", "tail", "both"]),
    rebuild_every=st.sampled_from([4, 16, 64, 512]),
    k=st.sampled_from([1, 2, 5, 12, "n", "n+3"]),
    # Grid values give exact ties and duplicates, 0 continuous values.
    levels=st.sampled_from([2, 3, 0]),
    rest_copies=st.booleans(),
    key_kind=st.sampled_from(["stored", "fresh", "rest", "nan", "inf"]),
    seed=st.integers(0, 2**16),
)
def test_query_equals_reference_bitwise(dim, state, rebuild_every, k, levels, rest_copies, key_kind, seed):
    rng = np.random.default_rng(seed)
    rounds = int(rng.integers(1, 4))
    n = {
        "tree": rounds * rebuild_every,
        "tail": int(rng.integers(1, rebuild_every)),
        "both": rounds * rebuild_every + int(rng.integers(1, rebuild_every)),
    }[state]
    points = rng.integers(0, levels, (n, dim)).astype(float) if levels else rng.normal(size=(n, dim))
    rest = np.full(dim, 0.35)
    if rest_copies:
        # Copies of one state on both sides of the last rebuild, as resets
        # store the rest state, so ties straddle the tree and the tail.
        points[rng.random(n) < 0.3] = rest
    index = NearestIndex(dim, rebuild_every=rebuild_every)
    for point in points:
        index.add(point)
    assert (index._tree is not None) == (state != "tail") and (index._tree_n == n) == (state == "tree")
    k = {"n": n, "n+3": n + 3}.get(k, k)
    key = {
        "stored": points[rng.integers(n)].copy(),
        "fresh": rng.normal(size=dim),
        "rest": rest.copy(),
        "nan": np.full(dim, np.nan),
        "inf": np.full(dim, np.inf),
    }[key_kind]
    if key_kind in ("nan", "inf"):
        key[1:] = rest[1:]
        if index._tree is not None:
            # The kd-tree rejects non-finite keys, before and after.
            with pytest.raises(ValueError):
                reference_query(index, key, k)
            with pytest.raises(ValueError):
                index.query(key, k)
            return
    idx, dist = index.query(key, k)
    expected_idx, expected_dist = reference_query(index, key, k)
    assert idx.dtype == expected_idx.dtype == np.intp
    assert np.array_equal(idx, expected_idx)
    assert dist.tobytes() == expected_dist.tobytes()


def test_query_many_on_empty_index_raises():
    with pytest.raises(EmptyMemoryError):
        NearestIndex(2).query_many(np.zeros((3, 2)), 1)


def tail_oracle(tail, keys, k):
    """Per key: the stable argsort of the squared distances as
    `NearestIndex.query` computes them, cut to k, and those distances."""
    idx = np.empty((len(keys), k), dtype=np.intp)
    d2 = np.empty((len(keys), k))
    for row, key in enumerate(keys):
        diff = tail - key
        full = np.einsum("ij,ij->i", diff, diff)
        idx[row] = np.argsort(full, kind="stable")[:k]
        d2[row] = full[idx[row]]
    return idx, d2


class TailPaths:
    """Spy on `_filtered_tail`: counts the blocks it filtered, and those it
    declined with a non-finite or a finite bound (too many candidates)."""

    def __init__(self):
        self.filtered = self.non_finite = self.too_many = 0
        self._original = memory_module._filtered_tail

    def __call__(self, tail, tail_1, reach, keys, keys_1, k):
        result = self._original(tail, tail_1, reach, keys, keys_1, k)
        if result is not None:
            self.filtered += 1
        elif np.isfinite(keys).all() and np.isfinite(tail).all():
            self.too_many += 1
        else:
            self.non_finite += 1
        return result


@settings(max_examples=300, deadline=None)
@given(
    dim=st.sampled_from([2, 8, 15]),
    k=st.sampled_from([1, 2, 5, 12]),
    tail_size=st.sampled_from(["1", "k-1", "k", "k+1", "511"]),
    key_count=st.sampled_from([1, 31, 32, 33, 500]),
    # Grid values with exact ties and duplicates (distances that are equal in
    # real arithmetic round apart when scaled by 1e-6 or 1e6), or continuous (0).
    levels=st.sampled_from([2, 3, 10, 50, 0]),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    stored_keys=st.booleans(),
    non_finite=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    forced=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_tail_pick_equals_stable_argsort_oracle(
    dim, k, tail_size, key_count, levels, scale, stored_keys, non_finite, forced, seed
):
    rng = np.random.default_rng(seed)
    n = {"1": 1, "k-1": k - 1, "k": k, "k+1": k + 1, "511": 511}[tail_size]
    n = max(n, 1)

    def draw(count):
        values = rng.integers(0, levels, (count, dim)) if levels else rng.normal(size=(count, dim))
        return values.astype(float) * scale

    tail = draw(n)
    keys = draw(key_count)
    if stored_keys:
        keys[::2] = tail[rng.integers(n, size=keys[::2].shape[0])]
    if non_finite is not None:
        keys[rng.integers(key_count), rng.integers(dim)] = non_finite
    kt = min(k, n)
    spy = TailPaths()
    min_pairs = 0 if forced else memory_module._FILTER_MIN_PAIRS
    with mock.patch.object(memory_module, "_FILTER_MIN_PAIRS", min_pairs), mock.patch.object(
        memory_module, "_filtered_tail", spy
    ):
        idx, d2 = memory_module._tail_nearest(tail, keys, kt)
    expected_idx, expected_d2 = tail_oracle(tail, keys, kt)
    assert idx.dtype == np.intp and idx.shape == d2.shape == (key_count, kt)
    assert np.array_equal(idx, expected_idx)
    assert d2.tobytes() == expected_d2.tobytes()
    if forced and kt < n:
        assert spy.filtered + spy.non_finite + spy.too_many == -(-key_count // 32)
        if non_finite is not None:
            assert spy.non_finite == 1


def test_tail_filter_and_each_fallback_run_and_match_query():
    # 1,000 continuous 15-D points: a kd-tree over 512 and a 488-row tail,
    # which 100 keys search in four filtered blocks of up to 32.  With no
    # tree (which rejects non-finite keys), a NaN key makes its block fall
    # back on the bound; rest-state copies filling most of the tail make
    # every block fall back on the candidate count.
    def check(index, keys, paths):
        spy = TailPaths()
        with mock.patch.object(memory_module, "_filtered_tail", spy):
            idx, dist = index.query_many(keys, 12)
        assert (spy.filtered, spy.non_finite, spy.too_many) == paths
        for row, key in enumerate(keys):
            one_idx, one_dist = index.query(key, 12)
            assert np.array_equal(idx[row], one_idx)
            assert np.array_equal(dist[row], one_dist, equal_nan=True)

    rng = np.random.default_rng(17)
    index = NearestIndex(15)
    for point in rng.normal(size=(1000, 15)):
        index.add(point)
    check(index, np.vstack([rng.normal(size=(60, 15)), index.points[rng.integers(1000, size=40)]]), (4, 0, 0))

    index = NearestIndex(15)
    for point in rng.normal(size=(500, 15)):
        index.add(point)
    keys = rng.normal(size=(100, 15))
    keys[70, 3] = np.nan
    check(index, keys, (3, 1, 0))

    rest = np.zeros(15)
    index = NearestIndex(15)
    for i in range(1000):
        index.add(rest if i >= 600 or i % 7 == 0 else rng.normal(size=15))
    check(index, np.vstack([np.tile(rest, (40, 1)), rng.normal(0.0, 1e-3, (40, 15))]), (0, 0, 3))


def test_query_many_with_no_keys():
    index = NearestIndex(3)
    for point in np.random.default_rng(1).normal(size=(700, 3)):
        index.add(point)
    idx, dist = index.query_many(np.empty((0, 3)), 4)
    assert idx.shape == dist.shape == (0, 4)


def _index_state(index, keys, k=3):
    """The points, the indexed count, and every key's nearest by `query`
    and `query_many`, as bytes."""
    singles = [b"".join(part.tobytes() for part in index.query(key, k)) for key in keys]
    idx, dist = index.query_many(keys, k)
    return index.points.tobytes(), index._tree_n, singles, idx.tobytes(), dist.tobytes()


@pytest.mark.parametrize(
    "before, block, crossed",  # rebuilds every 8 rows
    [(0, 0, 0), (3, 4, 0), (5, 3, 1), (5, 7, 1), (8, 8, 1), (5, 13, 2), (2, 30, 4)],
)
def test_add_many_equals_one_add_per_row(before, block, crossed):
    rng = np.random.default_rng(before * 100 + block)
    points = np.round(rng.normal(size=(before + block, 3)), 1)  # coarse: ties between rows
    rows, blocks = NearestIndex(3, rebuild_every=8), NearestIndex(3, rebuild_every=8)
    for point in points[:before]:
        rows.add(point)
        blocks.add(point)
    for point in points[before:]:
        rows.add(point)
    blocks.add_many(points[before:])
    assert (before + block) // 8 - before // 8 == crossed
    # One add at a time rebuilds at every 8th row, so the tree holds the
    # rows up to the last multiple of 8.
    assert blocks._tree_n == rows._tree_n == (before + block) // 8 * 8
    assert blocks.points.tobytes() == rows.points.tobytes()
    if len(rows):
        keys = np.vstack([points[:2], np.round(rng.normal(size=(4, 3)), 1)])
        assert _index_state(blocks, keys) == _index_state(rows, keys)


def _columns(memory, table):
    """The columns of `table` as the arguments of the memory's `insert_many`."""
    if isinstance(memory, EvolvingMemory):
        return table[:, :3], table[:, 3:6], table[:, 6:]
    return table[:, :3], table[:, 3:]


@pytest.mark.parametrize("block, crossed", [(0, 0), (10, 0), (20, 1), (600, 2)])  # rebuilds every 512 rows
@pytest.mark.parametrize("kind", [EvolvingMemory, FixedMemory])
def test_insert_many_equals_one_insert_per_row(kind, block, crossed):
    rng = np.random.default_rng(block)
    rows, blocks = kind(3, 2), kind(3, 2)
    table = np.round(rng.normal(size=(500 + block, rows.table().shape[1])), 1)
    parts = _columns(rows, table)
    for i in range(500 + block):
        rows.insert(*(part[i] for part in parts))
        if i < 500:
            blocks.insert(*(part[i] for part in parts))
    blocks.insert_many(*(part[500:] for part in parts))
    assert (500 + block) // 512 - 500 // 512 == crossed
    assert blocks.table().tobytes() == rows.table().tobytes()
    indices = [(m._index,) if kind is EvolvingMemory else (m._effect_index, m._param_index) for m in (rows, blocks)]
    for row_index, block_index in zip(*indices):
        assert block_index._tree_n == (500 + block) // 512 * 512
        keys = np.vstack([block_index.points[-2:], rng.normal(size=(3, block_index.dim))])
        assert _index_state(block_index, keys) == _index_state(row_index, keys)


def _stacked_and_single_fits(dim, neighbors, radius, seed):
    """`local_pseudo_inverses` over 80 contexts, and per context the single
    fit and its pseudo-inverse."""
    rng = np.random.default_rng(seed)
    memory = EvolvingMemory(dim, 2, neighbors=neighbors, support_radius=radius)
    for _ in range(700):
        context = rng.uniform(-1.0, 1.0, dim)
        action = rng.normal(0.0, 0.1, dim)
        memory.insert(context, action, rng.normal(size=(2, dim)) @ action)
    contexts = rng.uniform(-1.3, 1.3, (80, dim))
    pinvs, fitted = memory.local_pseudo_inverses(contexts)
    assert 0 < fitted.sum() < len(contexts)
    for row, context in enumerate(contexts):
        jacobian = memory.local_jacobian(context)
        assert fitted[row] == (jacobian is not None)
        expected = pseudo_inverse(jacobian) if jacobian is not None else np.zeros((dim, 2))
        assert np.array_equal(pinvs[row], expected)


def test_local_pseudo_inverses_equal_single_fits_bitwise():
    # 3 joints and at least 4 neighbours: the fit solves the 3 x 3 system.
    _stacked_and_single_fits(3, 8, 0.6, 9)


def test_local_pseudo_inverses_equal_single_fits_bitwise_with_support_below_the_dimension():
    # 15 joints and at most 12 neighbours: the fit solves the s x s system.
    _stacked_and_single_fits(15, 12, 2.2, 9)


def test_insert_nearest_round_trip():
    memory = EvolvingMemory(3, 2)
    rng = np.random.default_rng(9)
    contexts = rng.normal(size=(50, 3))
    for c in contexts:
        memory.insert(c, rng.normal(size=3), rng.normal(size=2))
    for c in contexts:
        (i,), _ = memory._index.query(c, 1)
        np.testing.assert_array_equal(memory._index.points[i], c)


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
    memory = EvolvingMemory(4, 2, neighbors=32, support_radius=10.0)
    assert memory.min_support == 4
    contexts = rng.normal(scale=0.05, size=(32, 4))
    actions = rng.uniform(-1.0, 1.0, size=(32, 4))
    _fill_linear(memory, true_j, contexts, actions)
    jacobian = memory.local_jacobian(np.zeros(4))
    assert jacobian.shape == (2, 4)
    assert np.linalg.norm(jacobian - true_j) < 1e-6
    # All 32 exemplars support the fit: it needs no more than 32 and fails at 33.
    memory.min_support = 32
    assert np.array_equal(memory.local_jacobian(np.zeros(4)), jacobian)
    memory.min_support = 33
    assert memory.local_jacobian(np.zeros(4)) is None


def test_pseudo_inverse_of_identity_is_identity():
    jac = np.eye(2)
    pinv = pseudo_inverse(jac)
    np.testing.assert_allclose(pinv, np.eye(2), atol=1e-12)


def test_pseudo_inverse_closed_form_row_vector():
    # J = [1 2]: J+ = J^T (J J^T)^-1 = (0.2, 0.4)^T.
    jac = np.array([[1.0, 2.0]])
    np.testing.assert_allclose(pseudo_inverse(jac), [[0.2], [0.4]], atol=1e-12)


def test_memory_models_pair_each_side_with_its_pseudo_inverse():
    rng = np.random.default_rng(10)
    evolving = EvolvingMemory(3, 2, neighbors=10, support_radius=10.0)
    for _ in range(20):
        context, action, effect = rng.normal(size=3), rng.normal(size=3), rng.normal(size=2)
        evolving.insert(context, action, effect)
    jacobian = evolving.local_jacobian(np.zeros(3))
    pinvs, fitted = evolving.local_pseudo_inverses(np.zeros((1, 3)))
    assert fitted.tolist() == [True]
    np.testing.assert_array_equal(pinvs[0], pseudo_inverse(jacobian))


def test_local_jacobian_requires_support_within_radius():
    memory = EvolvingMemory(2, 2, neighbors=8, support_radius=0.5)
    assert memory.min_support == 4
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
    np.testing.assert_allclose(models[0], models[1], atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_moore_penrose_identities_on_produced_models(rows, cols, seed):
    rng = np.random.default_rng(seed)
    memory = EvolvingMemory(cols, rows, neighbors=4 * max(rows, cols), support_radius=10.0)
    memory.min_support = 1
    true_j = rng.normal(size=(rows, cols))
    for _ in range(4 * max(rows, cols)):
        action = rng.normal(size=cols)
        memory.insert(rng.normal(scale=0.05, size=cols), action, true_j @ action)
    jac = memory.local_jacobian(np.zeros(cols))
    pinv = pseudo_inverse(jac)
    assert np.linalg.norm(jac @ pinv @ jac - jac) < 1e-8
    assert np.linalg.norm(pinv @ jac @ pinv - pinv) < 1e-8


# Relative to the largest entry, the closed-form pseudo-inverse may differ
# from `np.linalg.pinv` by this many eps times the condition number of
# J J^T (`pseudo_inverse` documents about one).
_PINV_EPS_FACTOR = 32


def _jacobian(rng, cols, condition):
    """A random 2 x cols J whose J J^T has the given condition number."""
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
    largest = 10.0 ** rng.uniform(-3.0, 3.0)
    return u @ np.diag([largest, largest / math.sqrt(condition)]) @ v[:2]


@settings(max_examples=200, deadline=None)
@given(cols=st.integers(2, 40), log2_condition=st.floats(0.0, 19.0), seed=st.integers(0, 10_000))
def test_pseudo_inverse_matches_pinv_within_the_conditioning_bound(cols, log2_condition, seed):
    condition = 2.0**log2_condition
    tolerance = _PINV_EPS_FACTOR * np.finfo(float).eps * condition
    jac = _jacobian(np.random.default_rng(seed), cols, condition)
    expected = np.linalg.pinv(jac)
    assert np.abs(pseudo_inverse(jac) - expected).max() <= tolerance * np.abs(expected).max()


def test_rank_deficient_jacobians_take_pinv_exactly():
    rng = np.random.default_rng(4)
    row = rng.normal(size=15)
    deficient = [
        np.vstack([row, 3.0 * row]),  # collinear actions give parallel rows
        np.vstack([row, -row / 7.0]),
        np.vstack([row, np.zeros(15)]),
        np.zeros((2, 15)),
        np.vstack([row, 3.0 * row + 1e-12 * rng.normal(size=15)]),
    ]
    for jac in deficient:
        assert np.array_equal(pseudo_inverse(jac), np.linalg.pinv(jac))
    # In a stack, the same rows still get exactly pinv's answer.
    stack = np.stack([_jacobian(rng, 15, 4.0), *deficient, _jacobian(rng, 15, 100.0)])
    pinvs = pseudo_inverse(stack)
    for i, jac in enumerate(deficient, start=1):
        assert np.array_equal(pinvs[i], np.linalg.pinv(jac))


def test_rank_deficient_neighbourhood_fits_take_pinv():
    # Every probe moves along one direction: J has parallel rows.
    rng = np.random.default_rng(5)
    memory = EvolvingMemory(15, 2, neighbors=12, support_radius=10.0)
    direction, true_j = rng.normal(size=15), rng.normal(size=(2, 15))
    for _ in range(12):
        action = rng.normal() * direction
        memory.insert(rng.normal(scale=0.01, size=15), action, true_j @ action)
    jac = memory.local_jacobian(np.zeros(15))
    assert np.linalg.matrix_rank(jac) == 1
    assert np.array_equal(pseudo_inverse(jac), np.linalg.pinv(jac))


@pytest.mark.parametrize("effect_dim", [1, 2, 3])
def test_pseudo_inverse_stack_equals_single_rows_bitwise(effect_dim):
    rng = np.random.default_rng(6)
    stack = rng.normal(size=(40, effect_dim, 15))
    stack[::5, -1] = 2.0 * stack[::5, 0]  # some rank-deficient rows
    pinvs = pseudo_inverse(stack)
    assert pinvs.shape == (40, 15, effect_dim)
    for jac, pinv in zip(stack, pinvs):
        assert np.array_equal(pinv, pseudo_inverse(jac))


@pytest.mark.parametrize("rows, cols", [(4, 15), (12, 15), (15, 15), (20, 3)])
def test_ridge_fit_solves_either_side_of_the_push_through_identity(rows, cols):
    rng = np.random.default_rng(rows * cols)
    actions, effects = rng.normal(0.0, 0.05, (rows, cols)), rng.normal(size=(rows, 2))
    ridge = EvolvingMemory.ridge
    normal = np.linalg.solve(actions.T @ actions + ridge * np.eye(cols), actions.T @ effects).T
    fit = _fit_ridge(actions, effects, ridge)
    np.testing.assert_allclose(fit, normal, rtol=1e-6, atol=1e-9 * np.abs(normal).max())
    stacked = _fit_ridge(np.stack([actions, 2.0 * actions]), np.stack([effects, effects]), ridge)
    assert np.array_equal(stacked[0], fit)


# ------------------------------------------------------------- fixed context

def test_local_inverse_single_entry_returns_it():
    memory = FixedMemory(4, 2)
    theta = np.array([0.1, 0.9, 0.5, 0.3])
    memory.insert(theta, np.array([10.0, -3.0]))
    predicted, nearest = memory.local_inverse(np.array([50.0, 50.0]))
    np.testing.assert_allclose(predicted, theta, atol=1e-12)
    assert nearest == 0  # the one stored effect is the nearest


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


def _local_inverse_scan(memory, goal, candidates, neighborhood):
    """Reference local inverse: one params query per candidate and a strict
    `<` scan over their spreads, so the first of tied sets wins."""
    n = len(memory)
    cand_idx, _ = memory._effect_index.query(goal, min(candidates, n))
    best_set, best_spread = None, math.inf
    for i in cand_idx:
        set_idx, _ = memory.nearest_params(memory.params[i], min(neighborhood, n))
        spread = 0.0 if len(set_idx) < 2 else float(np.std(memory.params[set_idx], axis=0, ddof=1).sum())
        if spread < best_spread:
            best_set, best_spread = set_idx, spread
    params, effects = memory.params[best_set], memory.effects[best_set]
    param_center, effect_center = params.mean(axis=0), effects.mean(axis=0)
    if len(best_set) < 2:
        inverse = np.zeros((memory.param_dim, memory.effect_dim))
    else:
        coef, *_ = np.linalg.lstsq(effects - effect_center, params - param_center, rcond=None)
        inverse = coef.T
    return param_center + inverse @ (goal - effect_center)


@pytest.mark.parametrize("size", [1, 3, 511, 512, 700])  # below the neighbourhood; tail only; tree only; both
def test_local_inverses_equal_the_per_candidate_scan_bitwise(size):
    # Params on a coarse grid and effects rounded to a coarse grid give
    # duplicated params, duplicated effects and tied distances at both
    # queries; every fifth exemplar repeats an earlier one outright.
    rng = np.random.default_rng(size)
    mapping = rng.normal(size=(8, 2))
    thetas = []
    for i in range(size):
        thetas.append(rng.integers(0, 3, 8) / 2.0 if i % 5 or i == 0 else thetas[rng.integers(i)].copy())
    effects = [np.round(theta @ mapping, 1) for theta in thetas]
    goals = np.vstack([rng.normal(0.0, 1.5, (30, 2)), np.array(effects)[rng.integers(size, size=10)]])
    options = [(), (1, 1), (3, 2), (7, 15), (40, 60)]  # the defaults, then (candidates, neighborhood)
    for option in options:
        memory = FixedMemory(8, 2, *option)
        for theta, effect in zip(thetas, effects):
            memory.insert(theta, effect)
        predicted, nearest = memory.local_inverses(goals)
        assert predicted.shape == (len(goals), 8) and nearest.shape == (len(goals),)
        for row, goal in enumerate(goals):
            expected = _local_inverse_scan(memory, goal, memory.inverse_candidates, memory.inverse_neighborhood)
            assert np.array_equal(predicted[row], expected)
            one, _ = memory.local_inverse(goal)
            assert np.array_equal(one, expected)


def test_local_inverse_nearest_index_is_at_the_minimum_distance():
    # 700 exemplars: a kd-tree over 512 and a 188-row tail.  Effects lie on
    # a 0.25 grid and every third tail effect copies a tree effect, so goals
    # on the grid, or halfway between grid effects, tie at the nearest
    # distance, also between a tree point and a tail point.  Every goal gets
    # an index, and the stored effect there is at the minimum distance.
    rng = np.random.default_rng(4)
    memory = FixedMemory(3, 2)
    for i in range(700):
        copied = i >= 512 and i % 3 == 0
        effect = memory.effects[rng.integers(512)].copy() if copied else rng.integers(0, 40, 2) / 4.0
        memory.insert(rng.random(3), effect)
    copies = memory.effects[512::3]
    goals = np.vstack(
        [
            copies[:30],
            (copies[:30] + memory.effects[rng.integers(700, size=30)]) / 2.0,
            memory.effects[rng.integers(700, size=30)],
            rng.uniform(-1.0, 11.0, (60, 2)),
        ]
    )
    _, nearest = memory.local_inverses(goals)
    tied = tree_tail_ties = 0
    for row, goal in enumerate(goals):
        assert memory.local_inverse(goal)[1] == nearest[row]
        distances = np.linalg.norm(memory.effects - goal, axis=1)
        assert distances[nearest[row]] == distances.min()
        at_minimum = np.flatnonzero(distances == distances.min())
        tied += at_minimum.shape[0] > 1
        tree_tail_ties += at_minimum.min() < 512 <= at_minimum.max()
    assert tied >= 30 and tree_tail_ties >= 20


def test_local_inverses_of_no_goals_and_on_empty_memory():
    memory = FixedMemory(4, 2)
    with pytest.raises(EmptyMemoryError):
        memory.local_inverses(np.zeros((3, 2)))
    memory.insert(np.full(4, 0.5), np.zeros(2))
    predicted, nearest = memory.local_inverses(np.zeros((0, 2)))
    assert predicted.shape == (0, 4) and nearest.shape == (0,)


def test_nearest_on_fixed_memory_keys_by_effect():
    memory = FixedMemory(2, 2)
    memory.insert(np.array([0.1, 0.1]), np.array([0.0, 0.0]))
    memory.insert(np.array([0.9, 0.9]), np.array([10.0, 10.0]))
    _, i = memory.local_inverse(np.array([9.0, 9.0]))
    np.testing.assert_array_equal(memory.effects[i], [10.0, 10.0])
    np.testing.assert_array_equal(memory.params[i], [0.9, 0.9])


# --------------------------------------------------------------- table round trip

def test_evolving_memory_csv_round_trip():
    rng = np.random.default_rng(12)
    memory = EvolvingMemory(3, 2)
    for _ in range(20):
        memory.insert(rng.normal(size=3), rng.normal(size=3), rng.normal(size=2))
    assert memory.header() == [f"context_{i}" for i in range(3)] + [f"action_{i}" for i in range(3)] + [
        "effect_0", "effect_1"
    ]
    loaded = EvolvingMemory(3, 2)
    loaded.insert_rows(memory.table())
    assert len(loaded) == 20
    np.testing.assert_array_equal(loaded._index.points, memory._index.points)
    np.testing.assert_array_equal(loaded.table(), memory.table())


def test_fixed_memory_csv_round_trip():
    rng = np.random.default_rng(13)
    memory = FixedMemory(4, 2)
    for _ in range(15):
        memory.insert(rng.random(4), rng.normal(size=2))
    assert memory.header() == [f"params_{i}" for i in range(4)] + ["effect_0", "effect_1"]
    loaded = FixedMemory(4, 2)
    loaded.insert_rows(memory.table())
    assert len(loaded) == 15
    np.testing.assert_array_equal(loaded.params, memory.params)
    np.testing.assert_array_equal(loaded.effects, memory.effects)

