import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalbabbling.regions import RecordOrigin, RegionTree, interest_of
from goalbabbling.rng import weighted_index
from goalbabbling.spaces import Box


def batch_interest_oracle(gammas, window):
    """Independent re-statement of the windowed-progress formula."""
    tail = [float(g) for g in gammas][-window:]
    half = len(tail) // 2
    older = 0.0
    for g in tail[:half]:
        older += g
    newer = 0.0
    for g in tail[len(tail) - half:]:
        newer += g
    return abs(older - newer) / window


def make_tree(seed=0, **kwargs):
    defaults = dict(window=6, capacity=10, split_candidates=25)
    defaults.update(kwargs)
    box = defaults.pop("box", Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])))
    return RegionTree(box, rng=np.random.default_rng(seed), **defaults)


# ------------------------------------------------------------------ interest

def test_interest_direct_evaluation():
    assert interest_of([-1, -1, -1, -0.5, -0.5, -0.5], 6) == pytest.approx(0.25)


def test_interest_rewards_decreasing_competence():
    assert interest_of([-0.1, -0.1, -0.9, -0.9], 4) == pytest.approx(0.4)


def test_interest_constant_window_is_zero():
    assert interest_of([-0.3] * 10, 6) == 0.0


def test_interest_empty_and_singleton_are_zero():
    assert interest_of([], 6) == 0.0
    assert interest_of([-0.7], 6) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    gammas=st.lists(st.floats(-1.0, 0.0), min_size=0, max_size=60),
    window=st.sampled_from([2, 4, 6, 24]),
)
def test_interest_matches_batch_oracle_bitwise(gammas, window):
    assert interest_of(gammas, window) == batch_interest_oracle(gammas, window)


def test_interest_is_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        gammas = rng.uniform(-1, 0, rng.integers(0, 40))
        assert interest_of(list(gammas), 6) >= 0.0


# ------------------------------------------------------------------- updates

def test_fresh_tree_single_update():
    tree = make_tree()
    tree.update(np.array([0.5, 0.5]), -1.0, RecordOrigin.SELF_GENERATED)
    assert len(tree.leaves()) == 1
    assert tree._interests[tree.root.slot] == 0.0
    assert tree.root.count == 1 and tree.records_by_origin[RecordOrigin.SELF_GENERATED] == 1


def test_split_triggers_above_capacity():
    tree = make_tree(capacity=5)
    rng = np.random.default_rng(1)
    for _ in range(6):
        tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
    assert not tree.root.is_leaf
    assert len(tree.leaves()) == 2


def test_incremental_interest_equals_batch_after_any_sequence():
    tree = make_tree(capacity=8, window=4)
    rng = np.random.default_rng(2)
    for _ in range(200):
        point = rng.random(2)
        gamma = float(-rng.random())
        tree.update(point, gamma, RecordOrigin.SELF_GENERATED)
        for leaf in tree.leaves():
            assert tree._interests[leaf.slot] == batch_interest_oracle(leaf.gammas[: leaf.count], 4)
    assert len(tree.leaves()) > 1


def test_update_outside_bounds_is_clamped_and_flagged():
    tree = make_tree()
    leaf = tree.update(np.array([2.0, -1.0]), -0.5, RecordOrigin.EN_ROUTE)
    assert tree.clipped_updates == 1
    assert tree.bounds.contains(leaf.positions[leaf.count - 1])


def test_record_conservation_and_partition_across_splits():
    tree = make_tree(capacity=6, seed=3)
    rng = np.random.default_rng(3)
    n = 500
    for _ in range(n):
        tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
    leaves = tree.leaves()
    assert sum(leaf.count for leaf in leaves) == n == sum(tree.records_by_origin.values())
    # Pairwise interior-disjoint boxes that tile the root exactly.
    area = sum(np.prod(leaf.bounds.extent) for leaf in leaves)
    assert area == pytest.approx(np.prod(tree.bounds.extent), rel=1e-12)
    for point in rng.random((200, 2)):
        owners = [
            leaf
            for leaf in leaves
            if np.all(point >= leaf.bounds.low) and np.all(point < leaf.bounds.high)
        ]
        assert len(owners) == 1


def test_every_record_sits_inside_its_leaf():
    tree = make_tree(capacity=4, seed=8)
    rng = np.random.default_rng(8)
    for _ in range(300):
        tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
    for leaf in tree.leaves():
        for position in leaf.positions[: leaf.count]:
            assert np.all(position >= leaf.bounds.low)
            assert np.all(position <= leaf.bounds.high)


def test_leaf_columns_keep_stream_order_within_leaf():
    tree = make_tree(capacity=5, seed=4)
    rng = np.random.default_rng(4)
    points, gammas = rng.random((100, 2)), -rng.random(100)
    for point, gamma in zip(points, gammas):
        tree.update(point, float(gamma), RecordOrigin.SELF_GENERATED)
    for leaf in tree.leaves():
        # Stream indices of the records, recovered from their distinct gammas.
        order = [int(np.flatnonzero(gammas == g)[0]) for g in leaf.gammas[: leaf.count]]
        assert order == sorted(order) and len(set(order)) == len(order)
        np.testing.assert_array_equal(leaf.positions[: leaf.count], points[order])


# --------------------------------------------------------------------- split

class _RecordingTree(RegionTree):
    """Keeps, for every split, the leaf's bounds, positions and gammas, each
    batch of cuts scored (dims, values, quality, n_left, n_right) and the
    chosen cut, read from the split leaf."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.splits = []

    def _split(self, leaf):
        self._batches = []
        positions = leaf.positions[: leaf.count].copy()
        gammas = leaf.gammas[: leaf.count].copy()
        super()._split(leaf)
        if not leaf.is_leaf:
            chosen = (leaf.split_dim, leaf.split_value)
            self.splits.append(
                dict(bounds=leaf.bounds, positions=positions, gammas=gammas, batches=self._batches, chosen=chosen)
            )

    def _cut_scores(self, dims, values, positions, gammas):
        scores = super()._cut_scores(dims, values, positions, gammas)
        self._batches.append((dims, values) + scores)
        return scores


def make_recording_tree(seed=0, **kwargs):
    defaults = dict(window=6, capacity=10, split_candidates=25)
    defaults.update(kwargs)
    return _RecordingTree(Box(np.zeros(2), np.ones(2)), rng=np.random.default_rng(seed), **defaults)


def _cuts(batches):
    """Every scored cut as (dim, value, quality, n_left, n_right), in order."""
    return [
        cut
        for dims, values, quality, n_left, n_right in batches
        for cut in zip(dims.tolist(), values.tolist(), quality.tolist(), n_left.tolist(), n_right.tolist())
    ]


def qual_oracle(positions, gammas, dim, value, window):
    mask = positions[:, dim] < value
    n_left, n_right = int(mask.sum()), int((~mask).sum())
    if n_left == 0 or n_right == 0:
        return 0.0
    return n_left * n_right * abs(
        batch_interest_oracle(gammas[mask], window) - batch_interest_oracle(gammas[~mask], window)
    )


def test_split_separates_progress_boundary():
    # Left half: competence rising over time (failures then successes);
    # right half: flat failure.  The exhaustive grid oracle puts the best
    # cut at the x boundary, and the chosen cut must match its quality.
    tree = make_recording_tree(capacity=40, window=24, split_candidates=100, seed=5)
    rng = np.random.default_rng(5)
    left_count = 0
    for _ in range(41):
        x = rng.random()
        if x < 0.5:
            left_count += 1
            gamma = -1.0 if left_count <= 10 else 0.0
        else:
            gamma = -1.0
        tree.update(np.array([x, rng.random()]), gamma, RecordOrigin.SELF_GENERATED)
    assert not tree.root.is_leaf
    split = tree.splits[0]
    assert split["chosen"] == (tree.root.split_dim, tree.root.split_value)
    grid_best = max(
        qual_oracle(split["positions"], split["gammas"], d, v, 24)
        for d in (0, 1)
        for v in np.linspace(0.001, 0.999, 999)
    )
    dim, value = split["chosen"]
    chosen_qual = qual_oracle(split["positions"], split["gammas"], dim, value, 24)
    assert dim == 0
    assert 0.4 < value < 0.65
    assert chosen_qual >= 0.95 * grid_best


def test_chosen_split_beats_every_logged_candidate():
    tree = make_recording_tree(capacity=10, seed=6)
    rng = np.random.default_rng(6)
    for _ in range(400):
        tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
    assert tree.splits
    for split in tree.splits:
        positions, gammas = split["positions"], split["gammas"]
        replayed = [qual_oracle(positions, gammas, d, v, tree.window) for d, v, *_ in _cuts(split["batches"])]
        chosen = qual_oracle(positions, gammas, *split["chosen"], tree.window)
        assert chosen >= max(replayed) - 1e-12


def test_identical_gammas_tie_broken_by_balance():
    tree = make_recording_tree(capacity=10, split_candidates=50, seed=7)
    rng = np.random.default_rng(7)
    for _ in range(11):
        tree.update(rng.random(2), -0.5, RecordOrigin.SELF_GENERATED)
    split = tree.splits[0]
    dim, value = split["chosen"]
    assert qual_oracle(split["positions"], split["gammas"], dim, value, tree.window) == 0.0
    goes_left = split["positions"][:, dim] < value
    best_product = max(n_left * n_right for *_, n_left, n_right in _cuts(split["batches"]))
    assert int(goes_left.sum()) * int((~goes_left).sum()) == best_product


@pytest.mark.parametrize("count", [2, 7, 30, 61])
def test_candidate_scores_equal_the_one_cut_formula_bitwise(count):
    tree = make_tree(window=24, seed=11)
    rng = np.random.default_rng(count)
    # Coordinates on a coarse grid, so cuts fall on ties and leave sides empty.
    positions = rng.integers(0, 5, size=(count, 2)) / 4.0
    gammas = -rng.random(count)
    gammas[::5] = -1.0
    dims = rng.integers(0, 2, size=80)
    values = rng.integers(0, 6, size=80) / 4.0 - rng.integers(0, 2, size=80) / 8.0
    quality, n_left, n_right = tree._cut_scores(dims, values, positions, gammas)
    assert quality.shape == n_left.shape == n_right.shape == dims.shape
    for dim, value, q, a, b in zip(dims.tolist(), values.tolist(), quality.tolist(), n_left.tolist(), n_right.tolist()):
        mask = positions[:, dim] < value
        assert (a, b) == (int(mask.sum()), int((~mask).sum()))
        assert q == qual_oracle(positions, gammas, dim, value, tree.window)


def test_empty_side_candidate_scores_zero():
    positions = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
    gammas = np.array([0.0, -1.0, -0.5])
    assert qual_oracle(positions, gammas, 0, 0.95, 4) == 0.0


def test_degenerate_identical_positions_do_not_split_forever():
    tree = make_tree(capacity=3)
    tree.split_retries = 2
    for _ in range(10):
        tree.update(np.array([0.5, 0.5]), -0.5, RecordOrigin.SELF_GENERATED)
    assert len(tree.leaves()) == 1  # no split possible, tree stays sound
    assert tree.root.count == 10


# ----------------------------------------------------------------- selection

def test_leaf_probabilities_min_subtraction():
    tree = make_tree(capacity=100)
    # Engineer three leaves via manual splits: interests (0.2, 0.1, 0.1).
    tree.root.split_dim, tree.root.split_value = 0, 0.5
    from goalbabbling.regions import Region

    left = Region(Box(np.array([0.0, 0.0]), np.array([0.5, 1.0])), depth=1)
    right = Region(Box(np.array([0.5, 0.0]), np.array([1.0, 1.0])), depth=1)
    right.split_dim, right.split_value = 1, 0.5
    right_bottom = Region(Box(np.array([0.5, 0.0]), np.array([1.0, 0.5])), depth=2)
    right_top = Region(Box(np.array([0.5, 0.5]), np.array([1.0, 1.0])), depth=2)
    right.left, right.right = right_bottom, right_top
    tree.root.left, tree.root.right = left, right
    tree._leaves = [left, right_bottom, right_top]
    tree._interests = np.array([0.2, 0.1, 0.1])
    np.testing.assert_allclose(tree.leaf_probabilities(), [1.0, 0.0, 0.0])


def test_single_leaf_mode1_equals_mode2():
    tree = make_tree(probabilities=(1.0, 0.0, 0.0), seed=9)
    rng = np.random.default_rng(9)
    points = np.array([tree.select_goal(rng)[0] for _ in range(4000)])
    assert np.all(points >= 0.0) and np.all(points <= 1.0)
    np.testing.assert_allclose(points.mean(axis=0), [0.5, 0.5], atol=0.03)


def test_mode_frequencies_match_probabilities():
    tree = make_tree(seed=10, probabilities=(0.7, 0.2, 0.1))
    rng = np.random.default_rng(10)
    for _ in range(30):
        tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
    modes = np.array([tree.select_goal(rng)[1] for _ in range(20000)])
    freqs = [(modes == m).mean() for m in (1, 2, 3)]
    np.testing.assert_allclose(freqs, [0.7, 0.2, 0.1], atol=0.02)


def test_mode3_points_near_worst_record():
    tree = make_tree(probabilities=(0.0, 0.0, 1.0), capacity=50, window=24)
    worst = np.array([0.25, 0.25])
    tree.update(worst, -1.0, RecordOrigin.SELF_GENERATED)
    for _ in range(5):
        tree.update(np.array([0.8, 0.8]), -0.1, RecordOrigin.SELF_GENERATED)
    rng = np.random.default_rng(11)
    points = np.array([tree.select_goal(rng)[0] for _ in range(500)])
    sigma = 0.05 * tree.root.bounds.diagonal
    distances = np.linalg.norm(points - worst, axis=1)
    assert np.median(distances) < 4 * sigma


def test_all_interests_equal_guard_uniform_choice():
    tree = make_tree(probabilities=(1.0, 0.0, 0.0), capacity=2, seed=12)
    rng = np.random.default_rng(12)
    for _ in range(12):
        tree.update(rng.random(2), -0.5, RecordOrigin.SELF_GENERATED)
    assert len(tree.leaves()) > 1
    probabilities = tree.leaf_probabilities()
    np.testing.assert_allclose(probabilities, np.full(len(probabilities), 1 / len(probabilities)))


def _replay(rng):
    copy = np.random.default_rng()
    copy.bit_generator.state = rng.bit_generator.state
    return copy


@pytest.mark.parametrize("prefix", [None, [0.3], [0.7]])
def test_draw_leaf_on_flat_interests_is_one_uniform_draw(prefix):
    tree = make_tree(capacity=2, seed=12)
    rng = np.random.default_rng(12)
    for _ in range(40):
        tree.update(rng.random(2), -0.5, RecordOrigin.SELF_GENERATED)
    slots = np.arange(len(tree.leaves())) if prefix is None else tree.admitting(prefix)
    assert len(slots) > 1 and not tree._interests[: len(tree.leaves())].any()
    for _ in range(20):
        replay = _replay(rng)
        leaf = tree.draw_leaf(rng, prefix)
        assert leaf is tree.leaves()[slots[weighted_index(replay, np.full(len(slots), 1.0 / len(slots)))]]
        assert rng.bit_generator.state == replay.bit_generator.state


def test_draw_leaf_follows_the_probabilities_of_the_admitted_leaves():
    tree = make_tree(capacity=5, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(300):
        point = rng.random(2)
        tree.update(point, -float(point[0] > 0.5) * rng.random(), RecordOrigin.SELF_GENERATED)
    prefix = [0.6]
    slots = tree.admitting(prefix)
    interests = np.array([interest_of(tree.leaves()[s].gammas[: tree.leaves()[s].count].tolist(), 6) for s in slots])
    probabilities = (interests - interests.min()) / (interests - interests.min()).sum()
    assert len(slots) > 2 and probabilities.max() < 1.0
    np.testing.assert_allclose(tree.leaf_probabilities(slots), probabilities)
    draws = 20000
    counts = dict.fromkeys(slots.tolist(), 0)
    for _ in range(draws):
        counts[tree.draw_leaf(rng, prefix).slot] += 1
    np.testing.assert_allclose([counts[s] / draws for s in slots.tolist()], probabilities, atol=0.015)


# ------------------------------------------------------------------ snapshot

def test_snapshot_fresh_tree():
    tree = make_tree()
    ((low, high, interest, count),) = tree.snapshot()
    np.testing.assert_array_equal(low, [0.0, 0.0])
    np.testing.assert_array_equal(high, [1.0, 1.0])
    assert interest == 0.0 and count == 0


def test_snapshot_after_split_unions_to_root():
    tree = make_tree(capacity=3, seed=13)
    rng = np.random.default_rng(13)
    for _ in range(4):
        tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
    snap = tree.snapshot()
    assert len(snap) == 2
    area = sum(np.prod(high - low) for low, high, _, _ in snap)
    assert area == pytest.approx(1.0)


def test_snapshot_boxes_pairwise_disjoint_on_random_trees():
    for seed in range(5):
        tree = make_tree(capacity=5, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(200):
            tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
        snap = tree.snapshot()
        for i, (low_a, high_a, _, _) in enumerate(snap):
            for low_b, high_b, _, _ in snap[i + 1 :]:
                overlap = np.minimum(high_a, high_b) - np.maximum(low_a, low_b)
                assert np.any(overlap <= 1e-12)  # interiors never intersect


def test_leaf_probabilities_form_a_distribution():
    for seed in range(4):
        tree = make_tree(capacity=5, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(150):
            tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
        probabilities = tree.leaf_probabilities()
        assert np.all(probabilities >= 0.0)
        assert probabilities.sum() == pytest.approx(1.0)
        interests = np.array([tree._interests[leaf.slot] for leaf in tree.leaves()])
        assert probabilities.argmax() == interests.argmax()


def test_depth_cap_stops_splitting():
    tree = make_tree(capacity=2, seed=14)
    tree.max_depth = 2
    rng = np.random.default_rng(14)
    for _ in range(200):
        tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
    for leaf in tree.leaves():
        assert leaf.depth <= 2
    assert sum(leaf.count for leaf in tree.leaves()) == 200


def test_leaf_at_the_class_depth_cap_stops_splitting():
    tree = make_tree(capacity=2, seed=15)
    assert tree.max_depth == RegionTree.max_depth == 20
    tree.root.depth = RegionTree.max_depth
    rng = np.random.default_rng(15)
    state = tree.rng.bit_generator.state
    for _ in range(50):
        tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
    assert tree.leaves() == [tree.root] and tree.root.count == 50
    assert tree.rng.bit_generator.state == state  # no split was even attempted
    # One level shallower, the same stream splits it.
    shallower = make_tree(capacity=2, seed=15)
    shallower.root.depth = RegionTree.max_depth - 1
    for point in tree.root.positions[:3]:
        shallower.update(point, -0.5, RecordOrigin.SELF_GENERATED)
    assert not shallower.root.is_leaf and {leaf.depth for leaf in shallower.leaves()} == {RegionTree.max_depth}


# ------------------------------------------------- per-leaf gammas, cut pick, degenerate leaves

def _grid_stream(seed, count, levels=4):
    """Points on a coarse grid (many exact repeats, cuts on ties) with
    gammas from a few values (ties on quality)."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, levels, size=(count, 2)) / (levels - 1)
    gammas = -rng.integers(0, 3, size=count) / 2.0
    return points, gammas


def _probabilities_from_scratch(tree):
    interests = np.array([interest_of(leaf.gammas[: leaf.count].tolist(), tree.window) for leaf in tree.leaves()])
    weights = interests - interests.min()
    total = weights.sum()
    if total <= 0.0:
        return np.full(len(interests), 1.0 / len(interests))
    return weights / total


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leaf_probabilities_equal_the_formula_through_splits(seed):
    tree = make_tree(capacity=5, seed=seed)
    points, gammas = _grid_stream(seed, 300, levels=5)
    rng = np.random.default_rng(seed + 50)
    stream = zip(np.vstack([points, rng.random((300, 2))]), np.concatenate([gammas, -rng.random(300)]))
    for step, (point, gamma) in enumerate(stream):
        tree.update(point, gamma, RecordOrigin.SELF_GENERATED)
        if step % 3 == 0:
            assert [leaf.slot for leaf in tree.leaves()] == list(range(len(tree.leaves())))
            assert np.array_equal(tree.leaf_probabilities(), _probabilities_from_scratch(tree))
            tree.select_goal(tree.rng)
    assert len(tree.leaves()) > 64  # past the interest array's first size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leaf_gammas_follow_records_through_splits(seed):
    tree = make_tree(capacity=6, seed=seed)
    points, gammas = _grid_stream(seed, 400, levels=6)
    rng = np.random.default_rng(seed)
    points, gammas = np.vstack([points, rng.random((200, 2))]), np.concatenate([gammas, -rng.random(200)])
    owners = []  # the leaf that holds each streamed point
    for point, gamma in zip(points, gammas):
        leaf = tree.update(point, gamma, RecordOrigin.SELF_GENERATED)
        owners.append(leaf)
        changed = [leaf]
        if not leaf.is_leaf:
            owners = [tree.locate(p.tolist()) for p in points[: len(owners)]]
            changed = [leaf.left, leaf.right]
        for leaf in changed if len(owners) < len(points) else tree.leaves():
            owned = [i for i, owner in enumerate(owners) if owner is leaf]
            np.testing.assert_array_equal(leaf.positions[: leaf.count], points[owned])
            np.testing.assert_array_equal(leaf.gammas[: leaf.count], gammas[owned])
            positions = {tuple(p) for p in leaf.positions[: leaf.count].tolist()}
            shared = leaf.shared_position
            assert (shared is not None) == (len(positions) == 1)
            if shared is not None:
                assert positions == {tuple(shared)}
    for node in _internal_nodes(tree.root):
        assert node.count == 0 and node.shared_position is None


def _internal_nodes(node):
    if node.is_leaf:
        return []
    return [node] + _internal_nodes(node.left) + _internal_nodes(node.right)


def _max_pick(cuts):
    """The cut ``max`` picks by (quality, balance): the first of the largest."""
    return max(cuts, key=lambda c: (c[2], c[3] * c[4]))


@pytest.mark.parametrize("count", [3, 11, 40, 97])
def test_best_cut_pick_equals_max_over_candidates(count):
    from goalbabbling.regions import _best_cut

    tree = make_tree(window=6, seed=count)
    rng = np.random.default_rng(count)
    for trial in range(50):
        positions, gammas = _grid_stream(count * 100 + trial, count)
        dims = rng.integers(0, 2, size=50)
        values = rng.integers(0, 5, size=50) / 4.0
        quality, n_left, n_right = tree._cut_scores(dims, values, positions, gammas)
        first_max = max(range(len(dims)), key=lambda i: (quality[i], n_left[i] * n_right[i]))
        assert _best_cut(quality, n_left * n_right) == first_max
    # Hand-made ties: on quality (0 for every cut) and on the balance product.
    quality = np.array([0.0, 0.5, 0.5, 0.25, 0.5])
    balance = np.array([9, 4, 6, 9, 6])
    assert _best_cut(quality, balance) == 2
    assert _best_cut(np.zeros(4), np.array([0, 3, 3, 2])) == 1
    assert _best_cut(np.zeros(3), np.zeros(3, dtype=int)) == 0


@pytest.mark.parametrize("seed", [5, 6])
def test_recorded_splits_pick_the_last_batch_max_or_the_median(seed):
    # The chosen cut is the max over the last batch of scored cuts, or,
    # when every cut of every batch leaves a side empty, the median of the
    # leaf's widest dimension; recording changes neither the splits nor the
    # stream.  Points 1e-9 apart leave every random cut one side empty.
    rng = np.random.default_rng(seed)
    cluster = 0.5 + rng.integers(0, 2, size=(300, 2)) * 1e-9, -rng.integers(0, 3, size=300) / 2.0
    picked = {"max": 0, "median": 0}
    for points, gammas in (_grid_stream(seed, 600, levels=8), cluster):
        trees = [make_tree(capacity=8, seed=seed), make_recording_tree(capacity=8, seed=seed)]
        for tree in trees:
            for point, gamma in zip(points, gammas):
                tree.update(point, gamma, RecordOrigin.SELF_GENERATED)
        plain, recorded = trees
        assert plain.rng.bit_generator.state == recorded.rng.bit_generator.state
        for a, b in zip(plain.snapshot(), recorded.snapshot(), strict=True):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2:] == b[2:]
        for split in recorded.splits:
            last = _cuts(split["batches"][-1:])
            if any(n_left and n_right for *_, n_left, n_right in last):
                picked["max"] += 1
                assert split["chosen"] == _max_pick(last)[:2]
            else:
                picked["median"] += 1
                assert len(split["batches"]) == recorded.split_retries
                assert not any(n_left and n_right for *_, n_left, n_right in _cuts(split["batches"]))
                j = int(np.argmax(split["bounds"].extent))
                assert split["chosen"] == (j, float(np.median(split["positions"][:, j])))
    assert picked["max"] and picked["median"]


class _ScoringEveryTree(RegionTree):
    """Scores every split attempt, as if no leaf were known to sit on one point."""

    def _split(self, leaf):
        leaf.shared_position = None
        super()._split(leaf)


@pytest.mark.parametrize("seed", [0, 3])
def test_degenerate_shortcut_keeps_splits_and_stream(seed):
    # Repeats of a few points fill leaves that sit on one point; the
    # shortcut must leave every split and every draw as scoring does.
    rng = np.random.default_rng(seed)
    anchors = rng.random((3, 2))
    points = np.vstack(
        [anchors[rng.integers(0, 3, size=300)], rng.random((60, 2)), anchors[rng.integers(0, 3, size=200)]]
    )
    gammas = -rng.random(points.shape[0])
    box = Box(np.zeros(2), np.ones(2))
    trees = [
        tree_type(box, rng=np.random.default_rng(seed), window=6, capacity=5, split_candidates=25)
        for tree_type in (RegionTree, _ScoringEveryTree)
    ]
    for tree in trees:
        for point, gamma in zip(points, gammas):
            tree.update(point, gamma, RecordOrigin.SELF_GENERATED)
    fast, slow = trees
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    for a, b in zip(fast.snapshot(), slow.snapshot(), strict=True):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2:] == b[2:]


def test_identical_updates_stay_cheap_and_draw_as_before():
    import time

    tree = RegionTree(Box(np.zeros(2), np.ones(2)), rng=np.random.default_rng(21))
    reference = np.random.default_rng(21)
    point = np.array([0.25, 0.75])
    started = time.perf_counter()
    for i in range(2000):
        tree.update(point, -0.5, RecordOrigin.EN_ROUTE)
        if i + 1 > tree.capacity:  # a split attempt: retries x (dims, values)
            for _ in range(tree.split_retries):
                reference.integers(0, 2, size=tree.split_candidates)
                reference.random(tree.split_candidates)
    assert time.perf_counter() - started < 5.0
    assert len(tree.leaves()) == 1 and tree.records_by_origin[RecordOrigin.EN_ROUTE] == 2000
    assert tree.rng.bit_generator.state == reference.bit_generator.state
    # A second position makes the leaf splittable again.
    tree.update(np.array([0.75, 0.25]), -1.0, RecordOrigin.EN_ROUTE)
    assert tree.root.shared_position is None and len(tree.leaves()) == 2


# ------------------------------------------ columns and counters against the stream

def _left_to_right(node):
    return [node] if node.is_leaf else _left_to_right(node.left) + _left_to_right(node.right)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    tiny=st.booleans(),
    max_depth=st.sampled_from([1, 3, RegionTree.max_depth]),
    capacity=st.integers(1, 6),
    window=st.sampled_from([2, 4, 6]),
)
def test_leaf_columns_and_counters_equal_the_stream(data, tiny, max_depth, capacity, window):
    # Streams mix fresh points, points outside the box (clipped), repeats
    # and points on earlier cut values.  A tiny box holds only a few floats
    # per side, so its leaves soon sit on one point or reach `max_depth`.
    low = np.array([1.0, -2.0])
    extent = 8 * np.spacing(np.abs(low)) if tiny else np.array([1.0, 3.0])
    box = Box(low, low + extent)
    seed = data.draw(st.integers(0, 2**32 - 1))
    tree = RegionTree(box, rng=np.random.default_rng(seed), window=window, capacity=capacity, split_candidates=5)
    tree.max_depth = max_depth
    unit = st.floats(-0.5, 1.5)
    stream = []  # (point as given, gamma, origin)
    for _ in range(data.draw(st.integers(0, 80))):
        kind = data.draw(st.sampled_from(["fresh", "repeat", "cut"]))
        cuts = _internal_nodes(tree.root)
        if kind == "repeat" and stream:
            point = stream[data.draw(st.integers(0, len(stream) - 1))][0].copy()
        else:
            point = low + np.array([data.draw(unit), data.draw(unit)]) * extent
            if kind == "cut" and cuts:
                node = cuts[data.draw(st.integers(0, len(cuts) - 1))]
                point[node.split_dim] = node.split_value
        gamma = data.draw(st.sampled_from([0.0, -0.5, -1.0]) | st.floats(-1.0, 0.0))
        origin = data.draw(st.sampled_from(list(RecordOrigin)))
        tree.update(point, gamma, origin)
        stream.append((point, gamma, origin))

    points = np.array([box.clip(point) for point, _, _ in stream]).reshape(-1, 2)
    gammas = np.array([gamma for _, gamma, _ in stream])
    owners = [tree.locate(point.tolist()) for point in points]
    leaves = tree.leaves()
    assert sum(leaf.count for leaf in leaves) == len(stream)
    for leaf in leaves:
        owned = [i for i, owner in enumerate(owners) if owner is leaf]
        assert np.array_equal(leaf.positions[: leaf.count], points[owned])
        assert np.array_equal(leaf.gammas[: leaf.count], gammas[owned])
        assert tree._interests[leaf.slot] == interest_of(gammas[owned].tolist(), window)
        assert leaf.depth <= max_depth
    assert tree.records_by_origin == {o: sum(origin is o for _, _, origin in stream) for o in RecordOrigin}
    assert tree.clipped_updates == sum(not box.contains(point) for point, _, _ in stream)
    # An empty prefix admits every leaf, in ascending slot order; they are
    # the leaves of a left-to-right walk.  A point's full cut box admits
    # exactly the leaf that holds it.
    assert tree.admitting([]).tolist() == list(range(len(leaves)))
    assert sorted(_left_to_right(tree.root), key=lambda leaf: leaf.slot) == leaves
    for point, owner in zip(points, owners):
        assert [leaves[s] for s in tree.admitting(point)] == [owner]


# ------------------------------------------------- a block of records against one record per call

def _tree_state(tree):
    """Everything an update can change, as comparable values."""
    n = len(tree.leaves())
    leaves = [
        (
            leaf.slot, leaf.depth, leaf.bounds.low.tobytes(), leaf.bounds.high.tobytes(), leaf.count,
            leaf.positions[: leaf.count].tobytes(), leaf.gammas[: leaf.count].tobytes(), leaf.shared_position,
        )
        for leaf in tree.leaves()
    ]
    cuts = (tree._cut_low[:, :n].tobytes(), tree._cut_high[:, :n].tobytes())
    return (
        leaves, tree._interests[:n].tobytes(), cuts, dict(tree.records_by_origin), tree.clipped_updates,
        tree.rng.bit_generator.state,
    )


def _leaf_key(leaf):
    return None if leaf is None else (leaf.slot, leaf.depth, leaf.bounds.low.tobytes(), leaf.is_leaf)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    tiny=st.booleans(),
    max_depth=st.sampled_from([1, 3, RegionTree.max_depth]),
    capacity=st.integers(1, 6),
    window=st.sampled_from([2, 4, 6]),
)
def test_update_many_equals_one_update_per_row(data, tiny, max_depth, capacity, window):
    # Blocks of 0-12 rows, each with one gamma and origin, mixing fresh
    # points, points outside the box (clipped), repeats and points on
    # earlier cut values.  A tiny box holds only a few floats per side, so
    # its leaves soon sit on one point or reach `max_depth`; small
    # capacities split leaves inside a block.
    low = np.array([1.0, -2.0])
    extent = 8 * np.spacing(np.abs(low)) if tiny else np.array([1.0, 3.0])
    box = Box(low, low + extent)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rows, blocks = (
        RegionTree(box, rng=np.random.default_rng(seed), window=window, capacity=capacity, split_candidates=5)
        for _ in range(2)
    )
    rows.max_depth = blocks.max_depth = max_depth
    unit = st.floats(-0.5, 1.5)
    seen = []
    for _ in range(data.draw(st.integers(1, 12))):
        cuts = _internal_nodes(rows.root)
        block = []
        for _ in range(data.draw(st.integers(0, 12))):
            kind = data.draw(st.sampled_from(["fresh", "repeat", "cut"]))
            if kind == "repeat" and seen:
                point = seen[data.draw(st.integers(0, len(seen) - 1))].copy()
            else:
                point = low + np.array([data.draw(unit), data.draw(unit)]) * extent
                if kind == "cut" and cuts:
                    node = cuts[data.draw(st.integers(0, len(cuts) - 1))]
                    point[node.split_dim] = node.split_value
            block.append(point)
            seen.append(point)
        points = np.array(block).reshape(-1, 2)
        gamma = data.draw(st.sampled_from([0.0, -0.5, -1.0]) | st.floats(-1.0, 0.0))
        origin = data.draw(st.sampled_from(list(RecordOrigin)))
        last = None
        for point in points:
            last = rows.update(point, gamma, origin)
        assert _leaf_key(blocks.update_many(points, gamma, origin)) == _leaf_key(last)
        assert _tree_state(blocks) == _tree_state(rows)


def test_update_many_splits_inside_a_block_as_one_update_per_row():
    # One block fills the root many times over, so leaves split inside it;
    # a second block reaches leaves at `max_depth`.
    rng = np.random.default_rng(31)
    rows, blocks = make_tree(seed=31, capacity=3), make_tree(seed=31, capacity=3)
    for tree in (rows, blocks):
        tree.max_depth = 4
    first, second = rng.uniform(-0.2, 1.2, (60, 2)), rng.random((200, 2))
    for points, gamma in ((first, -0.25), (second, -0.75)):
        for point in points:
            rows.update(point, gamma, RecordOrigin.EN_ROUTE)
        blocks.update_many(points, gamma, RecordOrigin.EN_ROUTE)
        assert _tree_state(blocks) == _tree_state(rows)
    assert len(rows.leaves()) > 4 and {leaf.depth for leaf in rows.leaves()} >= {4}
    assert rows.clipped_updates > 0
    assert blocks.update_many(np.empty((0, 2)), -1.0, RecordOrigin.EN_ROUTE) is None
    assert _tree_state(blocks) == _tree_state(rows)
