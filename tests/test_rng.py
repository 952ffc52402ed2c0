import numpy as np
import pytest

from goalbabbling.regions import RecordOrigin, RegionTree
from goalbabbling.rng import weighted_index
from goalbabbling.spaces import Box


def assert_draws_like_choice(p, seed, draws=5):
    ours, numpy_choice = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert weighted_index(ours, p) == numpy_choice.choice(len(p), p=p)
        assert ours.bit_generator.state == numpy_choice.bit_generator.state


@pytest.mark.parametrize("seed", range(40))
def test_weighted_index_equals_choice_on_random_weights(seed):
    rng = np.random.default_rng(seed)
    weights = rng.random(int(rng.integers(2, 3000))) ** int(rng.integers(1, 6))
    weights[rng.random(weights.shape[0]) < 0.2] = 0.0
    # Shifted by the minimum, as both callers do.
    weights -= weights.min()
    assert_draws_like_choice(weights / weights.sum(), seed)


def test_weighted_index_equals_choice_on_the_uniform_fallback():
    tree = RegionTree(Box(np.zeros(2), np.ones(2)), rng=np.random.default_rng(3), window=6, capacity=2)
    rng = np.random.default_rng(3)
    for _ in range(40):
        tree.update(rng.random(2), -0.5, RecordOrigin.SELF_GENERATED)
    p = tree.leaf_probabilities()
    assert len(p) > 5 and np.all(p == p[0])
    assert_draws_like_choice(p, 4)


def test_weighted_index_equals_choice_on_a_single_leaf():
    assert_draws_like_choice(np.ones(1), 5)


@pytest.mark.parametrize("hot", [0, 7, 999])
def test_weighted_index_equals_choice_on_one_nonzero_weight(hot):
    p = np.zeros(1000)
    p[hot] = 1.0
    assert_draws_like_choice(p, hot)
    assert weighted_index(np.random.default_rng(0), p) == hot
