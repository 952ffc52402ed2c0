"""Recursive partition of the task space driven by competence progress.

Leaves of a binary split tree hold the recent outcomes observed inside
their box.  A leaf's *interest* is the absolute difference between the
summed scores of the older and newer halves of its sliding window: flat
score histories (mastered or hopeless areas) score 0, while rising or
falling histories score high and attract goal sampling.

Splits are chosen among randomly drawn axis-aligned cuts to maximize
``card(left) * card(right) * |interest(left) - interest(right)|``, which
separates areas of differing learnability as sharply as possible.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .rng import weighted_index
from .spaces import Box


class RecordOrigin(enum.Enum):
    SELF_GENERATED = "self_generated"
    SUBGOAL = "subgoal"
    EN_ROUTE = "en_route"


@dataclass(frozen=True, slots=True)
class GoalRecord:
    """One scored outcome inside a region.

    ``gamma`` is a clipped competence in [-1, 0] for task-space trees; an
    actuator-space tree stores its prediction errors here instead.
    """

    position: np.ndarray
    gamma: float
    order_index: int
    origin: RecordOrigin


def interest_of(gammas, window: int) -> float:
    """Windowed competence progress: |sum(older half) - sum(newer half)| / window.

    The halves are the first and last ``len//2`` entries of the last
    ``window`` scores; with fewer than two scores there is no progress to
    measure and the interest is 0.  The fixed denominator keeps the value
    of short histories small, ramping up as evidence accumulates.
    """
    if window < 2 or window % 2:
        raise ValueError("window must be an even integer >= 2")
    tail = list(gammas)[-window:]
    half = len(tail) // 2
    if half == 0:
        return 0.0
    return abs(sum(tail[:half]) - sum(tail[len(tail) - half :])) / window


def _interests_of_subsets(members: np.ndarray, gammas: np.ndarray, window: int) -> np.ndarray:
    """``interest_of(gammas[row])`` for every boolean row of `members`, bit
    for bit: each half of a window is summed one score at a time, oldest
    first, as ``interest_of`` sums it."""
    rank = np.cumsum(members[:, ::-1], axis=1)[:, ::-1]  # 1 for a row's newest member
    length = np.minimum(members.sum(axis=1), window)[:, None]
    half = length // 2
    older = members & (rank > length - half) & (rank <= length)
    newer = members & (rank <= half)
    older_sum = np.cumsum(np.where(older, gammas, 0.0), axis=1)[:, -1]
    newer_sum = np.cumsum(np.where(newer, gammas, 0.0), axis=1)[:, -1]
    return np.abs(older_sum - newer_sum) / window


@dataclass(eq=False)
class Region:
    bounds: Box
    depth: int = 0
    records: list[GoalRecord] = field(default_factory=list)
    # The records' gammas, in step with `records`.
    gammas: list[float] = field(default_factory=list)
    # The position every record shares, as floats; None when they differ
    # or there are none.  While it is set, no cut can split the leaf.
    shared_position: list[float] | None = None
    interest: float = 0.0
    # Position of a leaf in its tree's leaf list.
    slot: int = 0
    split_dim: int | None = None
    split_value: float = 0.0
    left: "Region | None" = None
    right: "Region | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_cut(quality: np.ndarray, balance: np.ndarray) -> int:
    """Index of the first cut that is largest by (quality, balance), the one
    ``max`` picks over the candidates with that key."""
    top = np.flatnonzero(quality == quality.max())
    return int(top[np.argmax(balance[top])])


class RegionTree:
    """Task-space partition with interest-driven goal sampling.

    Goal selection modes:

    1. uniform point inside a leaf drawn with probability proportional to
       its interest above the minimum interest;
    2. uniform point inside the whole space;
    3. leaf drawn as in mode 1, then a point near its worst recent outcome.
    """

    MODE_INTEREST = 1
    MODE_UNIFORM = 2
    MODE_LOW_COMPETENCE = 3
    # A leaf this deep never splits.
    max_depth = 20
    # Mode 3 perturbs with this fraction of the leaf's diagonal as sigma.
    near_sigma_fraction = 0.05
    # Batches of random cuts drawn before the median fallback.
    split_retries = 10

    def __init__(
        self,
        bounds: Box,
        rng: np.random.Generator,
        window: int = 24,
        capacity: int = 50,
        split_candidates: int = 50,
        probabilities: tuple[float, float, float] = (0.7, 0.2, 0.1),
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if window < 2 or window % 2:
            raise ValueError("window must be an even integer >= 2")
        if abs(sum(probabilities) - 1.0) > 1e-9:
            raise ValueError("mode probabilities must sum to 1")
        self.bounds = bounds
        self.rng = rng
        self.window = int(window)
        self.capacity = int(capacity)
        self.split_candidates = int(split_candidates)
        self.probabilities = tuple(float(p) for p in probabilities)
        self.root = Region(bounds)
        self._leaves: list[Region] = [self.root]
        # The leaves' interests, in step with `_leaves`: slot i holds leaf
        # i's; the array grows by doubling and its tail is unused.
        self._interests = np.zeros(64)
        self._order = 0
        self.total_records = 0
        self.clipped_updates = 0

    # ------------------------------------------------------------------ update

    def locate(self, point) -> Region:
        """The leaf whose box holds `point`; a list of floats is the fastest form."""
        node = self.root
        while node.left is not None:
            node = node.left if point[node.split_dim] < node.split_value else node.right
        return node

    def update(self, point: np.ndarray, gamma: float, origin: RecordOrigin) -> Region:
        """Record an outcome, refresh the leaf's interest, split when full."""
        point = np.asarray(point, dtype=float)
        if not self.bounds.contains(point):
            point = self.bounds.clip(point)
            self.clipped_updates += 1
        else:
            point = point.copy()
        coords = point.tolist()
        leaf = self.locate(coords)
        gamma = float(gamma)
        if not leaf.records:
            leaf.shared_position = coords
        elif leaf.shared_position is not None and leaf.shared_position != coords:
            leaf.shared_position = None
        leaf.records.append(GoalRecord(point, gamma, self._order, origin))
        leaf.gammas.append(gamma)
        self._order += 1
        self.total_records += 1
        leaf.interest = self._interests[leaf.slot] = interest_of(leaf.gammas[-self.window :], self.window)
        if len(leaf.records) > self.capacity and leaf.depth < self.max_depth:
            self._split(leaf)
        return leaf

    # ------------------------------------------------------------------ split

    def _split(self, leaf: Region) -> None:
        low, high = leaf.bounds.low, leaf.bounds.high
        dim = self.bounds.dim
        # With every record on one point no cut can leave both sides
        # non-empty, so the cuts are drawn (keeping the stream in step) but
        # not scored.
        degenerate = leaf.shared_position is not None
        if not degenerate:
            positions = np.array([r.position for r in leaf.records])
            gammas = np.array(leaf.gammas)

        for _ in range(self.split_retries):
            dims = self.rng.integers(0, dim, size=self.split_candidates)
            values = low[dims] + self.rng.random(self.split_candidates) * (high[dims] - low[dims])
            if degenerate:
                continue
            quality, n_left, n_right = self._cut_scores(dims, values, positions, gammas)
            best = _best_cut(quality, n_left * n_right)
            if n_left[best] and n_right[best]:
                j, v = int(dims[best]), float(values[best])
                break
        else:
            if degenerate:
                return
            # Every random cut left a side empty: fall back to the median of
            # the widest dimension, or give up on fully degenerate data.
            j = int(np.argmax(high - low))
            v = float(np.median(positions[:, j]))
        goes_left = positions[:, j] < v
        if goes_left.all() or not goes_left.any():
            return

        left_high = high.copy()
        left_high[j] = v
        right_low = low.copy()
        right_low[j] = v
        left = Region(Box(low, left_high), depth=leaf.depth + 1, slot=leaf.slot)
        right = Region(Box(right_low, high), depth=leaf.depth + 1, slot=len(self._leaves))
        for record, is_left in zip(leaf.records, goes_left.tolist()):
            side = left if is_left else right
            side.records.append(record)
            side.gammas.append(record.gamma)
        for side, at in ((left, positions[goes_left]), (right, positions[~goes_left])):
            if (at == at[0]).all():
                side.shared_position = at[0].tolist()
            side.interest = interest_of(side.gammas[-self.window :], self.window)

        leaf.split_dim, leaf.split_value = j, v
        leaf.left, leaf.right = left, right
        leaf.records = []
        leaf.gammas = []
        leaf.shared_position = None
        leaf.interest = 0.0
        if right.slot == self._interests.shape[0]:
            self._interests = np.concatenate([self._interests, np.zeros_like(self._interests)])
        self._leaves[left.slot] = left
        self._leaves.append(right)
        self._interests[left.slot] = left.interest
        self._interests[right.slot] = right.interest

    def _cut_scores(
        self, dims: np.ndarray, values: np.ndarray, positions: np.ndarray, gammas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quality and side sizes of the cuts ``position[dims[c]] < values[c]``.

        A cut scores ``n_left * n_right * |interest(left) - interest(right)|``,
        or 0 when it leaves a side empty.
        """
        left = positions[:, dims].T < values[:, None]  # cuts x records
        n_left = left.sum(axis=1)
        n_right = left.shape[1] - n_left
        left_interest = _interests_of_subsets(left, gammas, self.window)
        right_interest = _interests_of_subsets(~left, gammas, self.window)
        gap = np.abs(left_interest - right_interest)
        quality = np.where((n_left > 0) & (n_right > 0), n_left * n_right * gap, 0.0)
        return quality, n_left, n_right

    # ------------------------------------------------------------------ selection

    def leaves(self) -> list[Region]:
        return list(self._leaves)

    def leaf_probabilities(self) -> np.ndarray:
        """Selection probabilities: interest above the minimum, normalized.

        When every leaf has the same interest the choice is uniform.
        """
        interests = self._interests[: len(self._leaves)]
        weights = interests - interests.min()
        total = weights.sum()
        if total <= 0.0:
            return np.full(len(self._leaves), 1.0 / len(self._leaves))
        return weights / total

    def select_goal(self, rng: np.random.Generator | None = None) -> tuple[np.ndarray, int]:
        rng = self.rng if rng is None else rng
        p1, p2, _ = self.probabilities
        draw = rng.random()
        if draw < p1:
            mode = self.MODE_INTEREST
        elif draw < p1 + p2:
            mode = self.MODE_UNIFORM
        else:
            mode = self.MODE_LOW_COMPETENCE

        if mode == self.MODE_UNIFORM:
            return self.bounds.sample(rng), mode
        leaf = self._leaves[weighted_index(rng, self.leaf_probabilities())]
        if mode == self.MODE_INTEREST or not leaf.records:
            return leaf.bounds.sample(rng), mode
        # Mode 3: perturb around the worst outcome in the leaf's window.
        tail = leaf.records[-self.window :]
        worst = min(tail, key=lambda r: r.gamma)
        sigma = self.near_sigma_fraction * leaf.bounds.diagonal
        point = worst.position + rng.normal(0.0, sigma, size=self.bounds.dim)
        return leaf.bounds.clip(point), mode

    # ------------------------------------------------------------------ export

    def snapshot(self) -> list[tuple[np.ndarray, np.ndarray, float, int]]:
        """(low, high, interest, record count) for every leaf."""
        return [
            (leaf.bounds.low.copy(), leaf.bounds.high.copy(), leaf.interest, len(leaf.records))
            for leaf in self._leaves
        ]
