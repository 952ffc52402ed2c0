"""Recursive partition of the task space driven by competence progress.

Leaves of a binary split tree hold the recent outcomes observed inside
their box.  A leaf's *interest* is the absolute difference between the
summed scores of the older and newer halves of its sliding window: flat
score histories (mastered or hopeless areas) score 0, while rising or
falling histories score high and attract goal sampling.

Splits are chosen among randomly drawn axis-aligned cuts to maximize
``card(left) * card(right) * |interest(left) - interest(right)|``, which
separates areas of differing learnability as sharply as possible.

The tree owns its leaves' data.  A leaf keeps its records as columns, the
first ``count`` rows of a positions and a gammas array.  Per leaf slot the
tree keeps the interest and the cut box: the half-open box its ancestors'
cuts admit, unbounded where no cut bounds it.
Records carry no tags; the tree counts them by origin.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .rng import weighted_index
from .spaces import Box, grown


class RecordOrigin(enum.Enum):
    SELF_GENERATED = "self_generated"
    SUBGOAL = "subgoal"
    EN_ROUTE = "en_route"


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
    # The records, oldest first: rows [:count] of `positions` and `gammas`.
    # ``gamma`` is a clipped competence in [-1, 0] for task-space trees; an
    # actuator-space tree stores its prediction errors there instead.
    positions: np.ndarray | None = None
    gammas: np.ndarray | None = None
    count: int = 0
    # The position every record shares, as floats; None when they differ
    # or there are none.  While it is set, no cut can split the leaf.
    shared_position: list[float] | None = None
    # Position of a leaf in its tree's leaf list.
    slot: int = 0
    split_dim: int | None = None
    split_value: float = 0.0
    left: "Region | None" = None
    right: "Region | None" = None

    def __post_init__(self):
        if self.positions is None:
            self.positions, self.gammas = np.empty((8, self.bounds.dim)), np.empty(8)

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
        # Per slot, in step with `_leaves` (entry or column i is leaf i's;
        # the arrays grow by doubling and their tails are unused): the
        # interest and the cut box [low, high) that the cuts above it admit.
        self._interests = np.zeros(64)
        self._cut_low = np.full((bounds.dim, 64), -np.inf)
        self._cut_high = np.full((bounds.dim, 64), np.inf)
        self.records_by_origin = dict.fromkeys(RecordOrigin, 0)
        self.clipped_updates = 0

    # ------------------------------------------------------------------ update

    def locate(self, point) -> Region:
        """The leaf whose box holds `point`; a list of floats is the fastest form."""
        node = self.root
        while node.left is not None:
            node = node.left if point[node.split_dim] < node.split_value else node.right
        return node

    def update(self, point: np.ndarray, gamma: float, origin: RecordOrigin) -> Region:
        """Record one outcome: the one-row case of `update_many`."""
        return self.update_many(np.asarray(point, dtype=float)[None], gamma, origin)

    def update_many(self, points: np.ndarray, gamma: float, origin: RecordOrigin) -> Region | None:
        """Record an outcome at every row of `points`, in order, all with
        `gamma`; return the leaf the last row went into (None for no rows).

        A row outside the box is clipped onto it and counted.  A leaf
        splits when a row fills it past capacity, so the records and the
        split draws are those of one call per row.  Interest is read only
        between calls, so each leaf the block reached gets it refreshed
        once, at the end.
        """
        points = np.asarray(points, dtype=float)
        inside = (points >= self.bounds.low) & (points <= self.bounds.high)
        if not inside.all():
            outside = ~inside.all(axis=1)
            points = np.where(outside[:, None], self.bounds.clip(points), points)
            self.clipped_updates += int(np.count_nonzero(outside))
        reached = {}  # the leaves the block went into, in order (a set that keeps order)
        leaf = None
        for i, coords in enumerate(points.tolist()):
            leaf = self.locate(coords)
            if not leaf.count:
                leaf.shared_position = coords
            elif leaf.shared_position is not None and leaf.shared_position != coords:
                leaf.shared_position = None
            if leaf.count == leaf.gammas.shape[0]:
                leaf.positions, leaf.gammas = grown(leaf.positions), grown(leaf.gammas)
            leaf.positions[leaf.count] = points[i]
            leaf.gammas[leaf.count] = gamma
            leaf.count += 1
            reached[leaf] = None
            if leaf.count > self.capacity and leaf.depth < self.max_depth:
                self._split(leaf)
        self.records_by_origin[origin] += points.shape[0]
        for region in reached:
            if region.is_leaf:
                self._interests[region.slot] = self._interest(region)
        return leaf

    def _interest(self, leaf: Region) -> float:
        """`interest_of` the leaf's last `window` gammas, as Python floats."""
        return interest_of(leaf.gammas[max(0, leaf.count - self.window) : leaf.count].tolist(), self.window)

    # ------------------------------------------------------------------ split

    def _split(self, leaf: Region) -> None:
        low, high = leaf.bounds.low, leaf.bounds.high
        dim = self.bounds.dim
        # With every record on one point no cut can leave both sides
        # non-empty, so the cuts are drawn (keeping the stream in step) but
        # not scored.
        degenerate = leaf.shared_position is not None
        positions, gammas = leaf.positions[: leaf.count], leaf.gammas[: leaf.count]

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
        left = self._child(leaf, Box(low, left_high), goes_left, leaf.slot)
        right = self._child(leaf, Box(right_low, high), ~goes_left, len(self._leaves))

        leaf.split_dim, leaf.split_value = j, v
        leaf.left, leaf.right = left, right
        leaf.positions, leaf.gammas, leaf.count = np.empty((0, dim)), np.empty(0), 0
        leaf.shared_position = None
        if right.slot == self._interests.shape[0]:
            self._interests = grown(self._interests)
            self._cut_low, self._cut_high = grown(self._cut_low, axis=1), grown(self._cut_high, axis=1)
        self._leaves[left.slot] = left
        self._leaves.append(right)
        self._interests[left.slot] = self._interest(left)
        self._interests[right.slot] = self._interest(right)
        # The left child keeps its parent's cut box, the right one copies
        # it, and each side is cut at v.
        for cut in (self._cut_low, self._cut_high):
            cut[:, right.slot] = cut[:, left.slot]
        self._cut_high[j, left.slot] = self._cut_low[j, right.slot] = v

    def _child(self, leaf: Region, box: Box, mask: np.ndarray, slot: int) -> Region:
        """The child of `leaf` in `box`, holding the records that `mask` picks."""
        at = leaf.positions[: leaf.count][mask]
        child = Region(box, leaf.depth + 1, at, leaf.gammas[: leaf.count][mask], at.shape[0], slot=slot)
        if (at == at[0]).all():
            child.shared_position = at[0].tolist()
        return child

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

    def admitting(self, point) -> np.ndarray:
        """Slots, ascending, of the leaves whose cut box admits `point` on
        its first ``len(point)`` coordinates: the leaves a descent reaches
        when it follows `point` at cuts on those coordinates and takes both
        sides of every other cut."""
        n, k = len(self._leaves), len(point)
        point = np.asarray(point, dtype=float)[:, None]
        admits = (self._cut_low[:k, :n] <= point) & (point < self._cut_high[:k, :n])
        return np.flatnonzero(np.logical_and.reduce(admits, axis=0))

    def leaf_probabilities(self, slots: np.ndarray | None = None) -> np.ndarray:
        """Selection probabilities of the leaves in `slots` (of every leaf, in
        slot order, when None): interest above the minimum, normalized, and
        uniform when all their interests are equal."""
        interests = self._interests[: len(self._leaves)] if slots is None else self._interests[slots]
        weights = interests - interests.min()
        total = weights.sum()
        if total <= 0.0:
            return np.full(len(interests), 1.0 / len(interests))
        return weights / total

    def draw_leaf(self, rng: np.random.Generator, prefix=None) -> Region:
        """A leaf drawn by `leaf_probabilities` with one uniform draw from `rng`,
        among the leaves `admitting` the point `prefix` (all when it is None)."""
        slots = None if prefix is None else self.admitting(prefix)
        pick = weighted_index(rng, self.leaf_probabilities(slots))
        return self._leaves[pick if slots is None else slots[pick]]

    def select_goal(self, rng: np.random.Generator) -> tuple[np.ndarray, int]:
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
        leaf = self.draw_leaf(rng)
        if mode == self.MODE_INTEREST or not leaf.count:
            return leaf.bounds.sample(rng), mode
        # Mode 3: perturb around the worst (first lowest) outcome in the
        # leaf's window.
        start = max(0, leaf.count - self.window)
        worst = start + int(np.argmin(leaf.gammas[start : leaf.count]))
        sigma = self.near_sigma_fraction * leaf.bounds.diagonal
        point = leaf.positions[worst] + rng.normal(0.0, sigma, size=self.bounds.dim)
        return leaf.bounds.clip(point), mode

    # ------------------------------------------------------------------ export

    def snapshot(self) -> list[tuple[np.ndarray, np.ndarray, float, int]]:
        """(low, high, interest, record count) for every leaf."""
        return [
            (leaf.bounds.low.copy(), leaf.bounds.high.copy(), float(self._interests[leaf.slot]), leaf.count)
            for leaf in self._leaves
        ]
