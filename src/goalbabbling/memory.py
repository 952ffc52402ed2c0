"""Incremental sensorimotor memory with local linear models.

Entries are stored in flat growing arrays; nearest-neighbor retrieval runs
on a kd-tree that is rebuilt every few hundred inserts, with the
not-yet-indexed tail searched exactly.  A batched query over many keys
picks its tail points through one matrix product per block of keys that
rules out the far rows with a proven rounding bound, and recomputes exact
distances for the rest, so it returns the same bits as one query per key.

Two memory flavours exist:

* ``EvolvingMemory`` stores (context, action, effect-change) triples keyed
  by the context, and fits local Jacobians of effect-change per action.
* ``FixedMemory`` stores (params, effect) pairs keyed by the effect (with a
  secondary key on the params), and fits local inverse models effect->params.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .spaces import grown

# Keys per exact tail scan, so the (keys x tail x dim) difference array
# stays small.
_TAIL_CHUNK = 8
# From this many (key, tail row) pairs on, `query_many` filters the tail
# through a matrix product instead of scanning it.  The scan's cost hardly
# depends on the dimension at these sizes: on a 480-row tail the two break
# even near 2,000 pairs in 2-, 8- and 15-D alike.
_FILTER_MIN_PAIRS = 2_000
# Keys per filtered block.  A product of at most 2**18 multiply-adds runs
# on one OpenBLAS thread; on a 2-core machine a 100 x 15 by 15 x 464
# product took 14.8 ms on two threads and 0.17 ms on one.  32 keys against
# a full 511-row tail in 15-D (16 columns with the norm) stay below it.
_BLOCK_KEYS = 32
_ONE_THREAD_WORK = 1 << 18
# The tail filter's rounding bound is _ROUNDING * (dim + 3) relative to
# (|q| + max|t|)^2; `_filtered_tail` proves that it suffices.
_ROUNDING = 2.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
# `pseudo_inverse` inverts J J^T in closed form only above this ratio of
# its determinant to its squared trace (see there).
_WELL_CONDITIONED = 2.0**-20


class EmptyMemoryError(RuntimeError):
    """Raised when a nearest-neighbor query hits an empty memory."""


class NearestIndex:
    """Append-only point set with amortized kd-tree nearest-neighbor search.

    Points newer than the last tree build (the tail, at most
    ``rebuild_every - 1`` rows) are searched exactly, so queries stay exact.
    """

    def __init__(self, dim: int, rebuild_every: int = 512):
        self.dim = int(dim)
        self.rebuild_every = int(rebuild_every)
        self._rows = np.empty((256, dim), dtype=float)
        self._n = 0
        self._tree: cKDTree | None = None
        self._tree_n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def points(self) -> np.ndarray:
        return self._rows[: self._n]

    def add(self, row: np.ndarray) -> int:
        if self._n == self._rows.shape[0]:
            self._rows = grown(self._rows)
        self._rows[self._n] = row
        self._n += 1
        if self._n - self._tree_n >= self.rebuild_every:
            self._tree = cKDTree(self._rows[: self._n].copy())
            self._tree_n = self._n
        return self._n - 1

    def query(self, key: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the k nearest points, ascending: the
        tree's and the tail's nearest merged by distance, the tree's first
        on ties."""
        if self._n == 0:
            raise EmptyMemoryError("nearest-neighbor query on empty memory")
        k_eff = min(k, self._n)
        if self._tree is not None:
            dist, idx = self._tree.query(key, k=min(k_eff, self._tree_n))
            idx = np.atleast_1d(idx).astype(np.intp)
            dist = np.atleast_1d(dist)
            if self._tree_n == self._n:
                return idx, dist
        tail_idx, tail_d2 = _tail_first_k(self._rows[self._tree_n : self._n], key, k_eff)
        tail_idx += self._tree_n
        tail_dist = np.sqrt(tail_d2)
        if self._tree is None:
            return tail_idx, tail_dist
        # Merge only when both sides contribute.  False comparisons (NaN)
        # fall through to the merge, which sorts NaN last.
        if dist.shape[0] == k_eff and dist[-1] <= tail_dist[0]:
            return idx, dist
        if tail_dist.shape[0] == k_eff and tail_dist[-1] < dist[0]:
            return tail_idx, tail_dist
        idx = np.concatenate((idx, tail_idx))
        dist = np.concatenate((dist, tail_dist))
        order = np.argsort(dist, kind="stable")[:k_eff]
        return idx[order], dist[order]

    def query_many(self, keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i equals ``query(keys[i], k)``: one tree call for all keys,
        and one pick of the nearest tail points (``_tail_nearest``)."""
        if self._n == 0:
            raise EmptyMemoryError("nearest-neighbor query on empty memory")
        rows = keys.shape[0]
        k_eff = min(k, self._n)
        tail = self._rows[self._tree_n : self._n]
        if self._tree is not None:
            kt = min(k_eff, self._tree_n)
            tree_dist, tree_idx = self._tree.query(keys, k=kt)
            tree_idx = tree_idx.reshape(rows, kt).astype(np.intp)
            tree_dist = tree_dist.reshape(rows, kt)
            if not tail.shape[0]:
                return tree_idx, tree_dist
        tail_idx, tail_d2 = _tail_nearest(tail, keys, min(k_eff, tail.shape[0]))
        tail_idx += self._tree_n
        tail_dist = np.sqrt(tail_d2)
        if self._tree is None:
            return tail_idx, tail_dist
        idx = np.concatenate([tree_idx, tail_idx], axis=1)
        dist = np.concatenate([tree_dist, tail_dist], axis=1)
        order = np.argsort(dist, axis=1, kind="stable")[:, :k_eff]
        row_of = np.arange(rows)[:, None]
        return idx[row_of, order], dist[row_of, order]


def _tail_first_k(tail: np.ndarray, key: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k tail rows by (squared distance, row) from one key, and
    those squared distances: ``order = np.argsort(d2, kind="stable")[:k]``
    and ``d2[order]``.  Only the rows no farther than the k-th nearest
    (ties included) are sorted; a NaN k-th distance, which sorts last,
    sorts them all."""
    diff = tail - key
    d2 = np.einsum("ij,ij->i", diff, diff)
    if k < d2.shape[0]:
        kth = np.partition(d2, k - 1)[k - 1]
        if kth == kth:  # False for NaN
            kept = (d2 <= kth).nonzero()[0]
            order = kept[d2[kept].argsort(kind="stable")[:k]]
            return order, d2[order]
    order = np.argsort(d2, kind="stable")[:k]
    return order, d2[order]


def _tail_nearest(tail: np.ndarray, keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k tail rows of every key by (squared distance, row), and
    those squared distances: row i equals ``order = np.argsort(d2,
    kind="stable")[:k]`` and ``d2[order]``, where ``d2`` holds the distances
    from ``keys[i]`` as ``NearestIndex.query`` computes them.

    Small problems, and any k that keeps the whole tail, scan the tail
    exactly (``_scanned_tail``).  From ``_FILTER_MIN_PAIRS`` on, blocks of
    keys go through ``_filtered_tail``, which recomputes exact distances
    only for the tail rows a matrix product cannot rule out; a block it
    declines is scanned.  Both feed the same selection, ``_first_k``.
    """
    rows, (n, dim) = keys.shape[0], tail.shape
    if k >= n or rows * n < _FILTER_MIN_PAIRS:
        return _first_k(*_scanned_tail(tail, keys, k), rows, k)
    # Rows [q, 1] and [-2 t, |t|^2], so one product gives |t|^2 - 2 q.t.
    keys_1 = np.ones((rows, dim + 1))
    keys_1[:, :dim] = keys
    tail_1 = np.empty((n, dim + 1))
    np.multiply(tail, -2.0, out=tail_1[:, :dim])
    tail_1[:, dim] = np.vecdot(tail, tail)
    reach = np.sqrt(tail_1[:, dim].max())
    block = max(1, min(_BLOCK_KEYS, (_ONE_THREAD_WORK - 1) // (n * (dim + 1))))
    idx = np.empty((rows, k), dtype=np.intp)
    d2 = np.empty((rows, k))
    for lo in range(0, rows, block):
        block_keys = keys[lo : lo + block]
        candidates = _filtered_tail(tail, tail_1, reach, block_keys, keys_1[lo : lo + block], k)
        if candidates is None:
            candidates = _scanned_tail(tail, block_keys, k)
        idx[lo : lo + block], d2[lo : lo + block] = _first_k(*candidates, block_keys.shape[0], k)
    return idx, d2


def _scanned_tail(tail: np.ndarray, keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates (key row, tail row, squared distance) from an exact scan:
    per key, every tail row no farther than its k-th nearest (ties
    included), or the whole row when that k-th distance is NaN."""
    d2 = np.empty((keys.shape[0], tail.shape[0]))
    for lo in range(0, keys.shape[0], _TAIL_CHUNK):
        diff = tail - keys[lo : lo + _TAIL_CHUNK, None]
        d2[lo : lo + _TAIL_CHUNK] = np.einsum("gij,gij->gi", diff, diff)
    if k < d2.shape[1]:
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        rows, cols = np.nonzero((d2 <= kth) | np.isnan(kth))
    else:
        rows, cols = np.indices(d2.shape).reshape(2, -1)
    return rows, cols, d2[rows, cols]


def _filtered_tail(
    tail: np.ndarray, tail_1: np.ndarray, reach: float, keys: np.ndarray, keys_1: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Candidates (key row, tail row, squared distance) that hold each key's
    k nearest tail rows, ties at the k-th included, with their distances
    computed as ``_scanned_tail`` computes them; None when the rounding
    bound is not finite or the filter keeps more than a quarter of the
    (keys x tail) pairs (mass ties, such as repeated rest states), and the
    keys should be scanned instead.

    ``tail_1`` holds the rows [-2 t, |t|^2], ``keys_1`` the rows [q, 1] and
    ``reach`` the largest |t|.  One matrix product gives every pair's
    ``a = |t|^2 - 2 q.t``, which is ``|q - t|^2`` less ``|q|^2``, a constant
    per key.  A pair is kept when ``a <= a_k + 2 B``, where ``a_k`` is the
    key's k-th smallest ``a``; only kept pairs get the exact
    ``d2 = sum((t - q)^2)``.

    Why no pair of the true first k is dropped.  Let ``u`` be the unit
    roundoff (eps / 2), ``d`` the dimension, ``X = (|q| + |t|)^2`` and D
    the real ``|q - t|^2``.  Any order of summing n products errs by at
    most ``n u`` times the sum of their magnitudes (to first order; FMA
    only lowers it).  ``|t|^2`` so errs by ``d u |t|^2``, scaling by -2 is
    exact, and the product sums d + 1 terms, so ``|a + |q|^2 - D| <= (2d +
    1) u X``.  ``d2`` rounds each difference and square and sums d terms:
    ``|d2 - D| <= (d + 2) u D`` and ``D <= X``.  So ``|a + |q|^2 - d2| <=
    (3d + 3) u X``.  The bound used, ``B = 2 eps (d + 3) ((|q| +
    max|t|)^2 + tiny) = 4 (d + 3) u (...)``, is larger: the margin covers
    the second-order terms, the rounding of B, of |q| and of ``a_k + 2 B``
    (with ``|a_k| <= X``), and the ``tiny`` term the absolute error of
    results that underflow.  The k rows with the smallest ``a`` then have
    ``d2 <= a_k + |q|^2 + B``, so the true k-th smallest ``d2``, v, is at
    most that, and every row with ``d2 <= v`` has ``a <= d2 - |q|^2 + B
    <= a_k + 2 B`` and is kept.  Among the kept rows the k-th smallest
    ``d2`` is therefore v, and the rows up to it are those of a full scan.
    A NaN or infinite input makes B not finite.
    """
    bound = _ROUNDING * (tail.shape[1] + 3) * ((np.sqrt(np.vecdot(keys, keys)) + reach) ** 2 + _TINY)
    if not np.isfinite(bound).all():
        return None
    approx = keys_1 @ tail_1.T
    a_k = np.partition(approx, k - 1, axis=1)[:, k - 1]
    kept = np.flatnonzero(approx <= (a_k + 2.0 * bound)[:, None])
    if 4 * kept.shape[0] > approx.size:
        return None
    rows, cols = np.divmod(kept, tail.shape[0])
    diff = tail[cols] - keys[rows]
    return rows, cols, np.einsum("ij,ij->i", diff, diff)


def _first_k(
    rows: np.ndarray, cols: np.ndarray, d2: np.ndarray, n_rows: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first k candidates of each of `n_rows` rows by (d2, col), as
    (n_rows x k) arrays of columns and d2; every row holds at least k
    candidates, and its columns ascend (as ``np.nonzero`` gives them), so
    the stable sort breaks ties in d2 by column.  NaN sorts last, as in
    ``np.argsort``."""
    order = np.lexsort((d2, rows))
    starts = np.zeros(n_rows, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n_rows)[:-1], out=starts[1:])
    pick = order[starts[:, None] + np.arange(k)]
    return cols[pick], d2[pick]


def _fit_ridge(actions: np.ndarray, effects: np.ndarray, ridge: float) -> np.ndarray:
    """Least-squares fit of effects ~ J @ actions, ridge-stabilized.

    Returns J with shape (effect_dim, action_dim), or a stack of them for
    stacked neighbourhoods.  The ridge term keeps rank-deficient
    neighborhoods (e.g. collinear probes) solvable.  J is
    ``Y^T A (A^T A + ridge I)^-1`` for actions A (s x n) and effects Y;
    by the push-through identity ``(A^T A + ridge I)^-1 A^T = A^T (A A^T
    + ridge I)^-1`` it is also ``((A A^T + ridge I)^-1 Y)^T A``, so the fit
    solves the s x s system when there are fewer rows than columns and the
    n x n one otherwise.
    """
    rows, cols = actions.shape[-2:]
    actions_t = np.swapaxes(actions, -1, -2)
    if rows < cols:
        gram = actions @ actions_t
        gram[..., np.arange(rows), np.arange(rows)] += ridge
        return np.swapaxes(np.linalg.solve(gram, effects), -1, -2) @ actions
    gram = actions_t @ actions
    gram[..., np.arange(cols), np.arange(cols)] += ridge
    return np.swapaxes(np.linalg.solve(gram, actions_t @ effects), -1, -2)


def pseudo_inverse(jacobians: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a 2 x n Jacobian, or of each matrix
    in a stack of them; other shapes go to ``np.linalg.pinv``.

    A 2 x n J of full row rank has ``J^+ = J^T (J J^T)^-1``, and the 2 x 2
    inverse is taken in closed form from ``J J^T = [[a, b], [b, d]]``.
    Each matrix's result depends on that matrix alone, so a stack gives,
    row by row, the bits of one call per matrix.

    A matrix goes to ``np.linalg.pinv`` instead when ``det = a d - b^2`` is
    not above ``_WELL_CONDITIONED * (a + d)^2`` (or is NaN).  That ratio is
    ``k / (1 + k)^2`` for the condition number k of J J^T, so the closed
    form only sees k below about 1 / _WELL_CONDITIONED = 2^20.  Forming J
    J^T and cancelling in ``det`` lose about k times the machine epsilon,
    where the SVD behind ``pinv`` loses about sqrt(k) times it.  With k <
    2^20 the two agree to about k * eps < 2^-32 relative to the largest
    entry (measured: at most 1.2 k eps on random J, n from 2 to 40), far
    below what the ridge term changes in the fit.  At 2^-20 a J whose
    rows are collinear (rank deficient), whose determinant is then
    rounding noise of order eps (a + d)^2, or that is zero, always takes
    ``pinv`` and its rank-revealing answer.
    """
    jacobians = np.asarray(jacobians, dtype=float)
    if jacobians.shape[-2] != 2:
        return np.linalg.pinv(jacobians)
    stack = jacobians.reshape((-1,) + jacobians.shape[-2:])
    top, bottom = stack[:, 0], stack[:, 1]
    a, b, d = np.vecdot(top, top), np.vecdot(top, bottom), np.vecdot(bottom, bottom)
    det = a * d - b * b
    closed = det > _WELL_CONDITIONED * (a + d) ** 2
    a, b, d = a[:, None], b[:, None], d[:, None]
    det = np.where(closed, det, 1.0)[:, None]
    pinvs = np.empty(stack.shape[:1] + stack.shape[:0:-1])
    pinvs[:, :, 0] = (top * d - bottom * b) / det
    pinvs[:, :, 1] = (bottom * a - top * b) / det
    if not closed.all():
        pinvs[~closed] = np.linalg.pinv(stack[~closed])
    return pinvs.reshape(jacobians.shape[:-2] + pinvs.shape[1:])


class EvolvingMemory:
    """(context, action, effect-change) exemplars keyed by context."""

    # Ridge term of every local fit.
    ridge = 1e-6

    def __init__(
        self,
        context_dim: int,
        effect_dim: int = 2,
        neighbors: int = 12,
        support_radius: float = 0.5,
    ):
        self.context_dim = int(context_dim)
        self.effect_dim = int(effect_dim)
        self.neighbors = int(neighbors)
        self.support_radius = float(support_radius)
        # Below 2x the effect dimension a local fit is not trusted and the
        # caller is told to go collect data instead.
        self.min_support = 2 * self.effect_dim
        self._index = NearestIndex(context_dim)
        self._actions = np.empty((256, context_dim), dtype=float)
        self._effects = np.empty((256, effect_dim), dtype=float)

    def __len__(self) -> int:
        return len(self._index)

    def insert(self, context: np.ndarray, action: np.ndarray, effect: np.ndarray) -> None:
        context = np.asarray(context, dtype=float)
        action = np.asarray(action, dtype=float)
        effect = np.asarray(effect, dtype=float)
        if context.shape != (self.context_dim,) or action.shape != (self.context_dim,):
            raise ValueError("context/action dimension mismatch")
        if effect.shape != (self.effect_dim,):
            raise ValueError("effect dimension mismatch")
        i = self._index.add(context)
        if i == self._actions.shape[0]:
            self._actions = grown(self._actions)
            self._effects = grown(self._effects)
        self._actions[i] = action
        self._effects[i] = effect

    def local_jacobian(self, context: np.ndarray) -> np.ndarray | None:
        """Fit the local linear action->effect map (effect_dim x context_dim)
        around `context`.

        Returns None when fewer than ``min_support`` exemplars lie within
        ``support_radius``, signalling that exploration is needed first.
        """
        if len(self) == 0:
            return None
        idx, dist = self._index.query(np.asarray(context, dtype=float), self.neighbors)
        keep = idx[dist <= self.support_radius]
        if keep.shape[0] < self.min_support:
            return None
        return _fit_ridge(self._actions[keep], self._effects[keep], self.ridge)

    def local_pseudo_inverses(self, contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pseudo-inverses of the local Jacobians around every row of
        `contexts`, each bit-identical to ``pseudo_inverse(local_jacobian(row))``.

        Returns the (rows x context_dim x effect_dim) stack and a mask of the
        rows whose fit had enough support; the other rows stay zero.  Rows
        with the same support size are fitted as one stack, and all fitted
        Jacobians are inverted by one ``pseudo_inverse`` call.
        """
        pinvs = np.zeros((contexts.shape[0], self.context_dim, self.effect_dim))
        if len(self) == 0:
            return pinvs, np.zeros(contexts.shape[0], dtype=bool)
        idx, dist = self._index.query_many(contexts, self.neighbors)
        # Distances ascend, so the kept neighbours are a prefix of each row.
        support = np.count_nonzero(dist <= self.support_radius, axis=1)
        fitted = support >= self.min_support
        rows = np.flatnonzero(fitted)
        sizes = support[rows]
        jacobians = np.empty((rows.shape[0], self.effect_dim, self.context_dim))
        for size in np.unique(sizes):
            group = np.flatnonzero(sizes == size)
            keep = idx[rows[group], :size]
            jacobians[group] = _fit_ridge(self._actions[keep], self._effects[keep], self.ridge)
        pinvs[rows] = pseudo_inverse(jacobians)
        return pinvs, fitted

    def header(self) -> list[str]:
        """The column names of ``table()``."""
        return (
            [f"context_{i}" for i in range(self.context_dim)]
            + [f"action_{i}" for i in range(self.context_dim)]
            + [f"effect_{i}" for i in range(self.effect_dim)]
        )

    def table(self) -> np.ndarray:
        """One (context, action, effect-change) row per exemplar, in insert order."""
        return np.hstack([self._index.points, self._actions[: len(self)], self._effects[: len(self)]])

    def insert_rows(self, rows: np.ndarray) -> None:
        """Insert every row of a ``table()``."""
        c = self.context_dim
        for row in rows:
            self.insert(row[:c], row[c : 2 * c], row[2 * c :])


class FixedMemory:
    """(params, effect) exemplars keyed by effect, with a secondary params key."""

    def __init__(
        self,
        param_dim: int,
        effect_dim: int = 2,
        inverse_candidates: int = 5,
        inverse_neighborhood: int = 10,
    ):
        self.param_dim = int(param_dim)
        self.effect_dim = int(effect_dim)
        self.inverse_candidates = int(inverse_candidates)
        self.inverse_neighborhood = int(inverse_neighborhood)
        self._effect_index = NearestIndex(effect_dim)
        self._param_index = NearestIndex(param_dim)

    def __len__(self) -> int:
        return len(self._effect_index)

    @property
    def params(self) -> np.ndarray:
        return self._param_index.points

    @property
    def effects(self) -> np.ndarray:
        return self._effect_index.points

    def insert(self, params: np.ndarray, effect: np.ndarray) -> None:
        params = np.asarray(params, dtype=float)
        effect = np.asarray(effect, dtype=float)
        if params.shape != (self.param_dim,):
            raise ValueError("params dimension mismatch")
        if effect.shape != (self.effect_dim,):
            raise ValueError("effect dimension mismatch")
        self._effect_index.add(effect)
        self._param_index.add(params)

    def nearest_params(self, key: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        return self._param_index.query(np.asarray(key, dtype=float), k)

    def local_inverse(self, goal: np.ndarray) -> tuple[np.ndarray, int]:
        """Predict the parameters for `goal`: one row of ``local_inverses``."""
        predicted, nearest = self.local_inverses(np.asarray(goal, dtype=float)[None])
        return predicted[0], int(nearest[0])

    def local_inverses(self, goals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predict the parameters for every row of `goals` from the most
        consistent neighborhood of past outcomes.

        Around each of the ``inverse_candidates`` nearest effects to a goal,
        the ``inverse_neighborhood`` nearest-in-params exemplars form a
        candidate set; the set whose params spread the least (summed
        per-component standard deviation) wins, the first one on ties, and
        a centered linear effect->params fit on it yields the prediction.
        Redundant memories keep multiple param families for one effect
        region; picking the tightest set avoids averaging across families.

        All goals share one effect-index query and all candidate sets one
        params-index query; each row is the same as for that goal alone.
        Returns the (rows x param_dim) predictions and per row the index of
        a stored effect nearest to the goal.
        """
        if len(self) == 0:
            raise EmptyMemoryError("local inverse model requires at least one exemplar")
        le, m = self.inverse_candidates, self.inverse_neighborhood
        goals = np.asarray(goals, dtype=float)
        predicted = np.empty((goals.shape[0], self.param_dim))
        if goals.shape[0] == 0:
            return predicted, np.empty(0, dtype=np.intp)
        params, effects = self.params, self.effects
        cand_idx, _ = self._effect_index.query_many(goals, min(le, len(self)))
        set_idx, _ = self._param_index.query_many(params[cand_idx.ravel()], min(m, len(self)))
        set_idx = set_idx.reshape(cand_idx.shape + (-1,))
        if set_idx.shape[2] < 2:
            spread = np.zeros(cand_idx.shape)
        else:
            spread = np.std(params[set_idx], axis=2, ddof=1).sum(axis=2)
        best_sets = set_idx[np.arange(goals.shape[0]), spread.argmin(axis=1)]
        for row, best_set in enumerate(best_sets):
            chosen_params = params[best_set]
            chosen_effects = effects[best_set]
            param_center = chosen_params.mean(axis=0)
            effect_center = chosen_effects.mean(axis=0)
            if best_set.shape[0] < 2:
                inverse = np.zeros((self.param_dim, self.effect_dim))
            else:
                coef, *_ = np.linalg.lstsq(chosen_effects - effect_center, chosen_params - param_center, rcond=None)
                inverse = coef.T
            predicted[row] = param_center + inverse @ (goals[row] - effect_center)
        return predicted, cand_idx[:, 0]

    def header(self) -> list[str]:
        """The column names of ``table()``."""
        return [f"params_{i}" for i in range(self.param_dim)] + [f"effect_{i}" for i in range(self.effect_dim)]

    def table(self) -> np.ndarray:
        """One (params, effect) row per exemplar, in insert order."""
        return np.hstack([self.params, self.effects])

    def insert_rows(self, rows: np.ndarray) -> None:
        """Insert every row of a ``table()``."""
        for row in rows:
            self.insert(row[: self.param_dim], row[self.param_dim :])
