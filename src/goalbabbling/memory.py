"""Incremental sensorimotor memory with local linear models.

Entries are stored in flat growing arrays; nearest-neighbor retrieval runs
on a kd-tree that is rebuilt every few hundred inserts, with the
not-yet-indexed tail scanned exactly.  Queries are exact by default; an
approximation slack can be passed through to the tree for large memories.

Two memory flavours exist:

* ``EvolvingMemory`` stores (context, action, effect-change) triples keyed
  by the context, and fits local Jacobians of effect-change per action.
* ``FixedMemory`` stores (params, effect) pairs keyed by the effect (with a
  secondary key on the params), and fits local inverse models effect->params.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# Keys per tail scan, and per pick of the nearest tail points, in
# `NearestIndex.query_many`.
_TAIL_CHUNK = 8
_TAIL_BLOCK = 128


class EmptyMemoryError(RuntimeError):
    """Raised when a nearest-neighbor query hits an empty memory."""


@dataclass(frozen=True)
class SensorimotorEntry:
    """One learning exemplar as returned by queries."""

    context: np.ndarray
    action: np.ndarray | None
    effect: np.ndarray


class LocalLinearModel:
    """A local linear map with its Moore-Penrose pseudo-inverse.

    ``jacobian`` maps action/parameter changes to effect changes (m x n);
    ``pseudo_inverse`` maps the other way (n x m).  The pair satisfies the
    Moore-Penrose identities to numerical precision.  A model may be built
    from one side alone; the other is computed with ``np.linalg.pinv`` when
    first read, so callers that use one side do not pay for the other.
    """

    __slots__ = ("_jacobian", "_pseudo_inverse", "support_size")

    def __init__(self, jacobian: np.ndarray | None, pseudo_inverse: np.ndarray | None, support_size: int):
        if jacobian is None and pseudo_inverse is None:
            raise ValueError("a local model needs its map or its pseudo-inverse")
        self._jacobian = jacobian
        self._pseudo_inverse = pseudo_inverse
        self.support_size = support_size

    @property
    def jacobian(self) -> np.ndarray:
        if self._jacobian is None:
            self._jacobian = np.linalg.pinv(self._pseudo_inverse)
        return self._jacobian

    @property
    def pseudo_inverse(self) -> np.ndarray:
        if self._pseudo_inverse is None:
            self._pseudo_inverse = np.linalg.pinv(self._jacobian)
        return self._pseudo_inverse


class NearestIndex:
    """Append-only point set with amortized kd-tree nearest-neighbor search.

    Points newer than the last tree build are scanned exactly, so queries
    stay exact (or within the tree's (1+eps) bound when eps > 0).
    """

    def __init__(self, dim: int, eps: float = 0.0, rebuild_every: int = 512):
        self.dim = int(dim)
        self.eps = float(eps)
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
            grown = np.empty((2 * self._n, self.dim), dtype=float)
            grown[: self._n] = self._rows[: self._n]
            self._rows = grown
        self._rows[self._n] = row
        self._n += 1
        if self._n - self._tree_n >= self.rebuild_every:
            self._tree = cKDTree(self._rows[: self._n].copy())
            self._tree_n = self._n
        return self._n - 1

    def query(self, key: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the k nearest points, ascending."""
        if self._n == 0:
            raise EmptyMemoryError("nearest-neighbor query on empty memory")
        k_eff = min(k, self._n)
        tail = self._rows[self._tree_n : self._n]
        cand_idx: list[np.ndarray] = []
        cand_dist: list[np.ndarray] = []
        if self._tree is not None:
            kt = min(k_eff, self._tree_n)
            dist, idx = self._tree.query(key, k=kt, eps=self.eps)
            cand_idx.append(np.atleast_1d(idx).astype(np.intp))
            cand_dist.append(np.atleast_1d(dist))
        if tail.shape[0]:
            diff = tail - key
            d2 = np.einsum("ij,ij->i", diff, diff)
            order = np.argsort(d2, kind="stable")[:k_eff]
            cand_idx.append(order + self._tree_n)
            cand_dist.append(np.sqrt(d2[order]))
        idx = np.concatenate(cand_idx)
        dist = np.concatenate(cand_dist)
        order = np.argsort(dist, kind="stable")[:k_eff]
        return idx[order], dist[order]

    def query_many(self, keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i equals ``query(keys[i], k)``: one tree call for all keys.

        The tail is scanned a few keys at a time and its nearest points are
        picked a block of keys at a time, so neither the (keys x tail x dim)
        difference array nor the (keys x tail) distance array gets large.
        """
        if self._n == 0:
            raise EmptyMemoryError("nearest-neighbor query on empty memory")
        rows = keys.shape[0]
        row_of = np.arange(rows)[:, None]  # row index column for fancy indexing
        k_eff = min(k, self._n)
        tail = self._rows[self._tree_n : self._n]
        cand_idx: list[np.ndarray] = []
        cand_dist: list[np.ndarray] = []
        if self._tree is not None:
            kt = min(k_eff, self._tree_n)
            dist, idx = self._tree.query(keys, k=kt, eps=self.eps)
            cand_idx.append(idx.reshape(rows, kt).astype(np.intp))
            cand_dist.append(dist.reshape(rows, kt))
        if tail.shape[0]:
            kt = min(k_eff, tail.shape[0])
            order = np.empty((rows, kt), dtype=np.intp)
            kept_d2 = np.empty((rows, kt))
            for block in range(0, rows, _TAIL_BLOCK):
                block_keys = keys[block : block + _TAIL_BLOCK]
                d2 = np.empty((block_keys.shape[0], tail.shape[0]))
                for lo in range(0, block_keys.shape[0], _TAIL_CHUNK):
                    diff = tail - block_keys[lo : lo + _TAIL_CHUNK, None]
                    d2[lo : lo + _TAIL_CHUNK] = np.einsum("gij,gij->gi", diff, diff)
                picked = _smallest_stable(d2, kt)
                order[block : block + _TAIL_BLOCK] = picked
                kept_d2[block : block + _TAIL_BLOCK] = d2[row_of[: d2.shape[0]], picked]
            cand_idx.append(order + self._tree_n)
            cand_dist.append(np.sqrt(kept_d2))
        idx = np.concatenate(cand_idx, axis=1)
        dist = np.concatenate(cand_dist, axis=1)
        order = np.argsort(dist, axis=1, kind="stable")[:, :k_eff]
        return idx[row_of, order], dist[row_of, order]


def _smallest_stable(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(values, axis=1, kind="stable")[:, :k]`` without sorting
    whole rows: partition, then sort the k picked per row.

    A row whose ties at the k-th value straddle the cut (or that holds NaN
    there) may have had other tied indices picked, and is sorted in full.
    """
    if k >= values.shape[1]:
        return np.argsort(values, axis=1, kind="stable")
    row_of = np.arange(values.shape[0])[:, None]
    picked = np.argpartition(values, k - 1, axis=1)[:, :k]
    picked.sort(axis=1)  # index order, so the stable sort breaks ties by index
    picked_values = values[row_of, picked]
    order = picked[row_of, np.argsort(picked_values, axis=1, kind="stable")]
    kth = picked_values.max(axis=1)
    redo = (np.count_nonzero(values <= kth[:, None], axis=1) > k) | np.isnan(kth)
    if redo.any():
        order[redo] = np.argsort(values[redo], axis=1, kind="stable")[:, :k]
    return order


def _fit_ridge(actions: np.ndarray, effects: np.ndarray, ridge: float) -> np.ndarray:
    """Least-squares fit of effects ~ J @ actions, ridge-stabilized.

    Returns J with shape (effect_dim, action_dim), or a stack of them for
    stacked neighbourhoods.  The ridge term keeps rank-deficient
    neighborhoods (e.g. collinear probes) solvable.
    """
    actions_t = np.swapaxes(actions, -1, -2)
    gram = actions_t @ actions
    diag = np.arange(gram.shape[-1])
    gram[..., diag, diag] += ridge
    coef = np.linalg.solve(gram, actions_t @ effects)
    return np.swapaxes(coef, -1, -2)


class EvolvingMemory:
    """(context, action, effect-change) exemplars keyed by context."""

    def __init__(
        self,
        context_dim: int,
        effect_dim: int = 2,
        neighbors: int = 12,
        support_radius: float = 0.5,
        min_support: int | None = None,
        ridge: float = 1e-6,
        eps: float = 0.0,
    ):
        self.context_dim = int(context_dim)
        self.effect_dim = int(effect_dim)
        self.neighbors = int(neighbors)
        self.support_radius = float(support_radius)
        # Below 2x the effect dimension a local fit is not trusted and the
        # caller is told to go collect data instead.
        self.min_support = int(min_support) if min_support is not None else 2 * self.effect_dim
        self.ridge = float(ridge)
        self._index = NearestIndex(context_dim, eps=eps)
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
            self._actions = _grow(self._actions)
            self._effects = _grow(self._effects)
        self._actions[i] = action
        self._effects[i] = effect

    def nearest(self, key: np.ndarray, k: int = 1) -> list[SensorimotorEntry]:
        """The k stored exemplars whose context is closest to `key`."""
        idx, _ = self._index.query(np.asarray(key, dtype=float), k)
        ctx = self._index.points
        return [SensorimotorEntry(ctx[i].copy(), self._actions[i].copy(), self._effects[i].copy()) for i in idx]

    def local_jacobian(self, context: np.ndarray, k: int | None = None) -> LocalLinearModel | None:
        """Fit the local linear action->effect map around `context`.

        Returns None when fewer than ``min_support`` exemplars lie within
        ``support_radius``, signalling that exploration is needed first.
        """
        if len(self) == 0:
            return None
        k = self.neighbors if k is None else k
        idx, dist = self._index.query(np.asarray(context, dtype=float), k)
        keep = idx[dist <= self.support_radius]
        if keep.shape[0] < self.min_support:
            return None
        jac = _fit_ridge(self._actions[keep], self._effects[keep], self.ridge)
        return LocalLinearModel(jac, None, keep.shape[0])

    def local_pseudo_inverses(self, contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pseudo-inverses of the local Jacobians around every row of
        `contexts`, each bit-identical to ``local_jacobian(row).pseudo_inverse``.

        Returns the (rows x context_dim x effect_dim) stack and a mask of the
        rows whose fit had enough support; the other rows stay zero.  Rows
        with the same support size are fitted as one stack.
        """
        pinvs = np.zeros((contexts.shape[0], self.context_dim, self.effect_dim))
        if len(self) == 0:
            return pinvs, np.zeros(contexts.shape[0], dtype=bool)
        idx, dist = self._index.query_many(contexts, self.neighbors)
        # Distances ascend, so the kept neighbours are a prefix of each row.
        support = np.count_nonzero(dist <= self.support_radius, axis=1)
        fitted = support >= self.min_support
        for size in np.unique(support[fitted]):
            group = np.flatnonzero(support == size)
            keep = idx[group, :size]
            pinvs[group] = np.linalg.pinv(_fit_ridge(self._actions[keep], self._effects[keep], self.ridge))
        return pinvs, fitted

    @staticmethod
    def csv_header(context_dim: int, effect_dim: int) -> list[str]:
        return (
            [f"context_{i}" for i in range(context_dim)]
            + [f"action_{i}" for i in range(context_dim)]
            + [f"effect_{i}" for i in range(effect_dim)]
        )

    def dump_csv(self, path) -> None:
        _dump_csv(
            path,
            self.csv_header(self.context_dim, self.effect_dim),
            np.hstack([self._index.points, self._actions[: len(self)], self._effects[: len(self)]]),
        )

    @classmethod
    def load_csv(cls, path, **kwargs) -> "EvolvingMemory":
        header, rows = _load_csv(path)
        context_dim = sum(name.startswith("context_") for name in header)
        effect_dim = sum(name.startswith("effect_") for name in header)
        memory = cls(context_dim, effect_dim, **kwargs)
        for row in rows:
            memory.insert(row[:context_dim], row[context_dim : 2 * context_dim], row[2 * context_dim :])
        return memory


class FixedMemory:
    """(params, effect) exemplars keyed by effect, with a secondary params key."""

    def __init__(
        self,
        param_dim: int,
        effect_dim: int = 2,
        inverse_candidates: int = 5,
        inverse_neighborhood: int = 10,
        eps: float = 0.0,
    ):
        self.param_dim = int(param_dim)
        self.effect_dim = int(effect_dim)
        self.inverse_candidates = int(inverse_candidates)
        self.inverse_neighborhood = int(inverse_neighborhood)
        self._effect_index = NearestIndex(effect_dim, eps=eps)
        self._param_index = NearestIndex(param_dim, eps=eps)

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

    def nearest(self, key: np.ndarray, k: int = 1) -> list[SensorimotorEntry]:
        """The k stored exemplars whose effect is closest to `key`."""
        idx, _ = self._effect_index.query(np.asarray(key, dtype=float), k)
        return [
            SensorimotorEntry(self.params[i].copy(), None, self.effects[i].copy())
            for i in idx
        ]

    def nearest_effect(self, key: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        return self._effect_index.query(np.asarray(key, dtype=float), k)

    def nearest_params(self, key: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        return self._param_index.query(np.asarray(key, dtype=float), k)

    def local_inverse(
        self, goal: np.ndarray, candidates: int | None = None, neighborhood: int | None = None
    ) -> tuple[np.ndarray, LocalLinearModel]:
        """Predict the parameters for `goal`: one row of ``local_inverses``."""
        predicted, models = self.local_inverses(np.asarray(goal, dtype=float)[None], candidates, neighborhood)
        return predicted[0], models[0]

    def local_inverses(
        self, goals: np.ndarray, candidates: int | None = None, neighborhood: int | None = None
    ) -> tuple[np.ndarray, list[LocalLinearModel]]:
        """Predict the parameters for every row of `goals` from the most
        consistent neighborhood of past outcomes.

        Around each of the `candidates` nearest effects to a goal, the
        `neighborhood` nearest-in-params exemplars form a candidate set; the
        set whose params spread the least (summed per-component standard
        deviation) wins, the first one on ties, and a centered linear
        effect->params fit on it yields the prediction.  Redundant memories
        keep multiple param families for one effect region; picking the
        tightest set avoids averaging across families.

        All goals share one effect-index query and all candidate sets one
        params-index query; each row is the same as for that goal alone.
        Returns the (rows x param_dim) predictions and one model per row.
        """
        if len(self) == 0:
            raise EmptyMemoryError("local inverse model requires at least one exemplar")
        le = self.inverse_candidates if candidates is None else candidates
        m = self.inverse_neighborhood if neighborhood is None else neighborhood
        goals = np.asarray(goals, dtype=float)
        predicted = np.empty((goals.shape[0], self.param_dim))
        if goals.shape[0] == 0:
            return predicted, []
        params, effects = self.params, self.effects
        cand_idx, _ = self._effect_index.query_many(goals, min(le, len(self)))
        set_idx, _ = self._param_index.query_many(params[cand_idx.ravel()], min(m, len(self)))
        set_idx = set_idx.reshape(cand_idx.shape + (-1,))
        if set_idx.shape[2] < 2:
            spread = np.zeros(cand_idx.shape)
        else:
            spread = np.std(params[set_idx], axis=2, ddof=1).sum(axis=2)
        best_sets = set_idx[np.arange(goals.shape[0]), spread.argmin(axis=1)]
        models = []
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
            models.append(LocalLinearModel(None, inverse, best_set.shape[0]))
        return predicted, models

    @staticmethod
    def csv_header(param_dim: int, effect_dim: int) -> list[str]:
        return [f"params_{i}" for i in range(param_dim)] + [f"effect_{i}" for i in range(effect_dim)]

    def dump_csv(self, path) -> None:
        _dump_csv(path, self.csv_header(self.param_dim, self.effect_dim), np.hstack([self.params, self.effects]))

    @classmethod
    def load_csv(cls, path, **kwargs) -> "FixedMemory":
        header, rows = _load_csv(path)
        param_dim = sum(name.startswith("params_") for name in header)
        memory = cls(param_dim, len(header) - param_dim, **kwargs)
        for row in rows:
            memory.insert(row[:param_dim], row[param_dim:])
        return memory


def _grow(array: np.ndarray) -> np.ndarray:
    grown = np.empty((2 * array.shape[0], array.shape[1]), dtype=float)
    grown[: array.shape[0]] = array
    return grown


def _dump_csv(path, header: list[str], rows: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _load_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader], dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, len(header))
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"data row {bad[0] + 1} holds a non-finite value")
    return header, rows
