"""Reaching-error evaluation and multi-seed strategy comparison.

Evaluation runs the reaching machinery in pure exploitation: no memory
inserts, no exploration bursts, no region updates, so a snapshot of the
learner can be scored repeatedly without contaminating it.
"""
from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .competence import CompetenceConfig
from .config import ConfigError, ExperimentConfig
# `reach_evolving` stays importable from this module, where the benchmark's
# tracer wraps it by name; evaluation itself reaches through the world adapter.
from .explorers import ReachingBudget, euclidean, reach_evolving  # noqa: F401
from .experiment import RunLog, check_checkpoints, competence_config, reaching_budget, run_experiment, world_adapter


# Evaluation checkpoint schedule used when a caller does not pick one.
DEFAULT_CHECKPOINTS = (1000, 2000, 5000, 10000, 20000, 30000)


def default_checkpoints(budget: int) -> list[int]:
    """The standard schedule clipped to the budget, always ending at it."""
    points = [c for c in DEFAULT_CHECKPOINTS if c < budget]
    return points + [budget]


@dataclass(frozen=True)
class CurvePoint:
    strategy: str
    seed: int
    checkpoint: int
    used: int
    error: float


@dataclass(frozen=True)
class SignificanceRow:
    checkpoint: int
    strategy_a: str
    strategy_b: str
    p_less: float  # rank test of "errors of a < errors of b"


@dataclass(frozen=True)
class FractionRow:
    strategy: str
    seed: int
    first_third: float
    last_third: float
    overall: float


@dataclass
class ComparisonResult:
    curves: list[CurvePoint]
    significance: list[SignificanceRow]
    fractions: list[FractionRow]


# Proposals drawn per round of `make_test_db`'s rejection sampling.
_TEST_DB_BATCH = 1024


def make_test_db(world, count: int, seed: int) -> np.ndarray:
    """Uniform sample of `count` reachable points, by rejection from the
    bounding box of the reachable set."""
    if count < 0:
        raise ValueError("count must be >= 0")
    points = np.empty((count, 2))
    if count == 0:
        return points
    radius = world.reach_radius
    low = np.full(2, -radius)
    high = np.full(2, radius)
    if world.task_bounds is not None:
        low = np.maximum(low, world.task_bounds.low)
        high = np.minimum(high, world.task_bounds.high)
    if np.any(high <= low):
        raise ValueError("reachable set does not intersect the task bounds")
    rng = np.random.default_rng(seed)
    found = 0
    drawn = 0
    while found < count:
        proposals = low + rng.random((_TEST_DB_BATCH, 2)) * (high - low)
        drawn += _TEST_DB_BATCH
        keep = proposals[[world.within_reach(p) for p in proposals]]
        take = min(count - found, keep.shape[0])
        points[found : found + take] = keep[:take]
        found += take
        if drawn > max(_TEST_DB_BATCH, count) * 10_000:
            raise RuntimeError("rejection sampling efficiency below 1e-4; reachable set misconfigured")
    return points


def exploitation_budget(config: ExperimentConfig) -> ReachingBudget:
    """Same step allowance as learning, but any need for exploration ends
    the attempt immediately."""
    return dataclasses.replace(reaching_budget(config), explore_actions=0, blocking_window=1)


def exploitation_competence(config: ExperimentConfig) -> CompetenceConfig:
    """Competence for exploitation reaches, which run to their full step
    budget: the learner's own "reached" tolerance is a training shortcut
    and must not cap the measured accuracy."""
    return dataclasses.replace(competence_config(config), reached_tolerance=-1e-12)


def evaluate(memory, world, goals: np.ndarray, config: ExperimentConfig) -> float:
    """Mean Euclidean reaching error from rest over the test goals.

    All goals are scored in one pass, through the world adapter's
    ``exploit``.  On the arm they are reached for in lockstep; each final
    position equals that of a per-goal reach from rest that inserts
    nothing, under ``exploitation_budget``.  In the episodic world one
    stacked local-inverse prediction and one batched rollout give, row by
    row, what ``local_inverse`` and ``rollout`` give for each goal.
    """
    finals = world_adapter(config, world).exploit(
        memory, goals, exploitation_budget(config), exploitation_competence(config)
    )
    errors = [euclidean(final, goal) for final, goal in zip(finals, goals)]
    return float(np.mean(errors)) if errors else 0.0


def reachable_fraction(log: RunLog, window: tuple[float, float] = (0.0, 1.0)) -> float:
    """Fraction of interest-driven goals (modes 1 and 3) that fall inside
    the reachable set, over a fractional window of their sequence."""
    eligible = [g for g in log.goals if g.mode in ("interest", "low_competence")]
    if not eligible:
        return math.nan
    lo = int(math.floor(window[0] * len(eligible)))
    hi = int(math.floor(window[1] * len(eligible)))
    window_goals = eligible[lo:hi]
    if not window_goals:
        return math.nan
    return sum(g.reachable for g in window_goals) / len(window_goals)


def _one_run(args):
    config, checkpoints, goals = args
    return run_experiment(config, checkpoints=checkpoints, test_goals=goals)


def compare_strategies(
    configs: list[ExperimentConfig],
    seeds: list[int],
    checkpoints: list[int],
    test_goals: np.ndarray,
    n_jobs: int = 1,
) -> ComparisonResult:
    """Run every config x seed, score the shared test set at each
    checkpoint, and rank-test final errors for every ordered strategy pair.

    Results are independent of `n_jobs`; runs are keyed by (strategy, seed)
    and aggregated in sorted order.
    """
    # scipy.stats takes about a second to import; only comparisons need it.
    from scipy.stats import mannwhitneyu

    if len(configs) < 2:
        raise ConfigError("need at least two strategies to compare")
    if len(set(c.strategy for c in configs)) != len(configs):
        raise ConfigError("duplicate strategy in configs")
    # Without seeds or test goals there is no error to rank: every curve
    # would be missing and every rank test with it.
    if not seeds:
        raise ConfigError("no seeds given")
    if test_goals is None or len(test_goals) == 0:
        raise ConfigError("comparison needs a test database with at least one goal")
    # One test database scores every run, so every run must share its world.
    for name in ("environment", "task_low", "task_high"):
        if any(getattr(c, name) != getattr(configs[0], name) for c in configs):
            given = "; ".join(f"{c.strategy} has {getattr(c, name)}" for c in configs)
            raise ConfigError(f"configs differ in {name}: {given}")
    check_checkpoints(checkpoints, min(c.budget for c in configs))
    jobs = []
    for config in configs:
        for seed in seeds:
            jobs.append((dataclasses.replace(config, seed=seed), tuple(checkpoints), test_goals))
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_one_run, jobs))
    else:
        results = [_one_run(job) for job in jobs]

    logs: dict = {}
    for (config, _, _), log in zip(jobs, results):
        logs[(config.strategy, config.seed)] = log

    curves = []
    for (strategy, seed) in sorted(logs):
        for record in logs[(strategy, seed)].evaluations:
            curves.append(CurvePoint(strategy, seed, record.checkpoint, record.used, record.error))

    strategies = [c.strategy for c in configs]
    significance = []
    for checkpoint in checkpoints:
        by_strategy = {
            s: np.array(
                [p.error for p in curves if p.strategy == s and p.checkpoint == checkpoint]
            )
            for s in strategies
        }
        for a in strategies:
            for b in strategies:
                if a == b:
                    continue
                p = float(mannwhitneyu(by_strategy[a], by_strategy[b], alternative="less").pvalue)
                significance.append(SignificanceRow(checkpoint, a, b, p))

    fractions = []
    for (strategy, seed) in sorted(logs):
        log = logs[(strategy, seed)]
        fractions.append(
            FractionRow(
                strategy,
                seed,
                reachable_fraction(log, (0.0, 1.0 / 3.0)),
                reachable_fraction(log, (2.0 / 3.0, 1.0)),
                reachable_fraction(log),
            )
        )
    return ComparisonResult(curves, significance, fractions)

