"""Reaching-error evaluation and multi-seed strategy comparison.

Evaluation runs the reaching machinery in pure exploitation: no memory
inserts, no exploration bursts, no region updates, so a snapshot of the
learner can be scored repeatedly without contaminating it.
"""
from __future__ import annotations

import dataclasses
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from .competence import CompetenceConfig
from .config import ConfigError, ExperimentConfig
# `reach_evolving` stays importable from this module, where the benchmark's
# tracer wraps it by name; evaluation itself reaches through the world adapter.
from .explorers import ReachingBudget, euclidean, reach_evolving  # noqa: F401
from .experiment import RunLog, check_checkpoints, competence_config, reaching_budget, run_with_memory, world_adapter


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
    share_a_lower: float  # share of (a, b) seed pairs with a's error lower, ties counted half


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


def rank_test(errors_a: np.ndarray, errors_b: np.ndarray) -> tuple[float, float]:
    """The one-sided p of a Mann-Whitney U test of "errors of a < errors
    of b", and the share of (a, b) pairs in which a's error is lower, ties
    counted half: 1 - U / (n_a n_b), from the same test's U."""
    # scipy.stats takes about a second to import; only comparisons need it.
    from scipy.stats import mannwhitneyu

    test = mannwhitneyu(errors_a, errors_b, alternative="less")
    return float(test.pvalue), 1.0 - float(test.statistic) / (len(errors_a) * len(errors_b))


def _one_run(args) -> RunLog:
    config, checkpoints, goals = args
    # Only the log goes back to the caller (across processes, with n_jobs > 1).
    return run_with_memory(config, checkpoints=checkpoints, test_goals=goals)[0]


def compare_strategies(
    configs: list[ExperimentConfig],
    seeds: list[int],
    checkpoints: list[int],
    test_goals: np.ndarray,
    n_jobs: int = 1,
) -> ComparisonResult:
    """Run every config x seed, score the shared test set at each
    checkpoint, and rank-test final errors for every ordered strategy pair.

    Results are independent of `n_jobs`: each run is one (strategy, seed)
    pair, so seeds may not repeat, and runs are aggregated in sorted order.
    As each run finishes, one line on stderr names it, with the seconds
    since the runs started.
    """
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
    # Each (strategy, seed) pair is one run; a repeated seed names it twice.
    repeated = [seed for i, seed in enumerate(seeds) if seed in seeds[:i]]
    if repeated:
        raise ConfigError(f"seed {repeated[0]} is given more than once")
    # One test database scores every run, so every run must share its world.
    for name in ("environment", "task_low", "task_high"):
        if any(getattr(c, name) != getattr(configs[0], name) for c in configs):
            given = "; ".join(f"{c.strategy} has {getattr(c, name)}" for c in configs)
            raise ConfigError(f"configs differ in {name}: {given}")
    check_checkpoints(checkpoints, min(c.budget for c in configs))
    runs = sorted((config.strategy, seed) for config in configs for seed in seeds)
    config_of = {config.strategy: config for config in configs}
    jobs = [(dataclasses.replace(config_of[s], seed=seed), tuple(checkpoints), test_goals) for s, seed in runs]
    started, finished = time.perf_counter(), 0

    def report(strategy: str, seed: int) -> None:
        nonlocal finished
        finished += 1
        elapsed = time.perf_counter() - started
        print(f"[{finished}/{len(runs)}] {strategy} seed {seed} finished at {elapsed:.1f} s", file=sys.stderr)

    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = {pool.submit(_one_run, job): run for job, run in zip(jobs, runs)}
            for future in as_completed(futures):
                future.result()  # a failed run raises here, before it is reported
                report(*futures[future])
            logs = [future.result() for future in futures]
    else:
        logs = []
        for job, run in zip(jobs, runs):
            logs.append(_one_run(job))
            report(*run)

    curves = [
        CurvePoint(strategy, seed, record.checkpoint, record.used, record.error)
        for (strategy, seed), log in zip(runs, logs)
        for record in log.evaluations
    ]

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
                p, share = rank_test(by_strategy[a], by_strategy[b])
                significance.append(SignificanceRow(checkpoint, a, b, p, share))

    fractions = [
        FractionRow(
            strategy,
            seed,
            reachable_fraction(log, (0.0, 1.0 / 3.0)),
            reachable_fraction(log, (2.0 / 3.0, 1.0)),
            reachable_fraction(log),
        )
        for (strategy, seed), log in zip(runs, logs)
    ]
    return ComparisonResult(curves, significance, fractions)

