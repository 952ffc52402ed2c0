"""Acceptance suite.

One test per criterion; each prints a `[criterion N] PASS/FAIL` line (run
pytest with `-s` to stream them).  The two desk-scale benchmark
comparisons are computed once per session and shared between criteria.
"""
import dataclasses
import hashlib
import json
import os
import time

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from goalbabbling.cli import main
from goalbabbling.config import bundled_config_path, load_config
from goalbabbling.evaluation import compare_strategies, make_test_db
from goalbabbling.regions import RecordOrigin, RegionTree, interest_of
from goalbabbling.spaces import Box

DB_SEED = 999983
SEEDS = list(range(1, 16))
JOBS = max(1, os.cpu_count() or 1)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def batch_interest_oracle(gammas, window):
    tail = [float(g) for g in gammas][-window:]
    half = len(tail) // 2
    older = 0.0
    for g in tail[:half]:
        older += g
    newer = 0.0
    for g in tail[len(tail) - half:]:
        newer += g
    return abs(older - newer) / window


# ----------------------------------------------------------------- criterion 1

def test_criterion_1_interest_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    window = 24
    checked = 0
    for _ in range(100_000):
        n = int(rng.integers(0, 60))
        gammas = (-rng.random(n)).tolist()
        if interest_of(gammas, window) != batch_interest_oracle(gammas, window):
            report(1, False, f"mismatch on sequence of length {n}")
        checked += 1
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10.0, f"{checked} random sequences bitwise-equal to the batch formula in {elapsed:.1f}s (< 10s)")


# ----------------------------------------------------------------- criterion 2

def test_criterion_2_pseudo_inverse_identities():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for i in range(10_000):
        rows = int(rng.integers(1, 31))
        cols = int(rng.integers(1, 31))
        matrix = rng.normal(size=(rows, cols))
        if i % 3 == 0:  # force rank deficiency through a low-rank factorization
            rank = int(rng.integers(1, min(rows, cols) + 1))
            matrix = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        pinv = np.linalg.pinv(matrix)
        worst = max(
            worst,
            float(np.linalg.norm(matrix @ pinv @ matrix - matrix)),
            float(np.linalg.norm(pinv @ matrix @ pinv - pinv)),
        )
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-8 and elapsed < 30.0, f"worst identity residual {worst:.2e} (< 1e-8) in {elapsed:.1f}s (< 30s)")


# ----------------------------------------------------------------- criterion 3

def test_criterion_3_partition_invariant_at_scale():
    rng = np.random.default_rng(3)
    tree = RegionTree(
        Box(np.array([0.0, -150.0]), np.array([150.0, 150.0])),
        rng=np.random.default_rng(33),
        window=24,
        capacity=50,
        split_candidates=50,
    )
    n = 100_000
    start = time.perf_counter()
    points = np.column_stack([rng.uniform(0, 150, n), rng.uniform(-150, 150, n)])
    gammas = -rng.random(n)
    for point, gamma in zip(points, gammas):
        tree.update(point, float(gamma), RecordOrigin.SELF_GENERATED)
    elapsed = time.perf_counter() - start
    leaves = tree.leaves()
    total = sum(len(leaf.records) for leaf in leaves)
    area = sum(float(np.prod(leaf.bounds.extent)) for leaf in leaves)
    area_ok = abs(area - 150.0 * 300.0) < 1e-6 * 150 * 300
    sample = np.column_stack([rng.uniform(0, 150, 500), rng.uniform(-150, 150, 500)])
    unique_owner = all(
        sum(bool(np.all(p >= l.bounds.low) and np.all(p < l.bounds.high)) for l in leaves) == 1
        for p in sample
    )
    ok = total == n and area_ok and unique_owner and elapsed < 30.0
    report(
        3,
        ok,
        f"{len(leaves)} leaves tile the box exactly, {total}/{n} records conserved, {elapsed:.1f}s (< 30s)",
    )


# ----------------------------------------------------------------- criterion 4

def test_criterion_4_mode_frequencies():
    tree = RegionTree(
        Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
        rng=np.random.default_rng(4),
        window=6,
        capacity=10,
        split_candidates=25,
        probabilities=(0.7, 0.2, 0.1),
    )
    rng = np.random.default_rng(44)
    for _ in range(40):
        tree.update(rng.random(2), float(-rng.random()), RecordOrigin.SELF_GENERATED)
    modes = np.array([tree.select_goal(rng)[1] for _ in range(100_000)])
    freqs = np.array([(modes == m).mean() for m in (1, 2, 3)])
    deltas = np.abs(freqs - np.array([0.70, 0.20, 0.10]))
    report(4, bool(np.all(deltas <= 0.02)), f"empirical mode frequencies {np.round(freqs, 4).tolist()} within +/-2% of (0.7, 0.2, 0.1)")


# ------------------------------------------------------- criteria 5 and 7 (shared runs)

@pytest.fixture(scope="module")
def mid_space_comparison():
    cfg = load_config(bundled_config_path("arm15_mid"))
    world = cfg.build_world()
    goals = make_test_db(world, 100, seed=DB_SEED)
    configs = [
        dataclasses.replace(cfg, strategy=s)
        for s in ("sagg_riac", "sagg_random", "actuator_random", "actuator_riac")
    ]
    checkpoints = [1000, 2000, 5000, 10000, 20000, 30000]
    return compare_strategies(configs, SEEDS, checkpoints, goals, n_jobs=JOBS)


def _final_errors(result, strategy, checkpoint):
    return np.array([p.error for p in result.curves if p.strategy == strategy and p.checkpoint == checkpoint])


@pytest.mark.slow
def test_criterion_5_mid_space_ordering(mid_space_comparison):
    result = mid_space_comparison
    finals = {s: _final_errors(result, s, 30000) for s in ("sagg_riac", "sagg_random", "actuator_random", "actuator_riac")}
    p_values = {}
    ok = True
    for rival in ("sagg_random", "actuator_random", "actuator_riac"):
        p = float(mannwhitneyu(finals["sagg_riac"], finals[rival], alternative="less").pvalue)
        p_values[rival] = p
        ok = ok and np.mean(finals["sagg_riac"]) < np.mean(finals[rival]) and p < 0.05
    means = {s: round(float(np.mean(e)), 2) for s, e in finals.items()}
    report(5, ok, f"final mean errors {means}; one-sided rank-test p-values {p_values}")


@pytest.mark.slow
def test_criterion_7_reachability_discovery(mid_space_comparison):
    result = mid_space_comparison
    # Monte-Carlo uniform baseline: fraction of the task box that is reachable.
    cfg = load_config(bundled_config_path("arm15_mid"))
    world = cfg.build_world()
    rng = np.random.default_rng(7)
    sample = cfg.task_box.low + rng.random((200_000, 2)) * cfg.task_box.extent
    baseline = float(np.mean([world.within_reach(p) for p in sample]))
    first = np.array([f.first_third for f in result.fractions if f.strategy == "sagg_riac"])
    last = np.array([f.last_third for f in result.fractions if f.strategy == "sagg_riac"])
    ok = float(last.mean()) >= 3.0 * baseline and float(last.mean()) > float(first.mean())
    report(
        7,
        ok,
        f"goal reachability: first-third {first.mean():.3f} -> last-third {last.mean():.3f}, "
        f"baseline {baseline:.4f} (3x = {3 * baseline:.3f})",
    )


# ----------------------------------------------------------------- criterion 6

@pytest.mark.slow
def test_criterion_6_large_space_discrimination():
    cfg = load_config(bundled_config_path("arm15_big"))
    assert cfg.explore_actions == 5 and cfg.blocking_window == 3
    world = cfg.build_world()
    goals = make_test_db(world, 100, seed=DB_SEED)
    configs = [
        dataclasses.replace(cfg, strategy="sagg_riac"),
        # The blocking shortcut is part of the interest-driven design for
        # high-volume spaces; the random-goal baseline keeps the plain
        # distance-proportional timeout.
        dataclasses.replace(cfg, strategy="sagg_random", blocking_window=0),
    ]
    result = compare_strategies(configs, SEEDS, [30000], goals, n_jobs=JOBS)
    riac = _final_errors(result, "sagg_riac", 30000)
    random = _final_errors(result, "sagg_random", 30000)
    p = float(mannwhitneyu(riac, random, alternative="less").pvalue)
    ok = riac.mean() < random.mean() and p < 0.05
    report(6, ok, f"final mean errors: interest-driven {riac.mean():.2f} vs random goals {random.mean():.2f}, p = {p:.4f}")


# ----------------------------------------------------------------- criterion 8

@pytest.mark.slow
def test_criterion_8_fixed_context_ordering():
    cfg = load_config(bundled_config_path("map8_mid"))
    world = cfg.build_world()
    goals = make_test_db(world, 100, seed=DB_SEED)
    configs = [
        dataclasses.replace(cfg, strategy="sagg_riac"),
        dataclasses.replace(cfg, strategy="actuator_random"),
    ]
    result = compare_strategies(configs, list(range(1, 11)), [10000], goals, n_jobs=JOBS)
    riac = _final_errors(result, "sagg_riac", 10000)
    random = _final_errors(result, "actuator_random", 10000)
    p = float(mannwhitneyu(riac, random, alternative="less").pvalue)
    ok = riac.mean() < random.mean() and p < 0.05
    report(8, ok, f"episodic world final mean errors: goal babbling {riac.mean():.2f} vs motor babbling {random.mean():.2f}, p = {p:.4f}")


# ----------------------------------------------------------------- criterion 9

def _hash_outputs(path):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.iterdir())
        if f.suffix in (".csv", ".json")
    }


def test_criterion_9_byte_identical_reproduction(tmp_path):
    config_path = tmp_path / "demo.json"
    data = json.loads(bundled_config_path("arm2_demo").read_text())
    data["budget"] = 600
    config_path.write_text(json.dumps(data))

    run_hashes = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", "--config", str(config_path), "--out", str(out), "--checkpoints", "300,600"]) == 0
        run_hashes.append(_hash_outputs(out))
    same_runs = run_hashes[0] == run_hashes[1]

    other = tmp_path / "random.json"
    data["strategy"] = "sagg_random"
    other.write_text(json.dumps(data))
    compare_hashes = []
    for jobs, name in (("1", "c1"), ("2", "c2")):
        out = tmp_path / name
        code = main(
            [
                "compare", "--configs", str(config_path), str(other),
                "--seeds", "1,2,3", "--checkpoints", "600", "--out", str(out),
                "--db-seed", str(DB_SEED), "--db-count", "20", "--jobs", jobs,
            ]
        )
        assert code == 0
        compare_hashes.append(_hash_outputs(out))
    same_jobs = compare_hashes[0] == compare_hashes[1]
    report(9, same_runs and same_jobs, f"identical run hashes: {same_runs}; job-count-invariant comparison hashes: {same_jobs}")
