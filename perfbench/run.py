"""Goal-babbling benchmark: training throughput, evaluation time and accuracy.

    python3 perfbench/run.py --workload arm_goal --seed 1 --seconds 40 --trace 0

Each workload is a closed loop of single runs: one fresh process at a
time (`child.py`), each training one learner to its budget with
evaluation at `default_checkpoints(budget)` on a 100-goal test database.
The run seeds come from `--seed`: `1000 * seed + i` for the i-th run.
Runs start while `--seconds` allow, but the workload's first
`accuracy_seeds` runs always run, so the accuracy figure is fixed by
`--seed`.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are taken
over the runs (see `end_to_end`).  With `--trace 1` every run seed is run untraced
and then traced; the traced run must reproduce the untraced final error
and counts exactly, and gives the per-layer metrics.  Every run is
checked; a run that raises, exits non-zero or fails a check counts in
`failed`.  The last line of stdout is the result object; the lines
before it record the machine and the runs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PACKAGE = ROOT / "src" / "goalbabbling"

# No run starts after this many seconds, which keeps a run of the
# benchmark well inside three minutes.
HARD_LIMIT_S = 150.0


@dataclass(frozen=True)
class Workload:
    config: str
    strategy: str
    budget: int
    accuracy_seeds: int  # runs that always run; final_error is their median


WORKLOADS = {
    "arm_goal": Workload("arm15_mid", "sagg_riac", 2000, 11),
    "arm_motor_riac": Workload("arm15_mid", "actuator_riac", 2000, 6),
    "map_goal": Workload("map8_mid", "sagg_riac", 10000, 8),
}

# Layers timed in the traced run, as named in the per-layer metrics.
LAYERS = (
    "kinematics.step",
    "kinematics.rollout",
    "memory.query",
    "memory.rebuild",
    "memory.insert",
    "memory.local_jacobian",
    "memory.local_inverse",
    "regions.update",
    "regions.select_goal",
    "experiment.choose_point",
    "explorers.reach",
    "evaluation.evaluate",
    "evaluation.reach",
)


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def spawn(workload: Workload, seed: int, trace: bool, timeout: float) -> dict:
    """One run in a fresh process; its result, with `errors` for any failure."""
    command = [
        sys.executable, str(CHILD),
        "--config", workload.config,
        "--strategy", workload.strategy,
        "--budget", str(workload.budget),
        "--seed", str(seed),
        "--trace", str(int(trace)),
    ]
    try:
        # subprocess.run kills and reaps the child on timeout.
        done = subprocess.run(
            command + ["--spawned-ns", str(monotonic_ns())],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "errors": [f"run did not finish within {timeout:.0f} s"]}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"seed": seed, "errors": [f"exit code {done.returncode}: {tail[0]}"]}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "errors": ["run printed no result"]}


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> list:
    """Visits of successive run seeds until the time is up.

    A visit is one untraced run, or an untraced and a traced run of the
    same seed.  A visit starts only if it should end within `seconds`,
    judged by the longest visit so far, except that the first
    `accuracy_seeds` untraced visits (one traced visit) always run.
    """
    minimum = 1 if trace else workload.accuracy_seeds
    start = time.monotonic()
    visits: list[list[dict]] = []
    longest = 0.0
    while True:
        now = time.monotonic()
        elapsed = now - start
        if elapsed > HARD_LIMIT_S:
            break
        if len(visits) >= minimum and elapsed + longest > seconds:
            break
        s = run_seed(seed, len(visits))
        timeout = max(1.0, HARD_LIMIT_S + 20 - elapsed)
        visit = [spawn(workload, s, traced, timeout) for traced in ((False, True) if trace else (False,))]
        if trace and not any(r["errors"] for r in visit):
            untraced, traced = visit
            if (untraced["final_error"], untraced["counts"]) != (traced["final_error"], traced["counts"]):
                traced["errors"].append(f"traced run of seed {s} changed the final error or counts")
        visits.append(visit)
        longest = max(longest, time.monotonic() - now)
        if any(r["errors"] for r in visit) and len(visits) >= minimum:
            break
    return visits


def end_to_end(runs: list[dict], accuracy_seeds: int) -> dict:
    """Training and evaluation rates are totals over all runs: run times
    vary mostly with the run seed, and totals vary less over seed sets
    than medians do.  Set-up time and memory are medians, and so is the
    final error, where about one seed in six learns badly."""
    median = statistics.median

    def total(key):
        return sum(r[key] for r in runs)

    return {
        "train_steps_per_s": (total("steps") / (total("run_s") - total("eval_s")), "1/s"),
        "eval_s_per_checkpoint": (total("eval_s") / total("checkpoints"), "s"),
        "run_s": (total("run_s") / len(runs), "s"),
        "setup_s": (median([r["setup_s"] for r in runs]), "s"),
        # Over the first run seeds only, so fixed by --seed.
        "final_error": (median([r["final_error"] for r in runs[:accuracy_seeds]]), "task_unit"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in runs]), "MiB"),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-layer figures per traced run, with the untraced partners giving
    the tracing overhead.  The shares and the remainder sum to 1, and
    `trace.run_s` is the mean traced run time they divide."""
    traced = [t for _, t in pairs]
    n = len(traced)
    run_ns = sum(t["run_s"] for t in traced) * 1e9

    def total(layer, key):
        return sum(t["layers"].get(layer, {}).get(key, 0) for t in traced)

    def events(key):
        return sum(t["events"].get(key, 0) for t in traced)

    metrics = {}
    covered = 0
    for name in LAYERS:
        calls = total(name, "calls")
        self_ns = total(name, "self_ns")
        covered += self_ns
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_us"] = (self_ns / calls / 1e3 if calls else 0.0, "us")
        metrics[f"{name}.share"] = (self_ns / run_ns, "share")

    def ratio(event, layer):
        calls = total(layer, "calls")
        return events(event) / calls if calls else 0.0

    metrics["memory.local_jacobian.miss_ratio"] = (
        ratio("memory.local_jacobian.misses", "memory.local_jacobian"), "share")
    metrics["regions.update.split_ratio"] = (ratio("regions.update.splits", "regions.update"), "share")
    metrics["regions.leaves"] = (events("regions.leaves") / n, "count")
    metrics["explorers.reach.reached_ratio"] = (ratio("explorers.reach.reached", "explorers.reach"), "share")
    metrics["trace.run_s"] = (run_ns / n / 1e9, "s")
    metrics["trace.remainder.share"] = (1.0 - covered / run_ns, "share")
    metrics["trace.overhead"] = (statistics.median(t["run_s"] / u["run_s"] for u, t in pairs), "ratio")
    return metrics


def machine(load_at_start) -> dict:
    blas_threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "loadavg_at_start": load_at_start,
        "blas_threads": blas_threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: the goalbabbling sources are missing under {PACKAGE.parent}", file=sys.stderr)
        return 2

    load_at_start = list(os.getloadavg())
    workload = WORKLOADS[args.workload]
    visits = measure(workload, args.seed, args.seconds, bool(args.trace))
    results = [r for visit in visits for r in visit]
    failed = sum(bool(r["errors"]) for r in results)

    info = machine(load_at_start)
    info.update(next((r["versions"] for r in results if "versions" in r), {}))
    print(json.dumps({"machine": info}))
    for r in results:
        keys = ("seed", "setup_s", "run_s", "eval_s", "final_error", "errors")
        print(json.dumps({"run": {k: r[k] for k in keys if k in r}, "traced": "layers" in r}))
    print(json.dumps({"workload": args.workload, "runs": len(results)}))

    metrics = {}
    if failed == 0:
        metrics = per_layer([tuple(v) for v in visits]) if args.trace else end_to_end(results, workload.accuracy_seeds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
