"""One benchmark run in a fresh process: set up, train with evaluation, check.

    python3 perfbench/child.py --config arm15_mid --strategy sagg_riac \
        --budget 3000 --seed 7 --trace 0 --spawned-ns <CLOCK_MONOTONIC ns>

The package is imported from the `src` directory next to this one and
driven through its public API only.  Untraced, just
`evaluation.evaluate` is timed, to split evaluation from training time;
traced, every layer call in `layer_patches` is timed as a span.  Prints
one JSON object on stdout; exits non-zero only when the run raised.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TEST_GOALS = 100
TEST_DB_SEED = 999983


def monotonic_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes, so the spawning process's
    # timestamp and this one can be subtracted.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def layer_patches(gb, trees: dict) -> list:
    """(owner, attribute, span name, observer) for every traced layer call.

    Module-level functions are wrapped where the caller looks them up:
    `experiment.reach_*` for training, `evaluation.reach_evolving` and
    `evaluation.evaluate` (imported lazily by the checkpoint hook) for
    evaluation, and `memory.cKDTree` for index rebuilds.
    """
    kin, mem, reg, exp, ev = gb.kinematics, gb.memory, gb.regions, gb.experiment, gb.evaluation

    def jacobian_miss(events, args, result):
        events["memory.local_jacobian.misses"] += result is None

    def region_split(events, args, result):
        trees[id(args[0])] = args[0]
        events["regions.update.splits"] += not result.is_leaf

    def reached(events, args, result):
        events["explorers.reach.reached"] += result.terminated_by == gb.REACHED

    return [
        (kin.ArmWorld, "step", "kinematics.step", None),
        (kin.SynergyWorld, "rollout", "kinematics.rollout", None),
        (mem.NearestIndex, "query", "memory.query", None),
        (mem, "cKDTree", "memory.rebuild", None),
        (mem.EvolvingMemory, "insert", "memory.insert", None),
        (mem.FixedMemory, "insert", "memory.insert", None),
        (mem.EvolvingMemory, "local_jacobian", "memory.local_jacobian", jacobian_miss),
        (mem.FixedMemory, "local_inverse", "memory.local_inverse", None),
        (reg.RegionTree, "update", "regions.update", region_split),
        (reg.RegionTree, "select_goal", "regions.select_goal", None),
        (exp.ActuatorRiacPolicy, "choose_point", "experiment.choose_point", None),
        (exp, "reach_evolving", "explorers.reach", reached),
        (exp, "reach_fixed", "explorers.reach", reached),
        (ev, "reach_evolving", "evaluation.reach", None),
        (ev, "evaluate", "evaluation.evaluate", None),
    ]


def tiling_errors(leaves, box) -> list[str]:
    """Leaves must lie in the box, overlap only on faces and fill its volume."""
    import numpy as np

    low = np.array([leaf[0] for leaf in leaves])
    high = np.array([leaf[1] for leaf in leaves])
    errors = []
    if np.any(low < box.low) or np.any(high > box.high):
        errors.append("a region leaf leaves the task box")
    share = np.prod((high - low) / box.extent, axis=1)
    if not math.isclose(float(share.sum()), 1.0, rel_tol=1e-9):
        errors.append(f"region leaves cover {share.sum():.12g} of the task box, not 1")
    overlap = np.minimum(high[:, None], high[None]) - np.maximum(low[:, None], low[None])
    shared = np.all(overlap > 0.0, axis=2)
    np.fill_diagonal(shared, False)
    if shared.any():
        errors.append("two region leaves overlap")
    return errors


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--strategy", required=True)
    parser.add_argument("--budget", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import goalbabbling as gb
    from goalbabbling.evaluation import default_checkpoints

    if Path(gb.__file__).resolve().parent != SRC / "goalbabbling":
        raise SystemExit(f"goalbabbling was imported from {gb.__file__}, not from {SRC}")

    config = gb.load_config(gb.bundled_config_path(args.config), seed=args.seed, budget=args.budget)
    config = dataclasses.replace(config, strategy=args.strategy)
    world = config.build_world()
    test_goals = gb.make_test_db(world, TEST_GOALS, TEST_DB_SEED)
    checkpoints = default_checkpoints(config.budget)

    tracer = Tracer()
    trees: dict = {}
    patches = layer_patches(gb, trees)
    if not args.trace:
        patches = [p for p in patches if p[2] == "evaluation.evaluate"]
    with tracer.installed(patches):
        started = monotonic_ns()
        log, memory = gb.run_with_memory(config, checkpoints, test_goals)
        finished = monotonic_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    final_error = log.evaluations[-1].error if log.evaluations else math.nan
    leaves = log.snapshots[-1].leaves if log.snapshots else []
    errors = []
    if len(memory) != config.budget:
        errors.append(f"memory holds {len(memory)} entries, budget is {config.budget}")
    evaluated = [record.checkpoint for record in log.evaluations]
    if evaluated != checkpoints:
        errors.append(f"evaluated at {evaluated}, checkpoints are {checkpoints}")
    if not math.isfinite(final_error):
        errors.append(f"final error {final_error} is not finite")
    if leaves:
        errors.extend(tiling_errors(leaves, config.task_box))

    result = {
        "seed": args.seed,
        "setup_s": (started - args.spawned_ns) / 1e9,
        "run_s": (finished - started) / 1e9,
        "eval_s": tracer.total_ns["evaluation.evaluate"] / 1e9,
        "steps": config.budget,
        "checkpoints": len(checkpoints),
        "final_error": final_error,
        "peak_rss_mb": peak_rss_mb,
        "counts": {
            "memory": len(memory),
            "evaluations": len(log.evaluations),
            "attempts": len(log.attempts),
            "goals": len(log.goals),
            "en_route_updates": log.en_route_updates,
            "resets": len(log.resets),
            "leaves": len(leaves),
        },
        "errors": errors,
        "versions": versions(),
    }
    if args.trace:
        result["layers"] = {
            name: {"calls": tracer.calls[name], "self_ns": tracer.self_ns[name]} for name in tracer.calls
        }
        result["events"] = dict(tracer.events)
        result["events"]["regions.leaves"] = sum(len(tree.leaves()) for tree in trees.values())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
