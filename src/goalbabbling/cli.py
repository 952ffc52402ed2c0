"""Command-line harness.

Subcommands: ``run`` (one experiment), ``eval`` (score a saved memory),
``compare`` (multi-seed strategy comparison), ``regions`` (validate and
re-emit region snapshots), ``testdb`` (generate an evaluation goal set).

Exit codes: 0 success, 1 configuration error, 2 runtime failure.  Every
run directory gets a ``manifest.json`` sufficient to reproduce it.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .evaluation import compare_strategies, default_checkpoints, evaluate, make_test_db
from .experiment import RunLog, run_with_memory, world_adapter

OUTPUT_ROOT_ENV = "GOALBABBLING_OUT"


def _out_dir(arg: str | None, default_name: str) -> Path:
    if arg is not None:
        return Path(arg)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs")) / default_name


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _parse_int_list(text: str, flag: str) -> list[int]:
    """The comma-separated non-negative integers given to `flag`."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from None
    if any(value < 0 for value in values):
        raise ConfigError(f"{flag} must not hold negative values, got {text!r}")
    return values


def _parse_checkpoints(text: str, budget: int) -> list[int]:
    """The `--checkpoints` values, none of which may exceed `budget`."""
    checkpoints = _parse_int_list(text, "--checkpoints")
    late = [c for c in checkpoints if c > budget]
    if late:
        raise ConfigError(f"--checkpoints must not exceed the budget of {budget}, got {late[0]}")
    return checkpoints


def write_run_outputs(log: RunLog, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "attempts.csv",
        [
            "attempt", "kind", "mode", "goal_x", "goal_y", "start_x", "start_y",
            "final_x", "final_y", "gamma", "actions", "terminated_by",
            "total_actions", "memory_size", "reachable",
        ],
        (
            [
                a.attempt, a.kind, a.mode, a.goal[0], a.goal[1], a.start[0], a.start[1],
                a.final[0], a.final[1], a.gamma, a.actions, a.terminated_by,
                a.total_actions, a.memory_size, a.reachable,
            ]
            for a in log.attempts
        ),
    )
    _write_csv(
        out / "goals.csv",
        ["attempt", "x", "y", "mode", "reachable"],
        ([g.attempt, g.point[0], g.point[1], g.mode, g.reachable] for g in log.goals),
    )
    _write_csv(
        out / "regions.csv",
        ["checkpoint", "used", "low_x", "low_y", "high_x", "high_y", "interest", "count"],
        (
            [snap.checkpoint, snap.used, low[0], low[1], high[0], high[1], interest, count]
            for snap in log.snapshots
            for (low, high, interest, count) in snap.leaves
        ),
    )
    _write_csv(
        out / "evaluations.csv",
        ["checkpoint", "used", "error"],
        ([e.checkpoint, e.used, e.error] for e in log.evaluations),
    )


def _write_manifest(out: Path, config: ExperimentConfig, extra: dict) -> None:
    manifest = {"config": config.to_dict(), **extra}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _column_summary(header: list[str]) -> str:
    """Column counts by name prefix, e.g. "8 params, 2 effect"."""
    counts: dict[str, int] = {}
    for name in header:
        prefix = name.rsplit("_", 1)[0]
        counts[prefix] = counts.get(prefix, 0) + 1
    return ", ".join(f"{n} {prefix}" for prefix, n in counts.items()) or "none"


def _load_test_goals(path: str, world) -> np.ndarray:
    """The test database as a (goals x effect_dim) array of finite points."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file is an empty database
            goals = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read test database {path}: {exc}") from exc
    if goals.size == 0:
        return goals.reshape(0, world.effect_dim)
    if goals.shape[1] != world.effect_dim:
        raise ConfigError(
            f"test database {path} has {goals.shape[1]} columns; goals in this world have {world.effect_dim}"
        )
    if not np.isfinite(goals).all():
        raise ConfigError(f"test database {path} holds non-finite coordinates")
    return goals


def _load_memory(path: str, config: ExperimentConfig, world):
    """The saved memory, after checking its columns against the config's world."""
    adapter = world_adapter(config, world)
    expected = adapter.memory_class.csv_header(world.geometry.n_dof, world.effect_dim)
    try:
        with open(path, newline="") as f:
            header = next(csv.reader(f), [])
    except OSError as exc:
        raise ConfigError(f"cannot read memory {path}: {exc}") from exc
    if header != expected:
        raise ConfigError(
            f"memory {path} has columns {_column_summary(header)}; "
            f"the config's world needs {_column_summary(expected)}"
        )
    try:
        return adapter.memory_class.load_csv(path, **adapter.memory_options)
    except ValueError as exc:
        raise ConfigError(f"cannot read memory {path}: {exc}") from exc


def cmd_run(args) -> int:
    config = load_config(args.config, seed=args.seed, budget=args.budget)
    out = _out_dir(args.out, f"{Path(args.config).stem}_seed{config.seed}")
    checkpoints = _parse_checkpoints(args.checkpoints, config.budget) if args.checkpoints else [config.budget]
    test_goals = _load_test_goals(args.testdb, config.build_world()) if args.testdb else None
    log, memory = run_with_memory(config, checkpoints=checkpoints, test_goals=test_goals)
    out.mkdir(parents=True, exist_ok=True)
    write_run_outputs(log, out)
    memory.dump_csv(out / "memory.csv")
    _write_manifest(out, config, {"checkpoints": checkpoints, "seed": config.seed, "budget": config.budget})
    print(f"run complete: {out}")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    world = config.build_world()
    goals = _load_test_goals(args.testdb, world)
    memory = _load_memory(args.memory, config, world)
    error = evaluate(memory, world, goals, config)
    print(repr(error))
    return 0


def cmd_compare(args) -> int:
    configs = [load_config(path, budget=args.budget) for path in args.configs]
    if len(configs) < 2 or len({c.strategy for c in configs}) < len(configs):
        raise ConfigError("--configs needs at least two configs, each with its own strategy")
    seeds = _parse_int_list(args.seeds, "--seeds")
    if not seeds:
        raise ConfigError("no seeds given")
    if args.db_seed in seeds:
        raise ConfigError("test database seed must differ from every run seed")
    if args.db_count < 1:
        raise ConfigError(f"--db-count must be >= 1, got {args.db_count}")
    budget = min(c.budget for c in configs)
    checkpoints = _parse_checkpoints(args.checkpoints, budget) if args.checkpoints else default_checkpoints(budget)
    out = _out_dir(args.out, "compare")
    world = configs[0].build_world()
    goals = make_test_db(world, args.db_count, args.db_seed)
    result = compare_strategies(configs, seeds, checkpoints, goals, n_jobs=args.jobs)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "curves.csv",
        ["strategy", "seed", "checkpoint", "used", "error"],
        ([c.strategy, c.seed, c.checkpoint, c.used, c.error] for c in result.curves),
    )
    _write_csv(
        out / "significance.csv",
        ["checkpoint", "strategy_a", "strategy_b", "p_less"],
        ([s.checkpoint, s.strategy_a, s.strategy_b, s.p_less] for s in result.significance),
    )
    _write_csv(
        out / "fraction.csv",
        ["strategy", "seed", "first_third", "last_third", "overall"],
        ([f.strategy, f.seed, f.first_third, f.last_third, f.overall] for f in result.fractions),
    )
    manifest = {
        "configs": [c.to_dict() for c in configs],
        "seeds": seeds,
        "checkpoints": checkpoints,
        "db_seed": args.db_seed,
        "db_count": args.db_count,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"comparison complete: {out}")
    return 0


def cmd_regions(args) -> int:
    run_dir = Path(args.run)
    source = run_dir / "regions.csv"
    if not source.exists():
        print(f"no region snapshots found under {run_dir}", file=sys.stderr)
        return 2
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"missing manifest.json under {run_dir}", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    task_low = manifest["config"]["task_low"]
    task_high = manifest["config"]["task_high"]
    with open(source, newline="") as f:
        rows = list(csv.DictReader(f))
    by_checkpoint: dict[str, list[dict]] = {}
    for row in rows:
        by_checkpoint.setdefault(row["checkpoint"], []).append(row)
    area = (task_high[0] - task_low[0]) * (task_high[1] - task_low[1])
    for checkpoint, leaves in by_checkpoint.items():
        covered = sum(
            (float(r["high_x"]) - float(r["low_x"])) * (float(r["high_y"]) - float(r["low_y"])) for r in leaves
        )
        if abs(covered - area) > 1e-6 * max(area, 1.0):
            print(f"checkpoint {checkpoint}: leaves do not tile the task space", file=sys.stderr)
            return 2
    destination = Path(args.out) if args.out else run_dir / "regions_validated.csv"
    destination.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    print(f"{len(by_checkpoint)} checkpoint(s) validated: {destination}")
    return 0


def cmd_testdb(args) -> int:
    config = load_config(args.config)
    if args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    world = config.build_world()
    goals = make_test_db(world, args.count, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ["x", "y"], ([g[0], g[1]] for g in goals))
    print(f"wrote {len(goals)} goals: {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="goal-babbling", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--budget", type=int)
    p_run.add_argument("--checkpoints", help="comma-separated micro-action counts")
    p_run.add_argument("--testdb", help="CSV of evaluation goals; enables checkpoint evaluation")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score a saved memory on a test database")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--memory", required=True)
    p_eval.add_argument("--testdb", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="multi-seed strategy comparison")
    p_cmp.add_argument("--configs", nargs="+", required=True)
    p_cmp.add_argument("--seeds", required=True, help="comma-separated seed list")
    p_cmp.add_argument("--checkpoints")
    p_cmp.add_argument("--budget", type=int)
    p_cmp.add_argument("--db-seed", type=int, default=999983)
    p_cmp.add_argument("--db-count", type=int, default=100)
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=cmd_compare)

    p_reg = sub.add_parser("regions", help="validate and re-emit region snapshots of a run")
    p_reg.add_argument("--run", required=True)
    p_reg.add_argument("--out")
    p_reg.set_defaults(func=cmd_regions)

    p_db = sub.add_parser("testdb", help="generate an evaluation goal database")
    p_db.add_argument("--config", required=True)
    p_db.add_argument("--count", type=int, default=100)
    p_db.add_argument("--seed", type=int, required=True)
    p_db.add_argument("--out", required=True)
    p_db.set_defaults(func=cmd_testdb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
