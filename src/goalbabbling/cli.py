"""Command-line harness.

Subcommands: ``run`` (one experiment), ``eval`` (score a saved memory),
``compare`` (multi-seed strategy comparison), ``regions`` (validate and
re-emit region snapshots), ``testdb`` (generate an evaluation goal set).

Exit codes: 0 success, 1 configuration error, 2 runtime failure.  Every
run directory gets a ``manifest.json`` sufficient to reproduce it.  Every
input, ``--out`` included, is checked before any work starts.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .evaluation import (
    CurvePoint, FractionRow, SignificanceRow, compare_strategies, default_checkpoints, evaluate, make_test_db
)
from .experiment import EvaluationRecord, RunLog, check_checkpoints, run_with_memory, world_adapter

OUTPUT_ROOT_ENV = "GOALBABBLING_OUT"


def _out_dir(arg: str | None, default_name: str) -> Path:
    if arg is not None:
        return Path(arg)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs")) / default_name


def _checked_out(path: Path, directory: bool) -> Path:
    """`path` once it is known that `--out` can be written there: as a
    directory when `directory`, else as a file.  Checked before any work,
    so a bad `--out` ends with a ``ConfigError`` instead of lost work; the
    writers create what is missing only at the end."""
    if path.exists() and path.is_dir() != directory:
        raise ConfigError(f"--out {path} {'is not a directory' if directory else 'is a directory'}")
    parent = path.parent
    while not parent.exists():
        parent = parent.parent
    if not parent.is_dir():
        raise ConfigError(f"--out {path} lies under {parent}, which is not a directory")
    return path


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The one CSV writer: a header row, then one row per item of `rows`;
    creates the file's directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _read_csv(path, what: str) -> tuple[list[str], np.ndarray]:
    """The one CSV reader: the header and a (rows x columns) float table of
    finite values; blank lines are skipped.  Raises ``ConfigError`` naming
    `what` and `path`."""
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            rows = [[float(v) for v in row] for row in reader if row]
        table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except (OSError, ValueError, csv.Error) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ConfigError(f"{what} {path}: data row {bad[0] + 1} holds a non-finite value")
    return header, table


def _parse_int_list(text: str, flag: str) -> list[int]:
    """The comma-separated non-negative integers given to `flag`."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} must hold at least one integer, got {text!r}")
    if any(value < 0 for value in values):
        raise ConfigError(f"{flag} must not hold negative values, got {text!r}")
    return values


def _write_records(path: Path, record_type: type, records) -> None:
    """One row per dataclass record, under its field names."""
    _write_csv(path, [f.name for f in dataclasses.fields(record_type)], map(dataclasses.astuple, records))


def _parse_checkpoints(text: str, budget: int) -> list[int]:
    """The `--checkpoints` values, none of which may exceed `budget`."""
    checkpoints = _parse_int_list(text, "--checkpoints")
    try:
        check_checkpoints(checkpoints, budget)
    except ConfigError as exc:
        raise ConfigError(f"--checkpoints: {exc}") from None
    return checkpoints


def write_run_outputs(log: RunLog, out: Path) -> None:
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
    _write_records(out / "evaluations.csv", EvaluationRecord, log.evaluations)


def _write_manifest(out: Path, manifest: dict) -> None:
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
    header, goals = _read_csv(path, "test database")
    if len(header) != world.effect_dim:
        raise ConfigError(
            f"test database {path} has {len(header)} columns; goals in this world have {world.effect_dim}"
        )
    if goals.shape[0] == 0:
        raise ConfigError(f"test database {path} holds no goals")
    return goals


def _load_memory(path: str, config: ExperimentConfig, world):
    """The saved memory, after checking its columns against the config's world."""
    memory = world_adapter(config, world).new_memory()
    header, rows = _read_csv(path, "memory")
    if header != memory.header():
        raise ConfigError(
            f"memory {path} has columns {_column_summary(header)}; "
            f"the config's world needs {_column_summary(memory.header())}"
        )
    memory.insert_rows(rows)
    return memory


def cmd_run(args) -> int:
    config = load_config(args.config, seed=args.seed, budget=args.budget)
    checkpoints = _parse_checkpoints(args.checkpoints, config.budget) if args.checkpoints else [config.budget]
    test_goals = _load_test_goals(args.testdb, config.build_world()) if args.testdb else None
    out = _checked_out(_out_dir(args.out, f"{Path(args.config).stem}_seed{config.seed}"), directory=True)
    log, memory = run_with_memory(config, checkpoints=checkpoints, test_goals=test_goals)
    write_run_outputs(log, out)
    _write_csv(out / "memory.csv", memory.header(), memory.table())
    _write_manifest(
        out, {"config": config.to_dict(), "checkpoints": checkpoints, "seed": config.seed, "budget": config.budget}
    )
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
    if args.db_seed in seeds:
        raise ConfigError("test database seed must differ from every run seed")
    if args.db_count < 1:
        raise ConfigError(f"--db-count must be >= 1, got {args.db_count}")
    budget = min(c.budget for c in configs)
    checkpoints = _parse_checkpoints(args.checkpoints, budget) if args.checkpoints else default_checkpoints(budget)
    out = _checked_out(_out_dir(args.out, "compare"), directory=True)
    world = configs[0].build_world()
    goals = make_test_db(world, args.db_count, args.db_seed)
    result = compare_strategies(configs, seeds, checkpoints, goals, n_jobs=args.jobs)
    _write_records(out / "curves.csv", CurvePoint, result.curves)
    _write_records(out / "significance.csv", SignificanceRow, result.significance)
    _write_records(out / "fraction.csv", FractionRow, result.fractions)
    _write_manifest(
        out,
        {
            "configs": [c.to_dict() for c in configs],
            "seeds": seeds,
            "checkpoints": checkpoints,
            "db_seed": args.db_seed,
            "db_count": args.db_count,
        },
    )
    print(f"comparison complete: {out}")
    return 0


def cmd_regions(args) -> int:
    run_dir = Path(args.run)
    destination = _checked_out(Path(args.out) if args.out else run_dir / "regions_validated.csv", directory=False)
    source = run_dir / "regions.csv"
    if not source.exists():
        raise ConfigError(f"no region snapshots found under {run_dir}")
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"missing manifest.json under {run_dir}")
    header, table = _read_csv(source, "region snapshots")
    try:
        config = json.loads(manifest_path.read_text(encoding="utf-8"))["config"]
        task_low, task_high = config["task_low"], config["task_high"]
        area = (task_high[0] - task_low[0]) * (task_high[1] - task_low[1])
        checkpoints, low_x, low_y, high_x, high_y = (
            table[:, header.index(name)] for name in ("checkpoint", "low_x", "low_y", "high_x", "high_y")
        )
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"cannot read the region snapshots under {run_dir}: {exc!r}") from exc
    covered: dict[int, float] = {}
    for c, leaf in zip(checkpoints.astype(int).tolist(), ((high_x - low_x) * (high_y - low_y)).tolist()):
        covered[c] = covered.get(c, 0.0) + leaf
    for checkpoint, total in covered.items():
        # A NaN total fails the test too.
        if not abs(total - area) <= 1e-6 * max(area, 1.0):
            raise ConfigError(f"checkpoint {checkpoint}: leaves do not tile the task space")
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_bytes(source.read_bytes())
    print(f"{len(covered)} checkpoint(s) validated: {destination}")
    return 0


def cmd_testdb(args) -> int:
    config = load_config(args.config)
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    out = _checked_out(Path(args.out), directory=False)
    world = config.build_world()
    goals = make_test_db(world, args.count, args.seed)
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
