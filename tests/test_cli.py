import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from goalbabbling.cli import _read_csv, _write_csv, main
from goalbabbling.config import bundled_config_path


@pytest.fixture()
def demo_config(tmp_path):
    data = json.loads(bundled_config_path("arm2_demo").read_text())
    data["budget"] = 400
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(data))
    return path


def _hash_dir(path: Path) -> dict:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.iterdir())
        if f.suffix in (".csv", ".json")
    }


def test_run_writes_outputs_and_manifest(demo_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(demo_config), "--out", str(out)]) == 0
    for name in ("attempts.csv", "goals.csv", "regions.csv", "memory.csv", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["p1"] == 70.0
    assert manifest["config"]["p2"] == 20.0
    assert manifest["config"]["p3"] == 10.0
    assert manifest["seed"] == manifest["config"]["seed"]
    header = (out / "attempts.csv").read_text().splitlines()[0]
    assert header.startswith("attempt,kind,mode,")


def test_run_zero_budget_empty_logs(demo_config, tmp_path):
    out = tmp_path / "zero"
    assert main(["run", "--config", str(demo_config), "--out", str(out), "--budget", "0"]) == 0
    attempts = (out / "attempts.csv").read_text().splitlines()
    assert len(attempts) == 1  # header only
    goals = (out / "goals.csv").read_text().splitlines()
    assert len(goals) == 1


def test_run_is_reproducible_bytewise(demo_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--config", str(demo_config), "--out", str(out), "--seed", "4"]) == 0
    assert _hash_dir(out_a) == _hash_dir(out_b)


def test_invalid_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"strategy": "sagg_riac", "budget": 10, "seed": 1, "velocty": 1.0}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "velocty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ({"velocity": math.nan}, "velocity"),
        ({"timeout_factor": math.inf}, "timeout_factor"),
        ({"budget": True}, "budget"),
        ({"region_capacity": 2.5}, "region_capacity"),
        ({"environment": {"n_dof": 2.5}}, "environment.n_dof"),
        ({"environment": {"total_length": -math.inf}}, "environment.total_length"),
        ({"seed": "1"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"subgoals": 1}, "subgoals"),
        ({"burn_in_goals": 1.0}, "burn_in_goals"),
        ({"task_space": {"low": 0, "high": [60, 60]}}, "task_low"),
        ({"task_high": [60.0, math.nan]}, "task_high"),
    ],
)
def test_run_rejects_mistyped_or_non_finite_fields(demo_config, tmp_path, capsys, override, field):
    data = json.loads(demo_config.read_text())
    data.pop("task_space")
    for key, value in override.items():
        if isinstance(value, dict) and key == "environment":
            data[key].update(value)
        else:
            data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert f"{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ({"velocity": 5e-324}, "velocity"),
        ({"velocity": 5e-324, "strategy": "actuator_riac"}, "velocity"),
        ({"environment": {"total_length": 1e308}}, "environment.total_length"),
        ({"task_space": {"low": [0, -1e308], "high": [1e308, 1e308]}}, "task_low"),
        ({"split_candidates": 10**13}, "split_candidates"),
        ({"environment": {"n_dof": 10**10}}, "environment.n_dof"),
        ({"subgoal_count": 10**10}, "subgoal_count"),
    ],
    ids=["velocity-tiny", "velocity-tiny-actuator", "total-length-huge", "task-box-huge", "split-candidates-huge",
         "n-dof-huge", "subgoal-count-huge"],
)
def test_run_rejects_values_that_break_a_started_run_before_the_world_is_built(
    demo_config, tmp_path, capsys, monkeypatch, override, field
):
    # Each value once crashed, allocated without bound or hung after the
    # run had started; none may get as far as building the world.
    from goalbabbling.config import ExperimentConfig

    def no_world(self):
        raise AssertionError("the run started")

    monkeypatch.setattr(ExperimentConfig, "build_world", no_world)
    data = json.loads(demo_config.read_text())
    for key, value in override.items():
        if key == "environment":
            data[key].update(value)
        else:
            data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["run", "--config", str(bad), "--budget", "300", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not (tmp_path / "x").exists()


def test_largest_accepted_arm_length_runs_its_local_fits_without_a_float_warning(demo_config, tmp_path, monkeypatch):
    # A reach's step cap, timeout_factor * farthest distance / velocity,
    # must stay below 2**63; on this task box that bounds total_length at
    # about 1.23e19, far below the lengths whose Jacobians overflow the
    # closed-form pseudo-inverse (about 1e77).  The largest accepted length
    # runs its local fits with every warning an error; the next float up
    # is rejected before the run.
    import warnings

    from goalbabbling import explorers

    fits = []
    fit = explorers.pseudo_inverse
    monkeypatch.setattr(explorers, "pseudo_inverse", lambda jacobian: fits.append(1) or fit(jacobian))
    largest = 1.2297829382473032e19
    data = json.loads(demo_config.read_text())
    for length, code in ((largest, 0), (math.nextafter(largest, math.inf), 1)):
        data["environment"]["total_length"] = length
        demo_config.write_text(json.dumps(data))
        argv = ["run", "--config", str(demo_config), "--budget", "300", "--out", str(tmp_path / str(code))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
    assert fits


def test_goal_babbling_arm_without_exploration_exits_one_quickly(demo_config, tmp_path):
    # With no local model, only explorative micro-actions collect data; this
    # pair once made the first reach spin forever.
    data = json.loads(demo_config.read_text())
    data.update(explore_actions=0, blocking_window=0, budget=100)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "goalbabbling", "run", "--config", str(bad), "--out", str(tmp_path / "x")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 1
    assert "explore_actions must be >= 1" in done.stderr


def test_missing_run_dir_exits_one(tmp_path, capsys):
    assert main(["regions", "--run", str(tmp_path / "absent")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "no region snapshots" in err


def _set_first_high_x(run, change):
    lines = (run / "regions.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[4] = change(float(fields[4]))
    (run / "regions.csv").write_text("\n".join(lines[:1] + [",".join(fields)] + lines[2:]) + "\n")


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda run: (run / "manifest.json").unlink(), "missing manifest.json"),
        (lambda run: _set_first_high_x(run, lambda x: repr(x - 1.0)), "leaves do not tile"),
        (lambda run: _set_first_high_x(run, lambda x: "nan"), "data row 1 holds a non-finite value"),
        (lambda run: (run / "manifest.json").write_text("{not json"), "cannot read"),
        (lambda run: (run / "manifest.json").write_text("{}"), "cannot read"),
        (lambda run: (run / "regions.csv").write_text("checkpoint,low_x\n400,abc\n"), "cannot read"),
    ],
    ids=["no-manifest", "not-tiling", "nan-leaf", "manifest-not-json", "manifest-without-config", "csv-not-numeric"],
)
def test_regions_rejects_bad_input_with_exit_one(demo_config, tmp_path, capsys, damage, message):
    run = tmp_path / "run"
    assert main(["run", "--config", str(demo_config), "--out", str(run), "--budget", "100"]) == 0
    damage(run)
    capsys.readouterr()
    assert main(["regions", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (run / "regions_validated.csv").exists()


def test_regions_out_creates_its_directory(demo_config, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["run", "--config", str(demo_config), "--out", str(run), "--budget", "100"]) == 0
    copy = tmp_path / "new" / "dir" / "x.csv"
    assert main(["regions", "--run", str(run), "--out", str(copy)]) == 0
    assert copy.read_bytes() == (run / "regions.csv").read_bytes()


def test_testdb_and_eval_round_trip(demo_config, tmp_path, capsys):
    db = tmp_path / "db.csv"
    assert main(["testdb", "--config", str(demo_config), "--count", "20", "--seed", "77", "--out", str(db)]) == 0
    rows = np.loadtxt(db, delimiter=",", skiprows=1)
    assert rows.shape == (20, 2)
    assert np.all(np.linalg.norm(rows, axis=1) <= 50.0 + 1e-9)

    out = tmp_path / "run"
    assert main(["run", "--config", str(demo_config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(demo_config), "--memory", str(out / "memory.csv"), "--testdb", str(db)]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) >= 0.0


@pytest.mark.parametrize("config_name", ["arm2_demo", "map8_mid"])
def test_eval_of_a_saved_memory_prints_the_runs_last_error(config_name, tmp_path, capsys):
    config = str(bundled_config_path(config_name))
    db, out = tmp_path / "db.csv", tmp_path / "run"
    assert main(["testdb", "--config", config, "--count", "20", "--seed", "999983", "--out", str(db)]) == 0
    argv = ["run", "--config", config, "--out", str(out), "--budget", "1500", "--checkpoints", "700,1500"]
    assert main(argv + ["--testdb", str(db)]) == 0
    last_error = (out / "evaluations.csv").read_text().splitlines()[-1].split(",")[-1]
    capsys.readouterr()
    assert main(["eval", "--config", config, "--memory", str(out / "memory.csv"), "--testdb", str(db)]) == 0
    assert capsys.readouterr().out == last_error + "\n"


def test_header_only_test_db_is_rejected_by_run_and_eval(demo_config, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["run", "--config", str(demo_config), "--out", str(run), "--budget", "50"]) == 0
    db = tmp_path / "db.csv"
    db.write_text("x,y\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(demo_config), "--memory", str(run / "memory.csv"), "--testdb", str(db)]) == 1
    assert "holds no goals" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", "--config", str(demo_config), "--out", str(out), "--testdb", str(db)]) == 1
    assert "holds no goals" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_test_db_with_wrong_columns(demo_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(demo_config), "--out", str(out), "--budget", "50"]) == 0
    db = tmp_path / "db.csv"
    db.write_text("x,y,z\n1.0,2.0,3.0\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(demo_config), "--memory", str(out / "memory.csv"), "--testdb", str(db)]) == 1
    assert "has 3 columns" in capsys.readouterr().err
    db.write_text("x,y\n1.0,nan\n")
    assert main(["eval", "--config", str(demo_config), "--memory", str(out / "memory.csv"), "--testdb", str(db)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_eval_rejects_memory_of_another_world(demo_config, tmp_path, capsys):
    out = tmp_path / "map"
    map_config = bundled_config_path("map8_mid")
    assert main(["run", "--config", str(map_config), "--out", str(out), "--budget", "50"]) == 0
    db = tmp_path / "db.csv"
    assert main(["testdb", "--config", str(demo_config), "--count", "5", "--seed", "77", "--out", str(db)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(demo_config), "--memory", str(out / "memory.csv"), "--testdb", str(db)]) == 1
    err = capsys.readouterr().err
    assert "8 params, 2 effect" in err and "2 context, 2 action, 2 effect" in err


@pytest.mark.parametrize("config_name", ["arm2_demo", "map8_mid"])
def test_eval_rejects_memory_with_non_finite_values(config_name, tmp_path, capsys):
    config = bundled_config_path(config_name)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out), "--budget", "20"]) == 0
    memory = out / "memory.csv"
    lines = memory.read_text().splitlines()
    columns = len(lines[0].split(","))
    memory.write_text("\n".join(lines + [",".join(["nan"] * columns)]) + "\n")
    db = tmp_path / "db.csv"
    assert main(["testdb", "--config", str(config), "--count", "5", "--seed", "77", "--out", str(db)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(config), "--memory", str(memory), "--testdb", str(db)]) == 1
    err = capsys.readouterr().err
    assert str(memory) in err and "data row 21 holds a non-finite value" in err


def test_run_checks_test_db_before_training(demo_config, tmp_path, capsys):
    db = tmp_path / "db.csv"
    db.write_text("x,y,z\n1.0,2.0,3.0\n")
    out = tmp_path / "run"
    assert main(["run", "--config", str(demo_config), "--out", str(out), "--testdb", str(db)]) == 1
    assert "has 3 columns" in capsys.readouterr().err
    assert not out.exists()


def test_regions_validates_and_reemits(demo_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(demo_config), "--out", str(out), "--checkpoints", "100,400"]) == 0
    capsys.readouterr()
    assert main(["regions", "--run", str(out)]) == 0
    assert (out / "regions_validated.csv").exists()
    assert "2 checkpoint(s) validated" in capsys.readouterr().out


def test_run_with_testdb_writes_evaluations(demo_config, tmp_path):
    db = tmp_path / "db.csv"
    main(["testdb", "--config", str(demo_config), "--count", "10", "--seed", "77", "--out", str(db)])
    out = tmp_path / "run"
    assert (
        main(
            [
                "run", "--config", str(demo_config), "--out", str(out),
                "--checkpoints", "200,400", "--testdb", str(db),
            ]
        )
        == 0
    )
    lines = (out / "evaluations.csv").read_text().splitlines()
    assert lines[0] == "checkpoint,used,error"
    assert len(lines) == 3


def test_compare_command_outputs(demo_config, tmp_path):
    other = tmp_path / "random.json"
    data = json.loads(demo_config.read_text())
    data["strategy"] = "sagg_random"
    other.write_text(json.dumps(data))
    out = tmp_path / "cmp"
    code = main(
        [
            "compare", "--configs", str(demo_config), str(other),
            "--seeds", "1,2", "--checkpoints", "400", "--out", str(out),
            "--db-seed", "555", "--db-count", "10",
        ]
    )
    assert code == 0
    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0] == "strategy,seed,checkpoint,used,error"
    assert len(curves) == 5  # 2 strategies x 2 seeds x 1 checkpoint
    significance = (out / "significance.csv").read_text().splitlines()
    assert significance[0] == "checkpoint,strategy_a,strategy_b,p_less,share_a_lower"
    assert len(significance) == 3
    assert (out / "fraction.csv").exists()
    assert (out / "manifest.json").exists()


def test_compare_rejects_db_seed_collision(demo_config, tmp_path, capsys):
    other = tmp_path / "random.json"
    data = json.loads(demo_config.read_text())
    data["strategy"] = "sagg_random"
    other.write_text(json.dumps(data))
    code = main(
        [
            "compare", "--configs", str(demo_config), str(other),
            "--seeds", "1,2", "--db-seed", "2", "--out", str(tmp_path / "c"),
        ]
    )
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_compare_is_job_count_invariant(demo_config, tmp_path, capsys):
    other = tmp_path / "random.json"
    data = json.loads(demo_config.read_text())
    data["strategy"] = "sagg_random"
    other.write_text(json.dumps(data))
    hashes = []
    for jobs, name in (("1", "j1"), ("2", "j2")):
        out = tmp_path / name
        capsys.readouterr()
        assert (
            main(
                [
                    "compare", "--configs", str(demo_config), str(other),
                    "--seeds", "1,2", "--checkpoints", "400", "--out", str(out),
                    "--db-seed", "555", "--db-count", "8", "--jobs", jobs,
                ]
            )
            == 0
        )
        hashes.append(_hash_dir(out))
        # One progress line per finished (strategy, seed), in finishing order.
        lines = capsys.readouterr().err.splitlines()
        assert [line.split("] ")[0] for line in lines] == [f"[{i}/4" for i in range(1, 5)]
        finished = [re.fullmatch(r"\[\d/4\] (\w+) seed (\d) finished at (\d+\.\d) s", line) for line in lines]
        assert all(finished), lines
        assert sorted(m.group(1, 2) for m in finished) == [
            ("sagg_random", "1"), ("sagg_random", "2"), ("sagg_riac", "1"), ("sagg_riac", "2")
        ]
        assert [float(m.group(3)) for m in finished] == sorted(float(m.group(3)) for m in finished)
    assert hashes[0] == hashes[1]


def test_compare_forks_no_more_workers_than_runs(demo_config, tmp_path, capsys, monkeypatch):
    # A process pool forks all its workers at the first submit, so `--jobs`
    # beyond the number of runs would only fork idle processes.
    import concurrent.futures

    import goalbabbling.evaluation as evaluation

    pools = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingExecutor)
    other = tmp_path / "random.json"
    data = json.loads(demo_config.read_text())
    data["strategy"] = "sagg_random"
    other.write_text(json.dumps(data))
    for jobs, workers in (("64", 4), ("3", 3)):
        argv = ["compare", "--configs", str(demo_config), str(other), "--seeds", "1,2", "--budget", "100",
                "--db-count", "4", "--jobs", jobs, "--out", str(tmp_path / f"j{jobs}")]
        assert main(argv) == 0
        assert pools[-1] == workers


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--config", "{demo}", "--out", "{file}"],
        ["run", "--config", "{demo}", "--out", "{file}/run"],
        ["compare", "--configs", "{demo}", "{other}", "--seeds", "1", "--db-count", "5", "--out", "{file}"],
        ["testdb", "--config", "{demo}", "--seed", "1", "--out", "{dir}"],
        ["testdb", "--config", "{demo}", "--seed", "1", "--out", "{file}/db.csv"],
        ["regions", "--run", "{dir}", "--out", "{dir}"],
    ],
    ids=["run-file", "run-under-file", "compare-file", "testdb-dir", "testdb-under-file", "regions-dir"],
)
def test_unwritable_out_exits_one_before_any_work(demo_config, tmp_path, capsys, monkeypatch, args):
    import goalbabbling.cli as cli
    import goalbabbling.evaluation as evaluation

    started = []
    monkeypatch.setattr(cli, "run_with_memory", lambda *a, **k: started.append("run_with_memory"))
    monkeypatch.setattr(evaluation, "_one_run", lambda job: started.append("_one_run"))
    monkeypatch.setattr(cli, "make_test_db", lambda *a, **k: started.append("make_test_db"))
    other = tmp_path / "random.json"
    data = json.loads(demo_config.read_text())
    data["strategy"] = "sagg_random"
    other.write_text(json.dumps(data))
    existing_file, existing_dir = tmp_path / "taken.csv", tmp_path / "taken"
    existing_file.write_text("x,y\n")
    existing_dir.mkdir()
    names = dict(demo=demo_config, other=other, file=existing_file, dir=existing_dir)
    assert main([arg.format(**names) for arg in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --out ")
    assert started == []
    assert existing_file.read_text() == "x,y\n" and list(existing_dir.iterdir()) == []


def test_output_root_env_var(demo_config, tmp_path, monkeypatch):
    monkeypatch.setenv("GOALBABBLING_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(demo_config), "--budget", "50"]) == 0
    produced = list((tmp_path / "root").rglob("manifest.json"))
    assert len(produced) == 1


@pytest.mark.parametrize(
    "args, flag",
    [
        (["run", "--config", "{demo}", "--checkpoints", "abc"], "--checkpoints"),
        (["run", "--config", "{demo}", "--checkpoints", "-5"], "--checkpoints"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", "x"], "--seeds"),
        (["testdb", "--config", "{demo}", "--count", "-1", "--seed", "1", "--out", "{tmp}/db.csv"], "--count"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", "1", "--db-count", "-1"], "--db-count"),
        (["compare", "--configs", "{demo}", "--seeds", "1"], "--configs"),
        (["compare", "--configs", "{demo}", "{demo}", "--seeds", "1"], "--configs"),
        (["run", "--config", "{demo}", "--budget", "100", "--checkpoints", "50,5000"], "--checkpoints"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", "1", "--checkpoints", "400,401"], "--checkpoints"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", "1", "--db-count", "0"], "--db-count"),
        (["testdb", "--config", "{demo}", "--count", "0", "--seed", "1", "--out", "{tmp}/db.csv"], "--count"),
        (["run", "--config", "{demo}", "--checkpoints", ","], "--checkpoints"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", "1", "--checkpoints", ","], "--checkpoints"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", ","], "--seeds"),
        (["run", "--config", "{demo}", "--budget", "abc"], "--budget"),
        (["run"], "--config"),
        (["launch", "--config", "{demo}"], "launch"),
        (["run", "--config", "{tmp}/absent.json"], "{tmp}/absent.json"),
        (["run", "--config", "{tmp}"], "{tmp}"),
        (["compare", "--configs", "{demo}", "{tmp}", "--seeds", "1"], "{tmp}"),
        (["testdb", "--config", "{demo}", "--count", "1000000000000", "--seed", "1", "--out", "{tmp}/db.csv"],
         "--count"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", "1", "--db-count", "100000000000"], "--db-count"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", "1", "--jobs", "0"], "--jobs"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", "1", "--jobs", "-3"], "--jobs"),
        (["testdb", "--config", "{demo}", "--seed", "-1", "--out", "{tmp}/db.csv"], "--seed"),
        (["compare", "--configs", "{demo}", "{other}", "--seeds", "1", "--db-seed", "-1"], "--db-seed"),
        (["run", "--config", "{demo}", "--checkpoints", ""], "--checkpoints"),
    ],
    ids=["checkpoints-text", "checkpoints-negative", "seeds-text", "count-negative", "db-count-negative",
         "one-config", "duplicate-strategy", "run-checkpoint-past-budget", "compare-checkpoint-past-budget",
         "db-count-zero", "count-zero", "run-checkpoints-empty", "compare-checkpoints-empty", "seeds-empty",
         "budget-text", "config-missing", "unknown-subcommand", "config-absent", "config-a-directory",
         "compare-config-a-directory", "count-past-cap", "db-count-past-cap", "jobs-zero", "jobs-negative",
         "testdb-seed-negative", "db-seed-negative", "run-checkpoints-blank"],
)
def test_bad_flag_values_exit_one_naming_the_flag(demo_config, tmp_path, capsys, args, flag):
    other = tmp_path / "random.json"
    data = json.loads(demo_config.read_text())
    data["strategy"] = "sagg_random"
    other.write_text(json.dumps(data))
    names = dict(demo=demo_config, other=other, tmp=tmp_path)
    argv = [arg.format(**names) for arg in args]
    if args[0] != "testdb":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag.format(**names) in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "db.csv").exists()


def test_compare_checkpoints_end_at_the_smallest_budget(demo_config, tmp_path, capsys):
    other = tmp_path / "random.json"
    data = json.loads(demo_config.read_text())
    data["strategy"], data["budget"] = "sagg_random", 300
    other.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["compare", "--configs", str(demo_config), str(other), "--seeds", "1", "--db-count", "5", "--out", str(out)]
    assert main(argv + ["--checkpoints", "200,350"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--checkpoints" in err and "300" in err
    assert not out.exists()
    # By default the schedule ends at the smallest budget, which every run reaches.
    assert main(argv) == 0
    rows = (out / "curves.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",")[:3] for row in rows) == [["sagg_random", "1", "300"], ["sagg_riac", "1", "300"]]


def test_compare_rejects_a_repeated_seed_before_any_run(demo_config, tmp_path, capsys, monkeypatch):
    import goalbabbling.evaluation as evaluation

    def no_run(job):
        raise AssertionError("a run started")

    monkeypatch.setattr(evaluation, "_one_run", no_run)
    other = tmp_path / "random.json"
    data = json.loads(demo_config.read_text())
    data["strategy"] = "sagg_random"
    other.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["compare", "--configs", str(demo_config), str(other), "--seeds", "1,1,2", "--db-count", "5"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed 1 is given more than once" in err
    assert not out.exists()


def test_compare_rejects_configs_of_different_worlds(demo_config, tmp_path, capsys):
    data = json.loads(bundled_config_path("map8_mid").read_text())
    data["strategy"] = "actuator_random"
    other = tmp_path / "map.json"
    other.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = ["compare", "--configs", str(demo_config), str(other), "--seeds", "1", "--budget", "50", "--db-count", "5"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "differ in environment" in err
    assert not out.exists()


_MAX, _NORMAL = float(np.finfo(float).max), float(np.finfo(float).smallest_normal)
# -0.0, the smallest and largest subnormals, the smallest normal and values at the float maximum.
_EDGES = [
    -0.0, 5e-324, -5e-324, float(np.nextafter(_NORMAL, 0.0)), _NORMAL, 0.0, _MAX, -_MAX, float(np.nextafter(_MAX, 0.0))
]
_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGES)


@settings(max_examples=200, deadline=None)
@given(
    shaped=st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.lists(_VALUES, min_size=n, max_size=n), max_size=8))
    )
)
@example(shaped=(3, [_EDGES[:3], _EDGES[3:6], _EDGES[6:]]))
def test_written_tables_read_back_bit_for_bit(tmp_path_factory, shaped):
    n, rows = shaped
    table = np.array(rows, dtype=float).reshape(len(rows), n)
    header = [f"column_{i}" for i in range(n)]
    path = tmp_path_factory.getbasetemp() / "round_trip" / "table.csv"
    _write_csv(path, header, table)
    read_header, read = _read_csv(path, "table")
    assert read_header == header
    assert read.shape == table.shape and read.tobytes() == table.tobytes()


# Edge values for the count, seed and list flags: zero, negative, past
# int64, past any test database, empty, separators only, text and a repeat.
_FLAG_EDGES = ["0", "-1", str(2**63), str(10**12), "", ",", "x", "1,1"]
_EDGE_FLAGS = {
    "run": ("--seed", "--checkpoints"),
    "testdb": ("--count", "--seed"),
    "compare": ("--seeds", "--db-count", "--jobs", "--checkpoints", "--db-seed"),
}
# What a required flag gets when the example leaves it out.
_REQUIRED = {"testdb": {"--seed": "1"}, "compare": {"--seeds": "1"}}


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    """The two-joint demo config and a random-goal copy of it."""
    root = tmp_path_factory.mktemp("edges")
    data = json.loads(bundled_config_path("arm2_demo").read_text())
    (root / "demo.json").write_text(json.dumps(data))
    (root / "random.json").write_text(json.dumps({**data, "strategy": "sagg_random"}))
    return root


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(sorted(_EDGE_FLAGS)),
    values=st.fixed_dictionaries(
        {}, optional={flag: st.sampled_from(_FLAG_EDGES) for flags in _EDGE_FLAGS.values() for flag in flags}
    ),
    budget=st.integers(0, 50),
)
@example(command="run", values={"--seed": "-1"}, budget=50)
@example(command="testdb", values={"--count": str(10**12)}, budget=0)
@example(command="compare", values={"--db-count": str(10**11)}, budget=0)
@example(command="compare", values={"--jobs": "0"}, budget=0)
@example(command="compare", values={"--jobs": str(2**63), "--seeds": "0"}, budget=50)
def test_edge_values_of_count_seed_and_list_flags_end_with_exit_zero_or_one(edge_dir, command, values, budget):
    argv = {
        "run": ["run", "--config", str(edge_dir / "demo.json"), "--budget", str(budget), "--out", str(edge_dir / "run")],
        "testdb": ["testdb", "--config", str(edge_dir / "demo.json"), "--out", str(edge_dir / "db.csv")],
        "compare": [
            "compare", "--configs", str(edge_dir / "demo.json"), str(edge_dir / "random.json"),
            "--budget", str(budget), "--out", str(edge_dir / "compare"),
        ],
    }[command]
    flags = {**_REQUIRED.get(command, {}), **{f: v for f, v in values.items() if f in _EDGE_FLAGS[command]}}
    for flag, value in flags.items():
        argv += [f"{flag}={value}"]  # "=" keeps "-1" a value, not an option
    err = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    elapsed = time.perf_counter() - started
    event(f"{command} exit {code}")
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("config error:"), err.getvalue()
    # A bad value is rejected before any work, and a good one runs at most
    # 2 x 50 micro-actions: each example takes well under a second, and the
    # bound catches a hang or work that grows with a value.
    assert elapsed < 10.0, (argv, elapsed)
