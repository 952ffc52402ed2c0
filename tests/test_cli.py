import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from goalbabbling.cli import main
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


def test_missing_run_dir_exits_two(tmp_path, capsys):
    assert main(["regions", "--run", str(tmp_path / "absent")]) == 2
    assert "no region snapshots" in capsys.readouterr().err


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
    assert significance[0] == "checkpoint,strategy_a,strategy_b,p_less"
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


def test_compare_is_job_count_invariant(demo_config, tmp_path):
    other = tmp_path / "random.json"
    data = json.loads(demo_config.read_text())
    data["strategy"] = "sagg_random"
    other.write_text(json.dumps(data))
    hashes = []
    for jobs, name in (("1", "j1"), ("2", "j2")):
        out = tmp_path / name
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
    assert hashes[0] == hashes[1]


def test_output_root_env_var(demo_config, tmp_path, monkeypatch):
    monkeypatch.setenv("GOALBABBLING_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(demo_config), "--budget", "50"]) == 0
    produced = list((tmp_path / "root").rglob("manifest.json"))
    assert len(produced) == 1
