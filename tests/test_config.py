import json

import numpy as np
import pytest

from goalbabbling.config import (
    ConfigError,
    EnvironmentSpec,
    ExperimentConfig,
    bundled_config_path,
    load_config,
)


def minimal(tmp_path, **overrides):
    data = {"strategy": "sagg_riac", "budget": 100, "seed": 1}
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_load_minimal_config(tmp_path):
    cfg = load_config(minimal(tmp_path))
    assert cfg.strategy == "sagg_riac"
    assert cfg.budget == 100
    assert cfg.burn_in == 2 * cfg.region_capacity
    assert cfg.mispredict_threshold == pytest.approx(0.5 * cfg.velocity)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="velocty"):
        load_config(minimal(tmp_path, velocty=2.0))


def test_unknown_environment_key_rejected(tmp_path):
    path = minimal(tmp_path, environment={"type": "arm", "n_dofs": 9})
    with pytest.raises(ConfigError, match="n_dofs"):
        load_config(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"strategy": "sagg_riac",\n  "budget": }\n')
    with pytest.raises(ConfigError, match=r":2:"):
        load_config(path)


def test_probabilities_must_sum_to_hundred(tmp_path):
    with pytest.raises(ConfigError, match="p1"):
        load_config(minimal(tmp_path, p1=50.0, p2=20.0, p3=10.0))


def test_bad_strategy_rejected(tmp_path):
    with pytest.raises(ConfigError, match="strategy"):
        load_config(minimal(tmp_path, strategy="gradient_descent"))


def test_overrides(tmp_path):
    cfg = load_config(minimal(tmp_path), seed=77, budget=5)
    assert cfg.seed == 77
    assert cfg.budget == 5


def test_task_space_block(tmp_path):
    path = minimal(tmp_path, task_space={"low": [0, -50], "high": [50, 50]})
    cfg = load_config(path)
    assert cfg.task_box.contains([25.0, 0.0])
    assert not cfg.task_box.contains([60.0, 0.0])


def test_bundled_configs_load_and_validate():
    for name in ("arm15_mid", "arm15_big", "arm2_demo", "map8_mid"):
        cfg = load_config(bundled_config_path(name))
        assert cfg.budget > 0


def test_bundled_missing_name():
    with pytest.raises(ConfigError):
        bundled_config_path("nope")


def test_synergy_env_rescales_competence_by_default():
    cfg = ExperimentConfig(
        strategy="sagg_riac",
        budget=10,
        seed=1,
        environment=EnvironmentSpec(type="synergy_map", n_dof=4),
        task_low=(-100.0, -100.0),
        task_high=(100.0, 100.0),
    )
    scales = cfg.dim_scales()
    assert scales == pytest.approx([1 / 200, 1 / 200])


def test_arm_env_unscaled_by_default():
    cfg = ExperimentConfig(strategy="sagg_riac", budget=10, seed=1)
    assert cfg.dim_scales() is None


def test_round_trip_to_json(tmp_path):
    cfg = ExperimentConfig(strategy="sagg_random", budget=42, seed=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    again = load_config(path)
    assert again == cfg


def test_explore_actions_zero_only_rejected_for_goal_babbling_on_the_arm():
    with pytest.raises(ConfigError, match="explore_actions"):
        ExperimentConfig(strategy="sagg_random", budget=10, seed=1, explore_actions=0)
    ExperimentConfig(strategy="actuator_riac", budget=10, seed=1, explore_actions=0)
    ExperimentConfig(
        strategy="sagg_riac", budget=10, seed=1, explore_actions=0, environment=EnvironmentSpec(type="synergy_map")
    )


def test_numpy_scalars_are_accepted():
    cfg = ExperimentConfig(strategy="sagg_riac", budget=np.int64(10), seed=np.int32(1), velocity=np.float64(1.5))
    assert cfg.budget == 10
