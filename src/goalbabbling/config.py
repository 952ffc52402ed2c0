"""Experiment configuration: one serializable record of every parameter.

Configs are UTF-8 JSON.  Unknown keys are rejected so typos fail loudly
instead of silently running with defaults.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kinematics import ArmGeometry, ArmWorld, SynergyWorld
from .spaces import Box

SAGG_RIAC = "sagg_riac"
SAGG_RANDOM = "sagg_random"
ACTUATOR_RANDOM = "actuator_random"
ACTUATOR_RIAC = "actuator_riac"
STRATEGIES = (SAGG_RIAC, SAGG_RANDOM, ACTUATOR_RANDOM, ACTUATOR_RIAC)

ENV_ARM = "arm"
ENV_SYNERGY = "synergy_map"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# Field annotation -> (check, what the field must be).
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_finite, "a finite number"),
    "bool": (lambda value: isinstance(value, bool), "true or false"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "tuple[float, ...]": (
        lambda value: isinstance(value, (tuple, list)) and all(map(_is_finite, value)),
        "a list of finite numbers",
    ),
}


def _check_types(spec, prefix: str = "") -> None:
    """Every field of the dataclass `spec` must hold a value of its annotated
    type; a field annotated ``X | None`` may also be None."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        kind = f.type.removesuffix(" | None")
        if (value is None and kind != f.type) or kind not in _TYPE_CHECKS:
            continue
        check, wanted = _TYPE_CHECKS[kind]
        if not check(value):
            raise ConfigError(f"{prefix}{f.name} must be {wanted}, got {value!r}")


@dataclass(frozen=True)
class EnvironmentSpec:
    type: str = ENV_ARM
    n_dof: int = 15
    link_layout: str = "equal"  # "equal" | "golden"
    total_length: float = 50.0
    joint_limit: float = math.pi  # symmetric per-joint limit, radians
    rest_angle: float = 0.35
    max_action_norm: float = 0.2

    def validate(self) -> None:
        _check_types(self, "environment.")
        if self.type not in (ENV_ARM, ENV_SYNERGY):
            raise ConfigError(f"environment.type must be '{ENV_ARM}' or '{ENV_SYNERGY}', got {self.type!r}")
        if self.n_dof < 1:
            raise ConfigError("environment.n_dof must be >= 1")
        if self.link_layout not in ("equal", "golden"):
            raise ConfigError(f"environment.link_layout must be 'equal' or 'golden', got {self.link_layout!r}")
        if self.total_length <= 0:
            raise ConfigError("environment.total_length must be positive")
        if self.joint_limit <= 0:
            raise ConfigError("environment.joint_limit must be positive")
        if abs(self.rest_angle) >= self.joint_limit:
            raise ConfigError("environment.rest_angle must lie strictly inside the joint limits")
        if self.max_action_norm <= 0:
            raise ConfigError("environment.max_action_norm must be positive")

    def geometry(self) -> ArmGeometry:
        factory = ArmGeometry.equal_links if self.link_layout == "equal" else ArmGeometry.golden_links
        return factory(self.n_dof, self.total_length, self.joint_limit)


@dataclass(frozen=True)
class ExperimentConfig:
    strategy: str
    budget: int
    seed: int
    environment: EnvironmentSpec = EnvironmentSpec()
    task_low: tuple[float, ...] = (0.0, -150.0)
    task_high: tuple[float, ...] = (150.0, 150.0)
    # Goal selection.
    p1: float = 70.0  # percent of interest-weighted region draws
    p2: float = 20.0  # percent of uniform whole-space draws
    p3: float = 10.0  # percent of worst-outcome-neighborhood draws
    window: int = 24
    region_capacity: int = 50
    split_candidates: int = 50
    burn_in_goals: int | None = None  # default: 2 * region_capacity
    # Attempt structure.
    subgoals: bool = True
    subgoal_count: int = 5
    conservation: bool = True
    reset_every: int = 1
    # Low-level reaching.
    velocity: float = 2.0
    explore_actions: int = 20
    blocking_window: int = 0
    timeout_factor: float = 1.5
    reached_tolerance: float = -0.05
    min_start_distance: float = 1e-3
    prediction_error_max: float | None = None  # default: 0.5 * velocity
    explore_noise: float = 1.0
    explore_scale: float = 0.05
    # Regression.
    regression_neighbors: int = 12
    support_radius: float = 0.5
    inverse_candidates: int = 5
    inverse_neighborhood: int = 10
    # Competence distance rescaling (per-dimension 1/range); default on for
    # the episodic world only.
    rescale_competence: bool | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _check_types(self)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.budget < 0:
            raise ConfigError("budget must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.environment.validate()
        if len(self.task_low) != 2 or len(self.task_high) != 2:
            raise ConfigError("task_low/task_high must have 2 components")
        if any(h <= l for l, h in zip(self.task_low, self.task_high)):
            raise ConfigError("task_high must exceed task_low componentwise")
        if abs(self.p1 + self.p2 + self.p3 - 100.0) > 1e-9:
            raise ConfigError("p1 + p2 + p3 must equal 100")
        if min(self.p1, self.p2, self.p3) < 0:
            raise ConfigError("mode percentages must be non-negative")
        if self.window < 2 or self.window % 2:
            raise ConfigError("window must be an even integer >= 2")
        if self.region_capacity < 1:
            raise ConfigError("region_capacity must be >= 1")
        if self.split_candidates < 1:
            raise ConfigError("split_candidates must be >= 1")
        if self.burn_in_goals is not None and self.burn_in_goals < 0:
            raise ConfigError("burn_in_goals must be >= 0")
        if self.subgoal_count < 1:
            raise ConfigError("subgoal_count must be >= 1")
        if self.reset_every < 1:
            raise ConfigError("reset_every must be >= 1")
        if self.velocity <= 0:
            raise ConfigError("velocity must be positive")
        if self.explore_actions < 0 or self.blocking_window < 0:
            raise ConfigError("explore_actions and blocking_window must be >= 0")
        goal_babbling_arm = self.environment.type == ENV_ARM and self.strategy in (SAGG_RIAC, SAGG_RANDOM)
        if goal_babbling_arm and self.explore_actions == 0:
            raise ConfigError(
                "explore_actions must be >= 1 for goal babbling on the arm: without a local model "
                "only explorative micro-actions collect data"
            )
        if self.timeout_factor <= 1:
            raise ConfigError("timeout_factor must exceed 1")
        if self.reached_tolerance >= 0:
            raise ConfigError("reached_tolerance must be negative")
        if self.min_start_distance <= 0:
            raise ConfigError("min_start_distance must be positive")
        if self.prediction_error_max is not None and self.prediction_error_max <= 0:
            raise ConfigError("prediction_error_max must be positive")
        if self.explore_noise < 0:
            raise ConfigError("explore_noise must be >= 0")
        if self.explore_scale <= 0:
            raise ConfigError("explore_scale must be positive")
        if self.regression_neighbors < 1:
            raise ConfigError("regression_neighbors must be >= 1")
        if self.support_radius <= 0:
            raise ConfigError("support_radius must be positive")
        if self.inverse_candidates < 1 or self.inverse_neighborhood < 1:
            raise ConfigError("inverse_candidates and inverse_neighborhood must be >= 1")

    # -------------------------------------------------------------- derived

    @property
    def task_box(self) -> Box:
        return Box(np.array(self.task_low), np.array(self.task_high))

    @property
    def burn_in(self) -> int:
        return 2 * self.region_capacity if self.burn_in_goals is None else self.burn_in_goals

    @property
    def mispredict_threshold(self) -> float:
        return 0.5 * self.velocity if self.prediction_error_max is None else self.prediction_error_max

    def dim_scales(self) -> np.ndarray | None:
        rescaled = self.environment.type == ENV_SYNERGY if self.rescale_competence is None else self.rescale_competence
        if not rescaled:
            return None
        return 1.0 / (np.array(self.task_high) - np.array(self.task_low))

    def build_world(self):
        if self.environment.type == ENV_ARM:
            return ArmWorld(
                self.environment.geometry(),
                rest_angle=self.environment.rest_angle,
                max_action_norm=self.environment.max_action_norm,
                task_bounds=self.task_box,
            )
        return SynergyWorld(self.environment.geometry(), task_bounds=self.task_box)

    # -------------------------------------------------------------- (de)serialization

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["environment"] = dataclasses.asdict(self.environment)
        data["task_low"] = list(self.task_low)
        data["task_high"] = list(self.task_high)
        return data


def _from_mapping(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    data = dict(data)
    env_data = data.pop("environment", {})
    if not isinstance(env_data, dict):
        raise ConfigError("'environment' must be an object")
    env_fields = {f.name for f in dataclasses.fields(EnvironmentSpec)}
    unknown = set(env_data) - env_fields
    if unknown:
        raise ConfigError(f"unknown environment key(s): {', '.join(sorted(unknown))}")
    task = data.pop("task_space", None)
    if task is not None:
        if not isinstance(task, dict) or set(task) != {"low", "high"}:
            raise ConfigError("'task_space' must be an object with keys 'low' and 'high'")
        data["task_low"], data["task_high"] = task["low"], task["high"]
    cfg_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - cfg_fields
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for key in ("task_low", "task_high"):
        if isinstance(data.get(key), list):
            data[key] = tuple(data[key])
    try:
        return ExperimentConfig(environment=EnvironmentSpec(**env_data), **data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path, seed: int | None = None, budget: int | None = None) -> ExperimentConfig:
    """Load and validate a config file, with optional seed/budget overrides."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    cfg = _from_mapping(data)
    if seed is not None or budget is not None:
        cfg = dataclasses.replace(
            cfg,
            seed=cfg.seed if seed is None else seed,
            budget=cfg.budget if budget is None else budget,
        )
    return cfg


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package (e.g. 'arm15_mid')."""
    path = Path(__file__).parent / "configs" / f"{name}.json"
    if not path.exists():
        raise ConfigError(f"no bundled config named {name!r}")
    return path
