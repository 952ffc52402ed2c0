"""Competence-progress goal babbling for learning inverse models."""

from .competence import CompetenceConfig, clip_to_gamma, competence_normalized, max_competence
from .config import (
    ACTUATOR_RANDOM,
    ACTUATOR_RIAC,
    SAGG_RANDOM,
    SAGG_RIAC,
    STRATEGIES,
    ConfigError,
    EnvironmentSpec,
    ExperimentConfig,
    bundled_config_path,
    load_config,
)
from .evaluation import (
    ComparisonResult,
    compare_strategies,
    evaluate,
    make_test_db,
    reachable_fraction,
)
from .experiment import RunLog, run_experiment, run_with_memory, strategy_goal
from .explorers import (
    BLOCKED,
    REACHED,
    TIMEOUT,
    ReachOutcome,
    ReachingBudget,
    make_subgoals,
    reach_evolving,
    reach_fixed,
    rest_reset_policy,
)
from .kinematics import ArmGeometry, ArmWorld, StepResult, SynergyWorld, forward_kinematics
from .memory import EmptyMemoryError, EvolvingMemory, FixedMemory
from .regions import RecordOrigin, Region, RegionTree, interest_of
from .rng import RngStreams, stream
from .spaces import Box

__version__ = "0.1.0"
