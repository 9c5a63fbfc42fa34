"""Highway driving decision-making laboratory.

A seedable highway/merge micro-simulator with GHR-controlled traffic, a
three-term driving reward, from-scratch MLP function approximators, DQN and
PPO trainers, a rule-based baseline, and a reproducible experiment harness.
"""

import os

# One BLAS thread unless the environment says otherwise: the networks are too small
# to gain from more. Set before numpy loads; the console script imports this first.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .actions import N_ACTIONS, EgoAction
from .config import ExperimentConfig, load_config, parse_config
from .dqn import DqnConfig, DqnLearner, ReplayBuffer, Transition, TransitionBatch
from .env import (
    GhrParams,
    HighwayEnv,
    RoadConfig,
    StepOutcome,
    VehicleState,
    collision_check,
    encode_observation,
    ghr_acceleration,
)
from .errors import (
    CheckpointError,
    ConfigError,
    EpisodeFinishedError,
    HighwaylabError,
    TrainingDivergenceError,
)
from .harness import compare, evaluate_policy, export_trajectory, run_eval, run_train
from .nets import (
    AdamState,
    NetworkSpec,
    ParameterSet,
    adam_step,
    backward,
    forward,
    gradient_check,
    init_params,
)
from .ppo import PpoConfig, PpoLearner, RolloutBatch, RolloutCollector, compute_gae
from .reward import (
    RewardBreakdown,
    RewardParams,
    RewardWeights,
    comfort_term,
    compute_reward,
    efficiency_term,
    safety_term,
)
from .rules import FsmState, RuleAgent, RuleParams, decide

__version__ = "0.1.0"
