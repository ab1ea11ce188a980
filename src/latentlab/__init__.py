"""Desk-scale laboratory for latent-rationale sequence models.

Everything here is small enough to enumerate: tasks expose their full
(latent, response) spaces, so posteriors, objectives, and gradients all
have exact references to test against.  Training loops (exact alternation
and its sampling baselines) emit a fixed metric schema that the harness
turns into deterministic run directories.
"""

from .errors import (
    CapExceededError,
    CertificateError,
    ClampLeakError,
    ConfigError,
    DivergenceError,
    EmptyEventError,
    EStepResultError,
    FeatureMapMismatchError,
    HorizonViolationError,
    LatentLabError,
    OutOfSpaceError,
    RecordFormatError,
    SurrogateDecreaseError,
    TaskDefinitionError,
    TaskMismatchError,
    TrajectorySetError,
    UnnormalizedVariationalError,
    UnreachableEventError,
    UnseenTagError,
    ZeroMassEventError,
    ZeroProbabilityPairError,
)
from .esteps import EStepSpec, PolicyGradConfig, run_estep
from .graph import JointModel
from .models import (
    LogitModel,
    NgramFeatures,
    TabularFeatures,
    random_model,
    read_checkpoint,
    uniform_model,
    write_checkpoint,
)
from .planner import shape_rewards, soft_value_iteration
from .tasks import (
    EventSpec,
    GenerativeTask,
    full_event,
    make_automaton_trace_task,
    make_carry_addition_task,
    make_reward_tag_task,
    success_event,
)
from .training import (
    MStepSpec,
    run_cond_sft,
    run_em,
    run_filter_sft,
    run_pref_loop,
    run_restem,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CertificateError",
    "ClampLeakError",
    "ConfigError",
    "DivergenceError",
    "EmptyEventError",
    "EStepResultError",
    "EStepSpec",
    "EventSpec",
    "FeatureMapMismatchError",
    "GenerativeTask",
    "HorizonViolationError",
    "JointModel",
    "LatentLabError",
    "LogitModel",
    "MStepSpec",
    "NgramFeatures",
    "OutOfSpaceError",
    "PolicyGradConfig",
    "RecordFormatError",
    "SurrogateDecreaseError",
    "TabularFeatures",
    "TaskDefinitionError",
    "TaskMismatchError",
    "TrajectorySetError",
    "UnnormalizedVariationalError",
    "UnreachableEventError",
    "UnseenTagError",
    "ZeroMassEventError",
    "ZeroProbabilityPairError",
    "full_event",
    "make_automaton_trace_task",
    "make_carry_addition_task",
    "make_reward_tag_task",
    "random_model",
    "read_checkpoint",
    "run_cond_sft",
    "run_em",
    "run_estep",
    "run_filter_sft",
    "run_pref_loop",
    "run_restem",
    "shape_rewards",
    "soft_value_iteration",
    "success_event",
    "uniform_model",
    "write_checkpoint",
]
