"""Exception types shared across the package, and the checks of
configuration values that raise them."""

import math
import numbers


class LatentLabError(Exception):
    """Base class for all package-specific errors."""


class CapExceededError(LatentLabError):
    """Requested space is larger than the enumeration cap."""


class OutOfSpaceError(LatentLabError, IndexError):
    """Index refers to an element outside the task's finite spaces."""


class EmptyEventError(LatentLabError):
    """Event materializes to the empty set."""


class ZeroMassEventError(LatentLabError):
    """Event has probability zero under the current model."""


class FeatureMapMismatchError(LatentLabError):
    """Weight vector or companion model disagrees with the feature map."""


class HorizonViolationError(LatentLabError, ValueError):
    """A trajectory cannot terminate within the declared horizon."""


class TaskDefinitionError(LatentLabError, ValueError):
    """A task's definition is malformed: a token sequence, the vocabulary,
    the prompt weights or a repeated space element, or two probability
    vectors that should be aligned are not."""


class TrajectorySetError(LatentLabError, ValueError):
    """A trajectory set is empty, or holds an empty, repeated or prefix
    trajectory, so no prefix tree has one leaf per trajectory."""


class UnreachableEventError(LatentLabError):
    """Every trajectory of a shaped decision process is clamped."""


class ClampLeakError(LatentLabError):
    """A clamped trajectory of a shaped decision process kept probability."""


class CertificateError(LatentLabError, AssertionError):
    """An asserted convergence certificate of a training run failed."""


class EStepResultError(LatentLabError, ValueError):
    """An E-step engine returned a row that does not span the joint space or
    does not form a distribution."""


class DivergenceError(LatentLabError):
    """Iterative optimizer decreased its objective for too many steps."""


class SurrogateDecreaseError(LatentLabError):
    """A surrogate-ascent step could not find an improving step size."""


class UnnormalizedVariationalError(LatentLabError):
    """Variational weights do not form a probability distribution."""


class UnseenTagError(LatentLabError):
    """Generation was conditioned on a tag with zero conditional mass."""


class ZeroProbabilityPairError(LatentLabError):
    """A preference pair has zero probability under policy or reference."""


class ConfigError(LatentLabError):
    """Experiment configuration failed to parse or validate."""


class TaskMismatchError(LatentLabError):
    """Operation requires configs that share the same task and event."""


class RecordFormatError(LatentLabError):
    """A persisted record or checkpoint file is malformed."""


def require_integer(name: str, value, minimum: int | None = None) -> int:
    """`value` as an int; raise `ConfigError` unless it is an integer (bools
    are not) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def require_real(name: str, value) -> float:
    """`value` as a float; raise `ConfigError` unless it is a real number
    (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_positive(name: str, value) -> float:
    """`value` as a float; raise `ConfigError` unless it is a positive,
    finite real number."""
    value = require_real(name, value)
    if not 0 < value < math.inf:  # nan too
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return value
