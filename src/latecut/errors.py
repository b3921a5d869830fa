"""Exception hierarchy shared across the package, and its two count rules.

The CLI maps these onto exit codes: usage errors exit 1, data/config errors
exit 2, numeric failures exit 3.  A count is never coerced: :func:`check_count`
decides every integer argument of a library function (a Python or numpy
integer, not a bool), and :func:`check_ints` a config dataclass's integer
fields (Python ints only, which the CLI's JSON config log needs).
"""

import numpy as np


class LatecutError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(LatecutError):
    """Tensor shapes are incompatible with the requested operation."""


class InvalidBlockError(LatecutError):
    """A block id is outside the network's removable-block range."""


class ConfigError(LatecutError):
    """A configuration value is out of range or inconsistent."""


def check_ints(config, **lows) -> None:
    """ConfigError unless each named field of ``config`` is a Python int,
    not a bool or numpy integer, >= its bound: config fields stay Python
    ints, which the CLI's JSON config log needs."""
    for name, low in lows.items():
        value = getattr(config, name)
        if type(value) is not int or value < low:
            raise ConfigError(f"{type(config).__name__}.{name} must be a Python int >= {low} "
                              f"(not a bool or numpy integer), got {value!r}")


def is_integer(value) -> bool:
    """True for a Python or numpy integer, False for a bool or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name, value, low, high=None) -> int:
    """``value`` as a Python int, else ConfigError naming ``name``, its
    bounds and ``value``: an integer (:func:`is_integer`) within ``low..high``
    (no upper bound when ``high`` is None)."""
    if not (is_integer(value) and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"within {low}..{high}"
        raise ConfigError(f"{name} must be an integer {bounds} (not a bool), got {value!r}")
    return int(value)


class FormatError(LatecutError):
    """A binary or JSON artifact does not match its documented layout."""


class NumericError(LatecutError):
    """A computation produced or received non-finite values, or cannot
    produce a usable number: the base of every numeric failure."""


class DegenerateBlockError(NumericError):
    """A block has no positive latency saving, so its importance score is
    undefined."""


class TrainingDivergedError(NumericError):
    """Source-model pretraining failed to reach the minimum train accuracy."""


class PartialRunError(LatecutError):
    """The serving loop did not finish its prune/distill work: the sample
    stream ended before the prune batch and cache were seeded, or a
    background unit raised (that exception is ``__cause__``).  Carries the
    timeline recorded so far."""

    def __init__(self, message, timeline=None):
        super().__init__(message)
        self.timeline = timeline
