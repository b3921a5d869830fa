"""Exception hierarchy shared across the package, and its setting rules.

The CLI maps these onto exit codes: usage errors exit 1, data/config errors
exit 2, numeric failures exit 3.  A setting is never coerced:
:func:`check_count` decides every integer, :func:`check_real` every real
number and :func:`check_choice` every name, and config dataclasses store
what they return, Python numbers, which the CLI's JSON config log needs.
"""

import math

import numpy as np


class LatecutError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(LatecutError):
    """Tensor shapes are incompatible with the requested operation."""


class InvalidBlockError(LatecutError):
    """A block id is outside the network's removable-block range."""


class ConfigError(LatecutError):
    """A configuration value is out of range or inconsistent."""


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


def check_ints(config, **lows) -> None:
    """Store each named field of ``config`` back as :func:`check_count`'s int >= its bound."""
    for name, low in lows.items():
        setattr(config, name, check_count(f"{type(config).__name__}.{name}",
                                          getattr(config, name), low))


def check_real(name, value, positive=False) -> float:
    """``value`` as a Python float, else ConfigError naming ``name`` and
    ``value``: a Python or numpy real, not a bool, finite and >= 0 (> 0
    when ``positive``).  An int too large for a float is refused."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int beyond every float
        number = math.nan
    if not (math.isfinite(number) and (number > 0 if positive else number >= 0)):
        raise ConfigError(f"{name} must be a finite real {'>' if positive else '>='} 0 "
                          f"(not a bool), got {value!r}")
    return number


def check_choice(name, value, choices):
    """``value`` if it is one of ``choices``, else ConfigError naming
    ``name``, ``value`` and the choices."""
    if value not in choices:
        raise ConfigError(f"unknown {name} {value!r}; choose from {list(choices)}")
    return value


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
