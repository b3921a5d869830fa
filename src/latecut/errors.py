"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, data/config errors
exit 2, numeric failures exit 3.
"""


class LatecutError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(LatecutError):
    """Tensor shapes are incompatible with the requested operation."""


class InvalidBlockError(LatecutError):
    """A block id is outside the network's removable-block range."""


class ConfigError(LatecutError):
    """A configuration value is out of range or inconsistent."""


class FormatError(LatecutError):
    """A binary or JSON artifact does not match its documented layout."""


class NumericError(LatecutError):
    """A computation produced or received non-finite values."""


class DegenerateBlockError(LatecutError):
    """A block has zero latency saving, so its importance score is undefined."""


class TrainingDivergedError(LatecutError):
    """Source-model pretraining failed to reach the minimum train accuracy."""


class PartialRunError(LatecutError):
    """The serving loop did not finish its prune/distill work: the sample
    stream ended before the prune batch and cache were seeded, or a
    background unit raised (that exception is ``__cause__``).  Carries the
    timeline recorded so far."""

    def __init__(self, message, timeline=None):
        super().__init__(message)
        self.timeline = timeline
