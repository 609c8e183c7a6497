"""Exception types raised across the package.

Each class maps to one failure mode so callers and tests can catch
precisely what they expect instead of pattern-matching messages. Every
class also derives from ``CoalignError``, so the CLI catches them all.
"""


class CoalignError(Exception):
    """The base of every error the package raises for a bad input or run."""


class DimensionError(CoalignError, ValueError):
    """Operand shapes are incompatible."""


class NormalizationError(CoalignError, ValueError):
    """A probability matrix has rows that do not sum to 1."""


class DivergenceError(CoalignError, FloatingPointError):
    """A gradient or loss went non-finite; carries the offending block name."""


class UsageError(CoalignError, ValueError):
    """An operation was called with arguments it cannot meaningfully process."""


class ProtocolError(CoalignError, ValueError):
    """A label-shift spec cannot be realized on the given dataset."""


class FormatError(CoalignError, ValueError):
    """A binary input file has the wrong magic number or layout."""


class ConsistencyError(CoalignError, ValueError):
    """Paired input files disagree (e.g. image count vs label count)."""


class LengthError(CoalignError, ValueError):
    """An input file is shorter than its header promises."""


class SamplerError(CoalignError, ValueError):
    """A batch sampler cannot run (e.g. a class has no samples)."""


class MetricError(CoalignError, ValueError):
    """A metric is undefined for the given inputs; names the class."""


class TableError(CoalignError, ValueError):
    """Run reports passed to the table renderer have mismatched schemas."""


class CheckpointError(CoalignError, ValueError):
    """A checkpoint file is unreadable or from an incompatible version."""
