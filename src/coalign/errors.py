"""Exception types raised across the package.

Each class maps to one thing a caller would do about the failure: fix the
call, fix a file, reconcile two artifacts, or change the run's settings.
Every class also derives from ``CoalignError``, so the CLI catches them all.
"""


class CoalignError(Exception):
    """The base of every error the package raises for a bad input or run."""


class UsageError(CoalignError, ValueError):
    """An operation was called with arguments it cannot meaningfully process."""


class FormatError(CoalignError, ValueError):
    """An input file (data, config, report or checkpoint) is unreadable or malformed."""


class ConsistencyError(CoalignError, ValueError):
    """Paired inputs disagree (e.g. image count vs label count)."""


class DivergenceError(CoalignError, FloatingPointError):
    """A gradient or loss went non-finite; carries the offending block name."""
