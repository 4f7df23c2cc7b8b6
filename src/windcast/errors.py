"""Error taxonomy shared by every module.

Each category carries the process exit code the CLI maps it to:
1 usage, 2 schema/shape, 3 data integrity, 4 numerical failure.
"""


class ToolkitError(Exception):
    """Base class for all windcast errors."""

    exit_code = 1


class UsageError(ToolkitError):
    """Bad invocation: unknown flags, unreadable config, wrong mode."""

    exit_code = 1


class SchemaError(ToolkitError):
    """Structural problems: missing columns, bad config fields."""

    exit_code = 2


class ShapeError(SchemaError):
    """Array dimensions that do not chain or match."""


class InvalidArchitectureError(SchemaError):
    """Layer size list that cannot define a network."""


class CacheError(SchemaError):
    """Backward called with a cache from a different forward pass."""


class ScheduleOverflowError(SchemaError):
    """Learning-rate schedule queried past its planned horizon."""


class DataError(ToolkitError):
    """Content problems in otherwise well-formed inputs."""

    exit_code = 3


class ParseError(DataError):
    """Unparsable cell; message carries the offending row number."""


class IntegrityError(DataError):
    """Duplicate timestamps, inverted intervals, non-finite values."""


class EmptyDataError(DataError):
    """An operation received zero rows."""


class InsufficientDataError(DataError):
    """Too few rows for the requested windowing or split."""


class InsufficientGridError(SchemaError):
    """Quantile grid too small for the requested approximation."""


class UndefinedDenominatorError(DataError):
    """A metric's denominator is zero (e.g. constant observations)."""


class DegeneratePerturbationError(DataError):
    """Perturbation generation impossible: every feature has zero spread."""


class DivergenceError(ToolkitError):
    """Non-finite loss or gradients during training."""

    exit_code = 4


class NonFiniteForecastError(ToolkitError):
    """A model whose finite parameters forecast an overflowing value."""

    exit_code = 4


class NonFiniteReportError(ToolkitError):
    """A report value that is nan or infinite, which JSON cannot hold."""

    exit_code = 4


class RankDeficiencyError(ToolkitError):
    """Surrogate normal equations that cannot be solved: singular (advise
    a positive ridge penalty), weightless or not finite (name the setting)."""

    exit_code = 4
