"""Exception taxonomy shared across the package.

Every error raised on purpose derives from QregError so callers can catch
library failures without swallowing genuine bugs.
"""


class QregError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QregError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(QregError):
    """A value lies outside the mathematical domain of an operation."""


class ContractError(QregError):
    """An API precondition was violated by the caller; `field` names the
    offending dataclass field when a config's own check raised it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DataError(QregError):
    """A dataset or serialized payload is malformed."""


class ConfigError(QregError):
    """An experiment config is invalid; names the offending key."""

    def __init__(self, message: str, key: str | None = None):
        if key is not None:
            message = f"config key '{key}': {message}"
        super().__init__(message)
        self.key = key


class TrainingError(QregError):
    """Training failed (diverged or produced non-finite numbers).

    When raised mid-run, `record` holds the truncated but valid run record
    covering the epochs that completed before the failure.
    """

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record
