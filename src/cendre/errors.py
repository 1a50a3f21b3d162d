"""Exception types shared across the package.

The split matters at the command line: configuration problems and
numerical failures map to different exit codes (see ``cendre.cli``).
"""


class CendreError(Exception):
    """Base class for package errors."""


class DomainError(CendreError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(CendreError, ArithmeticError):
    """A matrix factorization or rank-one update hit a (near-)singular pivot."""


class ConfigError(CendreError, ValueError):
    """An experiment or dataset configuration is invalid or incomplete."""


class UsageError(CendreError, RuntimeError):
    """An operation was invoked on an object in the wrong state."""


def config_section(doc, name: str, fields, required=()) -> dict:
    """doc, once checked to be an object whose keys all lie in fields and
    include required: the shape check of every config section.  name is
    the section's dotted path ("stream.cov"), or "config" for the top level."""
    if not isinstance(doc, dict):
        raise ConfigError(f"field {name!r} must be an object")
    for key in doc:
        if key not in fields:
            raise ConfigError(f"unknown {name} field {key!r}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing required field '{name}.{key}'")
    return doc


def read_field(read, value, name: str):
    """read(value), with read a cast such as int or float: a value it
    cannot convert raises ConfigError naming the field (its dotted path)."""
    try:
        return read(value)
    except CendreError:
        raise
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {name!r} has invalid value {value!r}") from None
