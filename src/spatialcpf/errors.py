"""Exception types shared across the pipeline, and the declaration and
check of the config settings."""

from dataclasses import field, fields
from numbers import Integral, Real


class SpatialCpfError(Exception):
    """Base class for all pipeline errors."""


class SchemaError(SpatialCpfError):
    """Input file structure is wrong (missing column, empty file, ...)."""


class RowParseError(SpatialCpfError):
    """A single data row could not be parsed."""

    def __init__(self, path, line_number, message):
        self.line_number = line_number
        super().__init__(f"{path}: line {line_number}: {message}")


class ParameterError(SpatialCpfError):
    """An operation was called with out-of-range parameters."""


class DataError(SpatialCpfError):
    """Input data violates an operation's preconditions."""


class DegenerateColumnError(SpatialCpfError):
    """A feature column has zero variance, or a mean or standard deviation
    that overflows, and cannot be standardized."""


class OutOfDomainError(SpatialCpfError):
    """A coordinate lies outside the projection's validity window."""


class InternalConsistencyError(SpatialCpfError):
    """An internal invariant was violated (indicates a bug)."""


_KIND_NAMES = {Integral: "an integer", Real: "a number", bool: "true or false", str: "a string"}


def setting(default, kind, test=None, rule=""):
    """A dataclass field declaring one setting: its default (a class is
    called for each instance), the kind its value must be, and a test the
    value must pass, described by rule. A tuple test lists the allowed
    values."""
    if isinstance(test, tuple):
        rule = " | ".join(test)
    metadata = {"kind": kind, "test": test, "rule": rule}
    if isinstance(default, type):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


def check_settings(obj, section: str = "") -> None:
    """Raise ParameterError naming the first of obj's settings, in
    declaration order, that is not of its kind or fails its test. A bool is
    never taken for a number, though Python's bool is an int, and None
    passes only where it is the default."""
    for f in fields(obj):
        kind, test, rule = f.metadata["kind"], f.metadata["test"], f.metadata["rule"]
        value = getattr(obj, f.name)
        if value is None and f.default is None:
            continue
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            expected = _KIND_NAMES.get(kind) or f"a {kind.__name__}"
        elif test is not None and not (value in test if isinstance(test, tuple) else test(value)):
            expected = rule
        else:
            continue
        raise ParameterError(f"{section}{f.name} must be {expected}, got {value!r}")
