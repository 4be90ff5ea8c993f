"""Exception types shared across the pipeline, and the parameter type check."""

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
    """A feature column has zero variance and cannot be standardized."""


class OutOfDomainError(SpatialCpfError):
    """A coordinate lies outside the projection's validity window."""


class InternalConsistencyError(SpatialCpfError):
    """An internal invariant was violated (indicates a bug)."""


_KIND_NAMES = {Integral: "an integer", Real: "a number", bool: "true or false"}


def require_type(key: str, value, kind) -> None:
    """Raise ParameterError naming key unless value is of kind (Integral,
    Real or bool). A bool is never taken for a number, though Python's
    bool is an int."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ParameterError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
