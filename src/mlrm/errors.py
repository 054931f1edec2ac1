"""Error taxonomy shared across the package.

The CLI maps each of three roots to one exit code:

    ConfigError             2   a bad option, config value or variant
    DataError, FormatError  3   bad input data or artifact bytes
    NumericError            4   a non-finite or degenerate value

An OSError from reading or writing a file exits 3 too; everything else
is a plain failure.
"""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class LayoutError(ValueError):
    """A prompt layout breaks its placeholder invariants."""


class ContractError(RuntimeError):
    """An operation was called outside its declared protocol."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataError(ValueError):
    """Invalid or inconsistent input data."""


class NumericError(ArithmeticError):
    """Non-finite value or degenerate numeric input."""


class FormatError(ValueError):
    """A binary artifact does not match its declared format."""
