"""Error taxonomy shared across the package.

The CLI maps ConfigError to exit code 2, DataError (and an OSError from
reading or writing a file) to 3 and NumericError to 4; everything else
is a plain failure.
"""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class LayoutError(ValueError):
    """A prompt layout breaks its placeholder invariants."""


class ModeError(ValueError):
    """Unknown or unsupported model variant."""


class ContractError(RuntimeError):
    """An operation was called outside its declared protocol."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataError(ValueError):
    """Invalid or inconsistent input data."""


class BatchError(ValueError):
    """A duplicate-free batch could not be assembled."""


class NumericError(ArithmeticError):
    """Non-finite value or degenerate numeric input."""


class FormatError(ValueError):
    """A binary artifact does not match its declared format."""
