"""Exception types shared across the package."""


class StructmcError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(StructmcError, ValueError):
    """Matrix and mask (or two matrices) disagree on shape."""


class NumericalError(StructmcError, RuntimeError):
    """A numerical routine (typically an SVD) failed to converge."""


class InvalidSamplingError(StructmcError, ValueError):
    """A sampling spec produced an empty observation mask."""


class OracleBudgetError(StructmcError, ValueError):
    """Problem with more free entries than the reference oracle searches."""


class CsvParseError(StructmcError, ValueError):
    """CSV ingestion failure, carrying the offending location."""

    def __init__(self, path, row, col, message):
        self.path = str(path)
        self.row = row
        self.col = col
        super().__init__(f"{path}: row {row}, col {col}: {message}")


class ConfigError(StructmcError, ValueError):
    """Benchmark config violation; messages carry section.key paths."""


class UsageError(StructmcError, ValueError):
    """Invalid CLI flag combination."""
