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


class CellError(StructmcError, RuntimeError):
    """A benchmark grid cell failed hard, with its coordinates attached."""

    def __init__(self, cell, trial_index, message):
        self.cell = cell
        self.trial_index = trial_index
        self.message = message
        super().__init__(
            f"cell (rate_zero={cell[0]}, rate_nonzero={cell[1]}), "
            f"trial {trial_index}: {message}"
        )

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so that it can leave a
        # sweep worker: unpickling calls the class with ``args``, one string
        return type(self), (self.cell, self.trial_index, self.message)


class UsageError(StructmcError, ValueError):
    """Invalid CLI flag combination."""
