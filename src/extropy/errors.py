"""Exception hierarchy shared across the package.

Each error carries the exit code the command line reports for it: 2 for
input the caller can correct, 3 for a value that could not be computed.
"""


class ExtropyError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class InvalidModel(ExtropyError):
    """A distribution model violates its invariants (e.g. negative density)."""


class InvalidParameter(ExtropyError, ValueError):
    """A parameter lies outside its family's valid domain."""

    exit_code = 2


class QuadratureFailure(ExtropyError):
    """An integral could not be brought within tolerance."""


class DenominatorUnderflow(ExtropyError):
    """A conditional measure was requested where its denominator is below the floor."""


class DegenerateSample(ExtropyError):
    """A sample has zero spread (or is otherwise unusable for estimation)."""


class NonFiniteResult(ExtropyError):
    """A result came out NaN or infinite; no report carries such a value."""


class NoBracket(ExtropyError):
    """The bandwidth equation has no sign change inside the search bracket."""


class InsufficientGrid(ExtropyError):
    """A grid-based check was called with too few points."""


class MissingColumn(ExtropyError):
    """A requested CSV column is absent from the header."""

    exit_code = 2


class CsvParseError(ExtropyError):
    """A CSV cell failed to parse as a finite real."""

    exit_code = 2

    def __init__(self, row: int, column: str, cell: str):
        super().__init__(f"row {row}, column {column!r}: cannot parse {cell!r} as a finite real")
        self.row = row
        self.column = column


class TooFewObservations(ExtropyError):
    """A group has fewer observations than the minimum required."""

    exit_code = 2

    def __init__(self, group: str, count: int, minimum: int):
        super().__init__(f"group {group!r} has {count} observations, minimum is {minimum}")
        self.group = group
        self.count = count
