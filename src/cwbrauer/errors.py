"""Error types shared across the package.

Each class carries its exit code as `code`: ParseError 2, SemanticError 3,
UnsupportedComputation 4.  The CLI reads the code off the exception it
caught and decides nothing itself.  Library code raises them directly so
the distinction survives outside the CLI too.
"""


class ParseError(ValueError):
    """A literal could not be parsed.  Carries a position when known."""

    code = 2

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SemanticError(ValueError):
    """Input parsed fine but violates a precondition (bad degree, Z/1, ...)."""

    code = 3


class UnsupportedComputation(Exception):
    """The value exists mathematically but lies outside the symbolic tables."""

    code = 4
