"""Exception types shared across the package, and the reader of a decimal field in a data file."""


class ParseError(ValueError):
    """Malformed program or data file; carries a 1-based source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"{line}:{column}" if column is not None else str(line)
            message = f"{where}: {message}"
        super().__init__(message)


def parse_decimal(field: str, what: str, line: int, signed: bool = False) -> int:
    """A field of ASCII digits, after one leading ``-`` when ``signed``, as an int; else a ParseError."""
    digits = field[1:] if signed and field.startswith("-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"bad {what} {field!r}", line)
    try:
        return int(field)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} has too many digits", line) from None


class MalformedCircuitError(ValueError):
    """Circuit violates its well-formedness rules (e.g. forward operand reference)."""


class InfeasibleArityError(ValueError):
    """The requested construction or sweep would not fit in memory or time."""


class StateSpaceCapExceeded(RuntimeError):
    """Service interaction explored more configurations than the configured cap."""
