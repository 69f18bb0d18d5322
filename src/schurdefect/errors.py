"""Exception types shared across the toolkit, and `echo`, the one way a
message quotes outside input."""

ECHO_CHARS = 40  # outside text up to this length is echoed whole


def echo(value) -> str:
    """Outside input as an error message shows it: ``repr`` of a string of
    at most `ECHO_CHARS` characters, and of a longer one the ``repr`` of
    its first `ECHO_CHARS`, ``...`` and its length, so that a message stays
    short whatever the input. Any other value is shown by ``repr``, cut
    the same way."""
    text, show = (value, repr) if isinstance(value, str) else (repr(value), str)
    if len(text) <= ECHO_CHARS:
        return show(text)
    return f"{show(text[:ECHO_CHARS])}... ({len(text)} characters)"


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


class ParseError(ValueError):
    """Scalar text does not match the grammar or is out of range."""


class NotALieAlgebra(ValueError):
    """Structure constants violate the Jacobi identity."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class NotAnIdeal(ValueError):
    """Subspace is not closed under bracketing with the whole algebra."""


class SingularMatrix(ValueError):
    """Matrix is not invertible."""


class NotContained(ValueError):
    """Claimed subspace containment does not hold."""


class NotNilpotent(ValueError):
    """Operation requires a nilpotent Lie algebra."""


class DerivedNotLine(ValueError):
    """Heisenberg recognition requires a one-dimensional derived subalgebra."""


class CatalogError(ValueError):
    """Unknown catalog key, bad parameter, or field-constraint violation."""


class DocumentError(ValueError):
    """Malformed algebra document; message carries the offending position."""


class BudgetExceeded(RuntimeError):
    """Census size exceeds the guard; pass force=True to override."""
