"""Exception types shared across the package, and the integer-input check."""

import operator


class ValidationError(ValueError):
    """Raised when an input fails a structural check (bad graph, bad config)."""


class CapacityError(RuntimeError):
    """Raised when a request exceeds a hard size limit (term count, qudit count)."""


def int_at_least(value, minimum: int, what: str) -> int:
    """value as an int (numpy ints accepted, bools not), if it is one and at least minimum."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < minimum:
        raise ValidationError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return n
