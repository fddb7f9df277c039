"""Exception taxonomy shared across the package, and the integer check
behind the InputErrors for seeds and counts.

The CLI maps these onto exit codes: InputError -> 1, CapacityError -> 2,
InconsistencyError -> 3.
"""
import numbers

__all__ = [
    "LiftBmfError",
    "InputError",
    "CapacityError",
    "SearchBudgetError",
    "InconsistencyError",
]


class LiftBmfError(Exception):
    """Base class for all errors raised by liftbmf."""


class InputError(LiftBmfError, ValueError):
    """Malformed input: bad file syntax, shape mismatch, broken precondition."""


class CapacityError(LiftBmfError):
    """A configured size or work cap refuses the request."""


class SearchBudgetError(CapacityError):
    """Exact search ran out of nodes; carries the best bounds proven so far."""

    def __init__(self, message, lower_bound=None, upper_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound


class InconsistencyError(LiftBmfError):
    """Evidence and hard constraints admit no world (zero partition mass)."""


def is_integer(value) -> bool:
    """Whether `value` is an integer, Python or numpy; bools and integral
    floats are not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def check_integer(value, name: str, minimum: int) -> None:
    """InputError unless `value` is an integer (see `is_integer`) of at
    least `minimum`."""
    if not is_integer(value) or value < minimum:
        raise InputError(f"{name} must be an integer >= {minimum}, got {value!r}")
