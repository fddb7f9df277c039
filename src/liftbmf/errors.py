"""Exception taxonomy shared across the package, the integer and real
checks behind the InputErrors for seeds, counts and parameters, and the one
number grammar for text:
file headers, arities, weights, command-line flags and LIFTBMF_* values.

The CLI maps these onto exit codes: InputError -> 1, CapacityError -> 2,
InconsistencyError -> 3.
"""
import math
import numbers
import re

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
    """Exact search ran out of nodes; carries the best bounds proven so far,
    the stage that ran out and the nodes it had spent by then."""

    def __init__(self, message, lower_bound=None, upper_bound=None, stage=None, nodes=None):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.stage = stage
        self.nodes = nodes


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


def check_real(value, name: str) -> float:
    """`value` as a float; InputError unless it is a real number, Python or
    numpy, other than a bool, and finite as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int or Fraction beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise InputError(f"{name} must be finite, got {value}")
    return real


# ASCII digits only: int() and float() also read Unicode digits, '_' and
# padding.  Integers keep their sign for the caller's range check; reals
# read the non-finite spellings so that callers can refuse them by name.
_INTEGER_RE = re.compile(r"-?[0-9]+")
_REAL_RE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)", re.IGNORECASE
)


def read_integer(text: str, message: str) -> int:
    """`text` as an int if it matches `_INTEGER_RE`, else InputError(`message`)."""
    if not _INTEGER_RE.fullmatch(text):
        raise InputError(message)
    return int(text)


def read_real(text: str, message: str) -> float:
    """`text` as a float if it matches `_REAL_RE`, else InputError(`message`)."""
    if not _REAL_RE.fullmatch(text):
        raise InputError(message)
    return float(text)
