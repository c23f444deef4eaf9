"""Exception types, the argument checks and the size budgets of the library.

Plain argument mistakes (mismatched spectra, malformed inputs) raise
``ValueError``.  Every scalar argument goes through :func:`real` or
:func:`count`, never coerced: a number is a finite real, a count an integer
within its budget, and a bool is neither.  :class:`DomainError` marks
*domain* failures: the operation is well formed but the requested point lies
outside the set on which the map is defined.
"""

from __future__ import annotations

import math
import numbers

MAX_MODES = 50_000_000  # explicit modes of a heat spectrum: 400 MB of eigenvalues
MAX_STEPS = 1 << 20  # the finest coarse quadrature grid; trajectory times; shift-demo cells
MAX_SAMPLES = 10_000  # verify --samples: density, the slowest suite, runs 23 s on one x86-64 core


class ScalarTypeError(ValueError):
    """A scalar of the wrong type; a wire decoder reports it as a malformed document."""


def real(value, what: str, rule: str = "") -> float:
    """``value`` as a finite float.  A bool, a non-number (a string, ``None``), a NaN or an
    infinity raises ``ValueError``: ``what`` must be ``rule``, or a number, or finite."""
    # a float, numpy's included, passes the first isinstance without the ABC
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ScalarTypeError(f"{what} must be {rule or 'a number'}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be {rule or 'finite'}, got {number!r}")
    return number


def count(value, what: str, low: int, high: float = math.inf, rule: str = "") -> int:
    """``value`` as an int in ``[low, high]``.  A bool, a non-integer (``5.0`` too) or a value
    out of range raises ``ValueError``: ``what`` must be ``rule``, ``{low}``/``{high}`` filled in."""
    wrong_type = isinstance(value, bool) or not isinstance(value, (int, numbers.Integral))
    if wrong_type or not low <= value <= high:
        rule = rule or ("an integer" if wrong_type else "between {low} and {high}"
                        if high < math.inf else "at least {low}")
        error = ScalarTypeError if wrong_type else ValueError
        raise error(f"{what} must be {rule.format(low=low, high=high)}, got {value!r}")
    return int(value)


class RetroflowError(Exception):
    """Base class for library-specific errors."""


class DomainError(RetroflowError):
    """The operation left the set on which it is defined."""


class HorizonExceededError(DomainError):
    """A backward step was requested beyond the trajectory's horizon."""

    def __init__(self, requested: float, horizon):
        self.requested = requested
        self.horizon = horizon
        super().__init__(
            f"backward time {requested!r} exceeds the reversibility horizon "
            f"{horizon.value!r} (open endpoint: {horizon.open_at_endpoint}); "
            "the trajectory stops there"
        )


class NotFullyReversibleError(DomainError):
    """The state is not backward-extendable to arbitrary times."""


class NotWithinBackwardReachError(DomainError):
    """The equivalence class does not enter the ambient space by the requested time."""

    def __init__(self, requested: float, needed: float):
        self.requested = requested
        self.needed = needed
        super().__init__(
            f"class enters the ambient space only at backward depth {needed!r}, "
            f"but the norm was requested at depth {requested!r}"
        )


class NotConvergedError(DomainError):
    """A series or a depth scan reached its iteration cap without converging."""


class GeneratorDomainError(DomainError):
    """The state is outside the domain of the generator."""


class OracleFailedError(DomainError):
    """An approximate-preimage oracle violated its accuracy contract."""

    def __init__(self, step: int, message: str, certificate=None):
        self.step = step
        self.certificate = certificate
        super().__init__(f"preimage oracle failed at step {step}: {message}")
