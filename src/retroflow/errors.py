"""Exception types shared across the library.

Plain argument mistakes (mismatched spectra, negative mode counts, malformed
inputs) raise ``ValueError``.  The classes below mark *domain* failures: the
operation is well formed but the requested point lies outside the set on
which the map is defined.
"""

from __future__ import annotations


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


class UnrepresentableFunctionalError(DomainError):
    """The functional's coefficient law cannot be shifted into square-summable form."""
