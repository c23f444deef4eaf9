"""How far backward a trajectory extends, and the backward flow itself.

The horizon of a state is the supremum of backward times for which the
coefficient series stays square-summable.  It is always computed symbolically
from the tail envelope, never by numerical summation: a partial sum can
suggest divergence but cannot certify it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import HorizonExceededError, NotFullyReversibleError
from .spectral import (
    ExpTail,
    SpectralState,
    ZeroTail,
    exp_or_inf,
    log_norm,
)


@dataclass(frozen=True)
class Horizon:
    """Backward reach of a trajectory.  Every finite horizon is open (the
    supremum is not attained): at an exponential law's rate the terms stop
    decaying, and a power law diverges at every positive step."""

    value: float

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("horizon cannot be negative")

    @property
    def open_at_endpoint(self) -> bool:
        return math.isfinite(self.value)

    def allows(self, t: float) -> bool:
        """Whether a backward step of ``t`` stays inside the ambient space."""
        return t <= 0.0 or t < self.value


class ReversibilityClass(enum.Enum):
    """Trichotomy: backward to minus infinity / up to a finite time / not at all."""

    FULL = "D"
    PARTIAL = "Dt"
    NONE = "Z"


@dataclass(frozen=True)
class Classification:
    label: ReversibilityClass
    horizon: Horizon
    certificate: str


def horizon(state: SpectralState) -> Horizon:
    """Symbolic horizon from the tail envelope.

    Finitely many explicit modes never restrict backward reach; only the tail
    law does.  An exponential envelope of rate ``g`` diverges termwise at
    backward time ``g`` (open endpoint); a power envelope diverges for every
    positive backward time.
    """
    tail = state.tail
    if isinstance(tail, ZeroTail):
        return Horizon(math.inf)
    if isinstance(tail, ExpTail):
        return Horizon(tail.rate)
    return Horizon(0.0)


def classify(state: SpectralState) -> Classification:
    h = horizon(state)
    tail = state.tail
    if math.isinf(h.value):
        return Classification(
            ReversibilityClass.FULL, h,
            "zero tail: finite modal sum, backward reach unbounded",
        )
    if h.value > 0.0:
        return Classification(
            ReversibilityClass.PARTIAL, h,
            f"exponential tail envelope (rate {tail.rate!r}): coefficient series "
            f"diverges at backward time {tail.rate!r}",
        )
    return Classification(
        ReversibilityClass.NONE, h,
        f"power tail envelope (power {tail.power!r}): exponential growth "
        "dominates any power law, so every positive backward step diverges",
    )


def backward_evolve(state: SpectralState, t: float) -> SpectralState:
    """Backward flow: mode ``n`` is amplified by ``exp(-lambda_n * t)``.

    Legal only within the horizon; the error carries the horizon so callers
    can see where the trajectory stops.  ``t = 0`` is the identity and is
    always legal.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("backward time must be finite")
    if t < 0.0:
        raise ValueError("negative backward times are forward evolution; use evolve")
    if t == 0.0:
        return state
    h = horizon(state)
    if not h.allows(t):
        raise HorizonExceededError(t, h)
    logs = state.log_mags - state.spectrum.eigenvalues * t
    tail = state.tail
    if isinstance(tail, ExpTail):
        tail = ExpTail(tail.rate - t, tail.coeff)
    return SpectralState._result(state.spectrum, state.signs, logs, tail)


def amplification_log(state: SpectralState, t: float) -> float:
    """Natural log of the worst amplification factor of a backward step,
    ``-lambda_N * t`` for the deepest retained mode.  Reported separately
    because the factor itself overflows floats well inside desk scale."""
    if state.num_modes == 0:
        return 0.0
    return -float(state.spectrum.eigenvalues[-1]) * float(t)


def log_backward_norm(state: SpectralState, t: float) -> float:
    """log of the norm of the backward image at time ``t``."""
    return log_norm(backward_evolve(state, t))


def frechet_seminorms(state: SpectralState, n_max: int) -> list[float]:
    """The countable seminorm family: value ``k`` is the norm of the backward
    image at integer time ``k``, for ``k = 0..n_max``.

    Only fully reversible states carry the whole family.  Values can overflow
    to ``inf``; use :func:`log_frechet_seminorms` for deep modes.
    """
    return [exp_or_inf(v) for v in log_frechet_seminorms(state, n_max)]


def log_frechet_seminorms(state: SpectralState, n_max: int) -> list[float]:
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    c = classify(state)
    if c.label is not ReversibilityClass.FULL:
        raise NotFullyReversibleError(
            f"seminorm family needs unbounded backward reach; state is {c.label.value} "
            f"({c.certificate})"
        )
    return [log_norm(backward_evolve(state, float(k))) for k in range(n_max + 1)]
