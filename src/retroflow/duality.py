"""Coefficient functionals on the fully reversible set, and their realization
as points of the extended space.

A functional is a coefficient sequence whose tail law may *grow* (an
exponential envelope of either sign).  Every such law admits a time shift
making the shifted coefficients square-summable; the supremal shift decides
whether the functional is realized by an ambient state (nonnegative shift)
or by a genuinely extended class (negative shift, encoded as an offset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotFullyReversibleError, UnrepresentableFunctionalError
from .extended import ExtendedState, canonicalize, lift
from .logdomain import LogAmplitude
from .reversibility import ReversibilityClass, backward_evolve, classify
from .spectral import (
    ExpTail,
    PowerTail,
    SpectralState,
    Spectrum,
    TailModel,
    ZERO_TAIL,
    ZeroTail,
    _normalized_tail,
    coefficient_arrays,
    log_inner_product,
)


@dataclass(frozen=True)
class Functional:
    """Coefficient functional: explicit coefficients plus a tail law that is
    allowed to grow (exponential envelope with a rate of either sign)."""

    spectrum: Spectrum
    signs: np.ndarray
    log_mags: np.ndarray
    tail: TailModel = ZERO_TAIL

    def __post_init__(self):
        signs, logs = coefficient_arrays(self.spectrum, self.signs, self.log_mags)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "log_mags", logs)
        tail = _normalized_tail(self.tail)
        if not isinstance(tail, (ZeroTail, ExpTail, PowerTail)):
            raise UnrepresentableFunctionalError(
                f"no square-summability shift is known for tail law {type(tail).__name__}"
            )
        if not isinstance(tail, ZeroTail) and self.spectrum.kind != "heat":
            raise ValueError("tail laws need an eigenvalue law; use a heat spectrum")
        object.__setattr__(self, "tail", tail)

    @classmethod
    def from_exp_law(cls, spectrum: Spectrum, rate: float, coeff: float = 1.0) -> "Functional":
        """Functional following ``b_n = coeff * exp(rate * lambda_n)`` on every
        mode, explicit up to the truncation and as a law beyond it.  Negative
        rates grow."""
        if coeff <= 0.0:
            raise ValueError("coeff must be positive for a law-built functional")
        logs = math.log(coeff) + rate * spectrum.eigenvalues
        signs = np.ones(spectrum.num_modes, dtype=np.int8)
        return cls(spectrum, signs, logs, ExpTail(rate, coeff))

    @property
    def num_modes(self) -> int:
        return self.spectrum.num_modes

    def coeff(self, mode: int) -> LogAmplitude:
        i = mode - 1
        return LogAmplitude(int(self.signs[i]), float(self.log_mags[i]))


def representable_time(functional: Functional) -> float:
    """Supremal shift making the shifted coefficients square-summable,
    computed symbolically from the tail law (explicit modes never matter).

    Zero tail: unbounded.  Exponential law of rate ``g``: the supremum is
    ``g`` (not attained).  Power law: zero, attained (already square-summable).
    """
    tail = functional.tail
    if isinstance(tail, ZeroTail):
        return math.inf
    if isinstance(tail, ExpTail):
        return tail.rate
    return 0.0


def functional_to_extended(functional: Functional) -> ExtendedState:
    """Realize the functional as the extended class it pairs like.

    Nonnegative supremal shift: the coefficients themselves are square
    summable and the class is an embedded ambient state.  Negative shift
    ``-g``: the class enters the ambient space only past depth ``g``; it is
    encoded at offset ``g`` plus a unit-scale margin (the pairing is
    invariant under the decomposition point, and the margin keeps the
    representative's tail comfortably square-summable) so pairing against
    basis states reproduces the coefficients exactly.
    """
    t = representable_time(functional)
    if t >= 0.0 and not (isinstance(functional.tail, ExpTail) and functional.tail.rate == 0.0):
        state = SpectralState(
            functional.spectrum, functional.signs, functional.log_mags, functional.tail
        )
        return lift(state)
    # growing (or boundary) exponential law: represent at a positive offset
    offset = -t + max(1.0, -t)
    logs = functional.log_mags + functional.spectrum.eigenvalues * offset
    tail = ExpTail(functional.tail.rate + offset, functional.tail.coeff)
    rep = SpectralState(functional.spectrum, functional.signs, logs, tail)
    return ExtendedState(offset, rep, canonical=True)


def log_pairing(x: SpectralState, z: ExtendedState) -> LogAmplitude:
    """The duality pairing: pull ``x`` back by the class's offset and take
    the ambient inner product with the representative there.

    Requires ``x`` fully reversible (the pairing pulls it arbitrarily far
    back).  The value is invariant under the class's decomposition point,
    which is what makes the evaluation at the stored offset equal the
    evaluation at the entry infimum."""
    c = classify(x)
    if c.label is not ReversibilityClass.FULL:
        raise NotFullyReversibleError(
            f"pairing needs a fully reversible left argument; got {c.label.value}"
        )
    zc = canonicalize(z)
    return log_inner_product(backward_evolve(x, zc.offset), zc.rep)


def pairing(x: SpectralState, z: ExtendedState) -> float:
    """Linear value of the pairing; may over- or underflow float range, in
    which case :func:`log_pairing` carries the exact sign/log value."""
    return log_pairing(x, z).to_linear()
