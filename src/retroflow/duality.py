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

import numpy as np

from .errors import NotFullyReversibleError
from .extended import ExtendedState, canonicalize, lift
from .logdomain import LOG_ZERO, LogAmplitude
from .reversibility import ReversibilityClass, backward_evolve, classify
from .spectral import ExpTail, SpectralState, Spectrum, TailModel, evolve, log_inner_product


class Functional(SpectralState):
    """Coefficient functional: a :class:`SpectralState` whose tail law is
    allowed to grow (exponential envelope with a rate of either sign)."""

    @staticmethod
    def _check_decay(tail: TailModel):
        """Any exponential rate is allowed: a functional's law may grow."""

    @classmethod
    def from_exp_law(cls, spectrum: Spectrum, rate: float, coeff: float = 1.0) -> "Functional":
        """Functional following ``b_n = coeff * exp(rate * lambda_n)`` on every
        mode, explicit up to the truncation and as a law beyond it.  Negative
        rates grow; a rate past float range gives zero coefficients or an error."""
        tail = ExpTail(rate, coeff)
        if not tail.coeff:
            raise ValueError("coeff must be positive for a law-built functional")
        with np.errstate(over="ignore"):
            logs = tail.rate * spectrum.eigenvalues + math.log(tail.coeff)
        if np.any(logs == math.inf):
            raise ValueError(f"rate {rate!r} overflows the logs of the law's coefficients")
        signs = (logs != LOG_ZERO).astype(np.int8)  # an underflowed log: a zero coefficient
        cls._check(spectrum, signs, logs, tail)
        return cls._result(spectrum, signs, logs, tail)


def representable_time(functional: Functional) -> float:
    """Supremal shift making the shifted coefficients square-summable: the
    tail law's ``rate`` (explicit modes never matter).

    Zero tail: unbounded.  Exponential law of rate ``g``: the supremum is
    ``g`` (not attained).  Power law: zero, attained (already square-summable).
    """
    return functional.tail.rate


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
    tail = functional.tail
    if t > 0.0 or tail.power:
        return lift(SpectralState._result(
            functional.spectrum, functional.signs, functional.log_mags, tail))
    # growing (or boundary) exponential law: represent at a positive offset
    offset = -t + max(1.0, -t)
    return ExtendedState(offset, evolve(functional, offset))


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
