"""Constructive approximation by fully reversible states.

Two routes: plain spectral truncation (drop the tail at a deep enough mode),
and the generic preimage iteration.  The iteration assumes only an
approximate-preimage oracle for unit time steps plus an exponential growth
bound on the flow, so it applies verbatim to nonexpansive nonlinear flows;
``regime`` records which hypothesis a certificate leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NotConvergedError, OracleFailedError
from .logdomain import LOG_ZERO
from .reversibility import backward_evolve
from .spectral import (
    MAX_MODES,
    SpectralState,
    ZeroTail,
    _tail_cross_log,
    embed,
    evolve,
    log_distance,
    log_norm,
)


@dataclass(frozen=True)
class GrowthBound:
    """Exponential bound on the flow: operator norm at time ``t`` is at most
    ``factor * exp(rate * t)``."""

    factor: float
    rate: float

    def __post_init__(self):
        if not self.factor >= 1.0:
            raise ValueError("growth factor must be at least 1")
        if not math.isfinite(self.rate):
            raise ValueError("growth rate must be finite")

    def at(self, t: float) -> float:
        return self.factor * math.exp(self.rate * t)


#: The heat flow is a contraction.
CONTRACTION = GrowthBound(1.0, 0.0)


@dataclass(frozen=True)
class DensityCertificate:
    """Audit record for a reversible approximation.

    ``achieved_error_bound`` telescopes the per-step oracle errors through the
    growth bound and includes ``residual_bound``, the tail of the Cauchy
    sequence beyond the executed iterations; it never exceeds
    ``target_error``.
    """

    target_error: float
    achieved_error_bound: float
    iterations: int
    epsilon_schedule: tuple
    step_bounds: tuple = ()
    step_gaps: tuple = ()
    residual_bound: float = 0.0
    regime: str = "linear"

    def __post_init__(self):
        if self.achieved_error_bound > self.target_error * (1.0 + 1e-9):
            raise ValueError("certificate bound exceeds its target")


def _tail_log_norm_beyond(state: SpectralState, n_prime: int) -> float:
    """log norm of the tail restricted to modes beyond ``n_prime``."""
    return 0.5 * _tail_cross_log(state.tail, state.tail, n_prime + 1)


def _materialize(state: SpectralState, n_prime: int) -> SpectralState:
    """Explicit zero-tail copy with the tail law written out up to ``n_prime``."""
    grown = embed(state, n_prime)
    return SpectralState._result(grown.spectrum, grown.signs, grown.log_mags)


def truncate_to_reversible(
    state: SpectralState, eps: float
) -> tuple[SpectralState, DensityCertificate]:
    """Smallest-tail truncation within ``eps``: scan for the first depth whose
    remaining tail norm drops below ``eps``, write the envelope out as explicit
    modes up to there, and drop the rest.

    The result has a zero tail (hence full backward reach) and differs from
    the input by exactly the dropped tail.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    log_eps = math.log(eps)

    def small_enough(m: int) -> bool:
        return _tail_log_norm_beyond(state, m) < log_eps

    # bracket the minimal depth by doubling, then binary-search it; the tail
    # norm beyond m is strictly decreasing in m
    lo = state.num_modes  # known insufficient unless already small enough
    if small_enough(lo):
        n_prime = lo
    else:
        hi = max(lo + 1, 2 * lo)
        while not small_enough(hi):
            lo = hi
            hi *= 2
            if hi > MAX_MODES:
                raise NotConvergedError(
                    f"truncation scan passed {MAX_MODES} modes without meeting eps"
                )
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if small_enough(mid):
                hi = mid
            else:
                lo = mid
        n_prime = hi
    dropped = _tail_log_norm_beyond(state, n_prime)
    achieved = 0.0 if dropped == LOG_ZERO else math.exp(dropped)
    cert = DensityCertificate(eps, achieved, n_prime - state.num_modes, ())
    return _materialize(state, n_prime), cert


PreimageOracle = Callable[[SpectralState, float], SpectralState]

# Relative roundoff allowed between an oracle output's unit-step image and its
# target.  Stepping a log magnitude ``L`` backward and forward rounds it twice,
# an absolute error of a few ``2**-52 * |L|`` in the log and so the same
# relative error in the coefficient, and the difference's norm is at most the
# largest such error times the target's norm.  Deep truncations reach
# ``|L| ~ 1e11``, far past a fixed 1e-6, so 64 units of the spacing at the
# largest ``|L|`` cover the two roundings and the eigenvalue products with
# margin; 1e-6 stays the floor for desk-scale states.
_ROUNDOFF_ULPS = 64.0 * 2.0**-52
_ROUNDOFF_FLOOR = 1e-6


def truncation_preimage_oracle(margin: float = 0.5) -> PreimageOracle:
    """Unit-time approximate-preimage oracle for the spectral model: truncate
    within ``margin * eps`` (zero tail, unbounded backward reach), then step
    the truncation backward by one time unit."""
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")

    def oracle(x: SpectralState, eps: float) -> SpectralState:
        y, _ = truncate_to_reversible(x, margin * eps)
        return backward_evolve(y, 1.0)

    return oracle


def iterate_to_reversible(
    x0: SpectralState,
    eps0: float,
    oracle: PreimageOracle,
    bound: GrowthBound = CONTRACTION,
    max_iters: int = 12,
    regime: str = "linear",
) -> tuple[SpectralState, DensityCertificate]:
    """Preimage iteration: repeatedly pull the target back one unit through
    the oracle, so the forward images form a Cauchy sequence landing within
    ``eps0`` of ``x0``.

    The step budgets ``eps_k = eps0 * exp(-rate*(k+1)) * 2**-(k+1) / factor``
    make each telescoping term at most ``eps0 * 2**-(k+1)``, so the full
    series (executed steps plus the unexecuted residual) stays below ``eps0``.
    Oracle outputs are refined to zero-tail states, hence the result is fully
    reversible.  An oracle output violating its accuracy budget raises
    ``OracleFailedError`` with the partial certificate attached; agreement at
    machine-level relative precision always counts as within budget, since
    deep iterates carry log magnitudes far beyond float range where absolute
    roundoff is unavoidable.
    """
    if not eps0 > 0.0:
        raise ValueError("eps0 must be positive")
    if max_iters < 1:
        raise ValueError("at least one iteration is required")
    if regime not in ("linear", "nonexpansive"):
        raise ValueError("regime must be 'linear' or 'nonexpansive'")

    schedule = tuple(
        eps0 * math.exp(-bound.rate * (k + 1)) * 2.0 ** -(k + 1) / bound.factor
        for k in range(max_iters)
    )
    current = x0
    step_bounds: list[float] = []
    step_gaps: list[float] = []
    for k, eps_k in enumerate(schedule):
        candidate = oracle(current, eps_k)
        if not isinstance(candidate.tail, ZeroTail):
            candidate, _ = truncate_to_reversible(candidate, eps_k * 1e-6)
        gap = log_distance(evolve(candidate, 1.0), current)
        # an exact preimage is exact only to roundoff once iterates leave
        # float range; machine-level relative agreement counts as in budget
        deepest = abs(candidate.log_mags[candidate.signs != 0]).max(initial=0.0)
        allowance = max(_ROUNDOFF_FLOOR, _ROUNDOFF_ULPS * deepest)
        exact_to_roundoff = gap < log_norm(current) + math.log(allowance)
        if gap >= math.log(eps_k) and not exact_to_roundoff:
            partial = DensityCertificate(
                eps0,
                math.fsum(step_bounds),
                k,
                schedule[:k],
                tuple(step_bounds),
                tuple(step_gaps),
                residual_bound=0.0,
                regime=regime,
            )
            raise OracleFailedError(
                k,
                f"unit-step image misses the target by exp({gap:.6g}) >= {eps_k:.6g}",
                partial,
            )
        # Cauchy gap of consecutive forward images, bounded by the growth at
        # time k applied to the step-k oracle error.
        step_bound = bound.at(float(k)) * eps_k
        forward_gap = log_distance(evolve(candidate, float(k + 1)), evolve(current, float(k)))
        measured = 0.0 if forward_gap == -math.inf else math.exp(forward_gap)
        if measured > step_bound * (1.0 + 1e-9):
            raise OracleFailedError(
                k, f"forward-image gap {measured:.6g} exceeds its telescoping bound {step_bound:.6g}"
            )
        step_bounds.append(step_bound)
        step_gaps.append(measured)
        current = candidate

    result = evolve(current, float(max_iters))
    residual = eps0 * math.exp(-bound.rate) * 2.0 ** -max_iters
    cert = DensityCertificate(
        eps0,
        math.fsum(step_bounds) + residual,
        max_iters,
        schedule,
        tuple(step_bounds),
        tuple(step_gaps),
        residual_bound=residual,
        regime=regime,
    )
    return result, cert
