"""Constructive approximation by fully reversible states.

Two routes: plain spectral truncation (drop the tail at a deep enough mode,
found by the heat law's depth model in :mod:`retroflow.spectral`), and the
generic preimage iteration.  The iteration assumes only an
approximate-preimage oracle for unit time steps plus an exponential growth
bound on the flow, so it applies verbatim to nonexpansive nonlinear flows;
``regime`` records which hypothesis a certificate leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NotConvergedError, OracleFailedError
from .reversibility import backward_evolve
from .spectral import (
    MAX_MODES,
    SpectralState,
    _drop_tail,
    _law_depth,
    _law_log_norm,
    _tail_log_norm_beyond,
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


def _least_depth(state: SpectralState, log_eps: float) -> tuple[int, float]:
    """The least depth ``m >= state.num_modes`` whose tail norm beyond ``m``
    is below ``exp(log_eps)``, with that norm's log; ``NotConvergedError``
    past ``MAX_MODES``.

    The norm beyond ``m`` falls as ``m`` grows, so the answer is bracketed by
    a depth too shallow and one deep enough.  Each probe is one tail sum, at
    the depth where the law's leading term (:func:`_law_log_norm`), shifted
    by the last probe's miss, meets the budget (:func:`_law_depth`), rounded
    up to a whole mode and kept inside the bracket.  A law takes two or three
    probes.  Three probes in a row on one side double the depth, or halve the
    bracket, instead, so the search ends whatever the law.
    """
    tail = state.tail
    shallow, deep = state.num_modes - 1, None  # the answer lies in (shallow, deep]
    miss, run, side = 0.0, 0, None  # the model's last miss; probes in a row on one side, and that side
    while True:
        guess = math.ceil(_law_depth(tail, log_eps - miss) - 0.5)
        if deep is None:
            m = min(max(guess, shallow + 1, 2 * shallow if run > 2 else 0), MAX_MODES)
        else:
            m = (shallow + deep) // 2 if run > 2 else min(max(guess, shallow + 1), deep - 1)
        value = _tail_log_norm_beyond(state, m)
        small = value < log_eps
        run, side = (run + 1 if small == side else 1), small
        if small:
            deep, dropped = m, value
        else:
            shallow = m
        if deep == shallow + 1:
            return deep, dropped
        if shallow >= MAX_MODES:
            raise NotConvergedError(f"truncation scan passed {MAX_MODES} modes without meeting eps")
        miss = value - _law_log_norm(tail, m + 0.5)


def truncate_to_reversible(
    state: SpectralState, eps: float
) -> tuple[SpectralState, DensityCertificate]:
    """Smallest-tail truncation within ``eps``: find the first depth whose
    remaining tail norm drops below ``eps`` (:func:`_least_depth`), write the
    envelope out as explicit modes up to there, and drop the rest.

    The result has a zero tail (hence full backward reach) and differs from
    the input by exactly the dropped tail.  The call costs the depth search
    and the input's head: the written-out modes wait for the result's first
    read (see :func:`~retroflow.spectral.embed`), so a depth of 20M modes
    costs no memory until then.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not state.tail.coeff:  # nothing to drop: the search would stop at the state's own depth
        return _drop_tail(state, state.num_modes), DensityCertificate(eps, 0.0, 0, ())
    n_prime, dropped = _least_depth(state, math.log(eps))
    cert = DensityCertificate(eps, math.exp(dropped), n_prime - state.num_modes, ())
    return _drop_tail(state, n_prime), cert


PreimageOracle = Callable[[SpectralState, float], SpectralState]
_ORACLE_MARGIN = 0.5  # the share of a step's budget the truncation oracle truncates within

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


def truncation_preimage_oracle() -> PreimageOracle:
    """Unit-time approximate-preimage oracle for the spectral model: truncate
    within ``_ORACLE_MARGIN * eps`` (zero tail, unbounded backward reach), then
    step the truncation backward by one time unit."""

    def oracle(x: SpectralState, eps: float) -> SpectralState:
        y, _ = truncate_to_reversible(x, _ORACLE_MARGIN * eps)
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
    A ``max_iters`` past the last step whose budget is positive and finite
    (at most 1,074, where ``2**-(k+1)`` underflows) is refused before any step.
    Oracle outputs are refined to zero-tail states, hence the result is fully
    reversible.  An oracle output violating its accuracy budget raises
    ``OracleFailedError`` with the partial certificate attached; agreement at
    machine-level relative precision always counts as within budget, since
    deep iterates carry log magnitudes far beyond float range where absolute
    roundoff is unavoidable.  A flow rounds once from its lineage base (see
    ``SpectralState``), so where the oracle output is a backward flow of its
    target, as the truncation oracle's is from step 1 on, both gaps are
    exactly 0 and cost no arithmetic.  At step 0 the truncation oracle's
    output, stepped forward again, has the target's head and law written to
    a depth and dropped there, so its gap is the dropped tail's norm, one
    tail sum (see ``log_distance``).  Truncations and flows write their
    arrays on first read (flows below the ``2**968`` bound on ``|lambda_N|``
    times the lineage's time; eagerly past it), so the truncation oracle's
    iteration writes no array: the result's are written once, when the
    caller reads them.
    """
    if not 0.0 < eps0 < math.inf:
        raise ValueError(f"eps0 must be positive and finite, got {eps0!r}")
    if max_iters < 1:
        raise ValueError("at least one iteration is required")
    if regime not in ("linear", "nonexpansive"):
        raise ValueError("regime must be 'linear' or 'nonexpansive'")

    schedule = []  # eps_k; 2**-(k+1) is 0 from k = 1074 on, so no later budget is positive
    for k in range(min(max_iters, 1075)):
        try:
            eps_k = eps0 * math.exp(-bound.rate * (k + 1)) * 2.0 ** -(k + 1) / bound.factor
        except OverflowError:
            eps_k = math.inf
        schedule.append(eps_k)
        if not 0.0 < eps_k < math.inf:
            raise ValueError(f"max_iters {max_iters} passes step {k}, the last whose budget "
                             "eps0 exp(-rate k) 2**-k / factor is positive and finite")
    current = image = x0  # image: the current target's forward image at time k
    step_bounds: list[float] = []
    step_gaps: list[float] = []

    def certificate(steps: int, residual: float) -> DensityCertificate:
        return DensityCertificate(eps0, math.fsum(step_bounds) + residual, steps,
                                  tuple(schedule[:steps]), tuple(step_bounds), tuple(step_gaps),
                                  residual_bound=residual, regime=regime)

    for k, eps_k in enumerate(schedule):
        candidate = oracle(current, eps_k)
        if candidate.tail.coeff:
            candidate, _ = truncate_to_reversible(candidate, eps_k * 1e-6)
        unit_image = evolve(candidate, 1.0)
        gap = log_distance(unit_image, current)
        # an output of a new lineage is exact only to roundoff once iterates
        # leave float range; machine-level relative agreement counts as in budget
        if gap >= math.log(eps_k):
            deepest = abs(candidate.log_mags[candidate.signs != 0]).max(initial=0.0)
            allowance = max(_ROUNDOFF_FLOOR, _ROUNDOFF_ULPS * deepest)
            if gap >= log_norm(current) + math.log(allowance):
                raise OracleFailedError(
                    k,
                    f"unit-step image misses the target by exp({gap:.6g}) >= {eps_k:.6g}",
                    certificate(k, 0.0),
                )
        # Cauchy gap of consecutive forward images, bounded by the growth at
        # time k applied to the step-k oracle error.
        step_bound = bound.at(float(k)) * eps_k
        # at step 0 the target x0 is its own image, so the gap is the one above
        next_image = unit_image if k == 0 else evolve(candidate, float(k + 1))
        forward_gap = gap if k == 0 else log_distance(next_image, image)
        measured = math.exp(forward_gap)
        if measured > step_bound * (1.0 + 1e-9):
            raise OracleFailedError(
                k, f"forward-image gap {measured:.6g} exceeds its telescoping bound {step_bound:.6g}",
                certificate(k, 0.0),
            )
        step_bounds.append(step_bound)
        step_gaps.append(measured)
        current, image = candidate, next_image

    # the result is evolve(current, max_iters), from the last step
    return image, certificate(max_iters, eps0 * math.exp(-bound.rate) * 2.0 ** -max_iters)
