"""The extended space on which the semigroup becomes a group.

A point is an equivalence class of approximating trajectories; computably it
is a pair ``(offset, rep)``: the class flows forward into the ambient space
after ``offset`` time units, arriving at ``rep``.  Ambient states embed with
offset zero, and classes with positive canonical offset are exactly the
points living outside the ambient space.

The group action on these pairs is total: forward time first consumes the
offset and then damps the representative; backward time grows the offset (or
is absorbed into the representative's own backward horizon).  The generator's
map of a tail law is the heat law's, in :mod:`retroflow.spectral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotWithinBackwardReachError
from .reversibility import backward_evolve, horizon
from .spectral import (
    SpectralState,
    _generator_tail,
    add,
    evolve,
    exp_or_inf,
    log_norm,
    scale,
    subtract,
)

DEFAULT_EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class ExtendedState:
    """Equivalence class encoded as (offset into the past, ambient representative).

    The class enters the ambient space after ``offset`` forward time units,
    arriving at ``rep``.  The encoding is redundant: ``(offset, rep)`` and
    ``(offset - s, backward(rep, s))`` are the same class for any legal
    backward step ``s``, and all derived quantities (equality, norms, the
    pairing) are invariant under the choice.  The canonical encoding follows
    from the pair alone (see :func:`canonicalize`).  The representative is an
    ambient state, so its tail must decay.
    """

    offset: float
    rep: SpectralState

    def __post_init__(self):
        offset = float(self.offset)
        if not (offset >= 0.0 and math.isfinite(offset)):
            raise ValueError("offset must be finite and nonnegative")
        SpectralState._check_decay(self.rep.tail)
        object.__setattr__(self, "offset", offset)


def lift(state: SpectralState) -> ExtendedState:
    """Embed an ambient state as the class with offset zero."""
    return ExtendedState(0.0, state)


def canonicalize(state: ExtendedState) -> ExtendedState:
    """Absorb the offset into the representative where that is fully legal.

    Idempotent.  An open-endpoint horizon is a supremum, not a maximum: when
    the offset reaches it, no partial step is taken (stopping just short of
    the endpoint would manufacture a degenerate near-boundary representative,
    and every derived quantity is decomposition-invariant anyway).  The
    unattained entry infimum remains available via :func:`entry_infimum`.
    """
    if state.offset > 0.0 and horizon(state.rep).allows(state.offset):
        return ExtendedState(0.0, backward_evolve(state.rep, state.offset))
    return state


def entry_infimum(state: ExtendedState) -> float:
    """Infimum of backward depths at which the class enters the ambient
    space: the offset minus the representative's own backward reach.  For an
    open-endpoint horizon the infimum is not attained."""
    return max(0.0, state.offset - horizon(state.rep).value)


def group_evolve(state: ExtendedState, s: float) -> ExtendedState:
    """The group action, total for every finite real ``s``."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"time must be finite, got {s!r}")
    if s == 0.0:
        return state
    tau = state.offset
    if s < 0.0:
        return canonicalize(ExtendedState(tau - s, state.rep))
    if s >= tau:
        return ExtendedState(0.0, evolve(state.rep, s - tau))
    return ExtendedState(tau - s, state.rep)


def _at_common_offset(a: ExtendedState, b: ExtendedState):
    """The larger offset, and both representatives flowed forward to it."""
    if a.rep.spectrum != b.rep.spectrum:
        raise ValueError("classes live on different spectra")
    t_star = max(a.offset, b.offset)
    return t_star, evolve(a.rep, t_star - a.offset), evolve(b.rep, t_star - b.offset)


def states_equal(a: ExtendedState, b: ExtendedState, tol: float = DEFAULT_EQUALITY_TOL) -> bool:
    """Class equality: flow both representatives forward to the larger offset
    and compare there, relative to ``max(1, norms)``.

    Exact equality is ill-posed after forward evolution of nearly-cancelling
    modes, hence the caller-visible tolerance.
    """
    _, da, db = _at_common_offset(a, b)
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    gap = log_norm(subtract(da, db))
    if gap == -math.inf:
        return True
    scale_log = max(0.0, log_norm(da), log_norm(db))
    return gap < math.log(tol) + scale_log


def log_extended_norm(state: ExtendedState, t: float) -> float:
    """log of the backward-depth-``t`` norm: the ambient norm of the class's
    forward image at depth ``t``, ``canonicalize(group_evolve(state, t))``.
    Depths before the class's entry infimum, where that image keeps an
    offset, are outside every backward space and raise."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"backward depth must be nonnegative, got {t!r}")
    point = canonicalize(group_evolve(state, t))
    if point.offset:
        raise NotWithinBackwardReachError(t, entry_infimum(state))
    return log_norm(point.rep)


def extended_norm(state: ExtendedState, t: float) -> float:
    return exp_or_inf(log_extended_norm(state, t))


def add_extended(a: ExtendedState, b: ExtendedState) -> ExtendedState:
    """Linear structure: flow both to the common offset and add there."""
    t_star, da, db = _at_common_offset(a, b)
    return ExtendedState(t_star, add(da, db))


def scale_extended(a: ExtendedState, factor: float) -> ExtendedState:
    return ExtendedState(a.offset, scale(a.rep, factor))


def generator_action(state: SpectralState) -> SpectralState:
    """Diagonal generator on an ambient state: multiply mode ``n`` by
    ``lambda_n``.

    Power tails map exactly (power drops by 2 on the heat law); that requires
    power > 5/2, otherwise the image has no finite norm.  Exponential tails
    map to a dominating envelope at half rate, whose coefficient must stay
    inside float range (a ``ValueError`` names the rate otherwise).
    """
    eigs = state.spectrum.eigenvalues
    signs = -state.signs  # eigenvalues are negative
    logs = state.log_mags + np.log(-eigs)
    tail = _generator_tail(state.tail, state.num_modes + 1)
    return SpectralState._result(state.spectrum, signs, logs, tail)


def apply_generator(state: ExtendedState) -> ExtendedState:
    """Generator on a class: act on the representative, keep the offset."""
    return ExtendedState(state.offset, generator_action(state.rep))
