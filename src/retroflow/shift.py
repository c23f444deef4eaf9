"""Nilpotent right shift on piecewise-constant grid functions over (0, 1).

This is the standard witness for a flow whose ranges are *not* dense: the
range at time ``t`` is exactly the functions vanishing on ``(0, t)``, the
distance to that range is an orthogonal projection, and the unit-time map is
zero, so backward uniqueness fails and the fully reversible set collapses to
the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on a uniform grid over (0, 1)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def resolution(self) -> int:
        return int(self.values.size)

    def norm(self) -> float:
        return math.sqrt(float(np.sum(self.values**2)) / self.resolution)

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    __hash__ = None


def constant_grid(value: float, resolution: int) -> GridFunction:
    return GridFunction(np.full(resolution, float(value)))


def _cells(t: float, resolution: int) -> int:
    k = t * resolution
    rounded = round(k)
    if abs(k - rounded) > 1e-9 * max(1.0, abs(k)):
        raise ValueError(f"t = {t!r} is not aligned to the 1/{resolution} grid")
    return int(rounded)


def shift_evolve(f: GridFunction, t: float) -> GridFunction:
    """Right shift by ``t`` with zero fill; grid-aligned ``t >= 0`` only.

    Nilpotent: any ``t >= 1`` maps everything to zero.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("the shift flow is defined forward in time only")
    k = _cells(t, f.resolution)
    out = np.zeros_like(f.values)
    if k < f.resolution:
        out[k:] = f.values[: f.resolution - k]
    return GridFunction(out)


def distance_to_range(f: GridFunction, t: float) -> float:
    """Distance from ``f`` to the time-``t`` range: the norm of ``f`` on
    ``(0, t)`` (orthogonal projection onto functions vanishing there)."""
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError("t must be a grid-aligned time in (0, 1)")
    k = _cells(t, f.resolution)
    return math.sqrt(float(np.sum(f.values[:k] ** 2)) / f.resolution)


@dataclass(frozen=True)
class ExclusionReport:
    """Smallest grid time at which the ball around ``center`` misses the
    range, with the attainment check values on both sides."""

    found: bool
    radius: float
    onset: Optional[float] = None
    distance_at_onset: Optional[float] = None
    distance_before: Optional[float] = None


def exclusion_onset(f: GridFunction, radius: float) -> ExclusionReport:
    """Scan grid times for the first one whose range the ball ``B(f, radius)``
    misses entirely; the infimum over such times is attained on the grid.

    Returns a no-witness report when the ball meets every range (for example
    when ``radius`` reaches the norm of ``f``, since zero lies in every
    range)."""
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    resolution = f.resolution
    # One cumulative sum gives every distance at once, nondecreasing in t.  Any
    # order of summation errs by at most (k - 1) * 2**-53 relative, so these
    # distances and distance_to_range's pairwise ones differ by less than
    # margin: no time before the first one above radius * (1 - margin) can
    # pass.  The scan starts there and decides with distance_to_range.
    partial = np.square(f.values)
    np.cumsum(partial, out=partial)
    partial /= resolution
    np.sqrt(partial, out=partial)
    margin = (resolution + 8) * 2.0**-52
    first = int(np.searchsorted(partial, radius * (1.0 - margin), side="right")) + 1
    for k in range(first, resolution):
        t = k / resolution
        d = distance_to_range(f, t)
        if d > radius:
            before = distance_to_range(f, (k - 1) / resolution) if k > 1 else 0.0
            return ExclusionReport(True, radius, t, d, before)
    return ExclusionReport(False, radius)
