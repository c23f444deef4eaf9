"""Nilpotent right shift on piecewise-constant grid functions over (0, 1).

This is the standard witness for a flow whose ranges are *not* dense: the
range at time ``t`` is exactly the functions vanishing on ``(0, t)``, the
distance to that range is an orthogonal projection, and the unit-time map is
zero, so backward uniqueness fails and the fully reversible set collapses to
the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import count, real


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
        return float(_range_distances(self, self.resolution)[-1])

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    __hash__ = None

    def __reduce__(self):
        # a copy or a pickle is built again through the checks, so its values are read-only
        return GridFunction, (self.values,)


def constant_grid(value: float, resolution: int) -> GridFunction:
    return GridFunction(np.full(count(resolution, "resolution", 1), real(value, "value")))


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
    t = real(t, "t")
    if t < 0.0:
        raise ValueError("the shift flow is defined forward in time only")
    k = _cells(t, f.resolution)
    out = np.zeros_like(f.values)
    if k < f.resolution:
        out[k:] = f.values[: f.resolution - k]
    return GridFunction(out)


def _range_distances(f: GridFunction, k: int) -> np.ndarray:
    """Distances to the ranges at times ``1/R .. k/R``, nondecreasing: a running
    sum of squares never decreases in floats."""
    return np.sqrt(np.cumsum(np.square(f.values[:k])) / f.resolution)


def distance_to_range(f: GridFunction, t: float) -> float:
    """Distance from ``f`` to the time-``t`` range: the norm of ``f`` on
    ``(0, t)`` (orthogonal projection onto functions vanishing there)."""
    t = real(t, "t")
    if not 0.0 < t < 1.0:
        raise ValueError("t must be a grid-aligned time in (0, 1)")
    k = _cells(t, f.resolution)
    return float(_range_distances(f, k)[-1]) if k else 0.0


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
    """The first grid time whose range the ball ``B(f, radius)`` misses
    entirely, by one search over the running-sum distances; the infimum over
    such times is attained on the grid.

    Returns a no-witness report when the ball meets every range (for example
    when ``radius`` reaches the norm of ``f``, since zero lies in every
    range)."""
    if real(radius, "radius") <= 0.0:
        raise ValueError("radius must be positive")
    distances = _range_distances(f, f.resolution - 1)
    k = int(np.searchsorted(distances, radius, side="right")) + 1
    if k == f.resolution:
        return ExclusionReport(False, radius)
    before = float(distances[k - 2]) if k > 1 else 0.0
    return ExclusionReport(True, radius, k / f.resolution, float(distances[k - 1]), before)
