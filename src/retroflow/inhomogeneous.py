"""The affine flow driven by per-mode forcing, and its backward inversion.

The mild solution adds a forcing convolution to the damped initial state.
Constant and exponential forcings integrate in closed form; sampled tables
go through composite Simpson quadrature on nested grids, so each refinement
evaluates only its new midpoints and every node is evaluated once, and the
error estimate comes from the same pass as the value.  Nodes where the damping
kernel underflows to zero are not evaluated.  Forcing acts on explicit modes
only; tail forcing is out of scope.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .reversibility import backward_evolve
from .spectral import SpectralState, Spectrum, add, evolve, exp_or_inf, log_norm, subtract


@dataclass(frozen=True)
class ConstantForcing:
    value: float


@dataclass(frozen=True)
class ExponentialForcing:
    """``amplitude * exp(rate * s)``."""

    amplitude: float
    rate: float


@dataclass(frozen=True)
class TableForcing:
    """Sampled forcing with linear interpolation.

    The table must cover the full integration interval; smoothness between
    samples is the caller's responsibility.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).copy()
        values = np.asarray(self.values, dtype=float).copy()
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("table needs matching 1-d times and values, at least two samples")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("table times and values must be finite")
        if not np.all(np.diff(times) > 0):
            raise ValueError("table times must be strictly increasing")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, TableForcing):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(self.values, other.values)

    __hash__ = None


ModeForcing = Union[ConstantForcing, ExponentialForcing, TableForcing]


@dataclass(frozen=True)
class Forcing:
    """Forcing terms keyed by 1-based mode index; absent modes are unforced."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(sorted(self.entries, key=lambda kv: kv[0]))
        seen = set()
        for mode, f in entries:
            if mode < 1:
                raise ValueError("mode indices are 1-based")
            if mode in seen:
                raise ValueError(f"duplicate forcing for mode {mode}")
            seen.add(mode)
            if not isinstance(f, (ConstantForcing, ExponentialForcing, TableForcing)):
                raise ValueError(f"unknown forcing kind {type(f).__name__}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_dict(cls, modes: dict) -> "Forcing":
        return cls(tuple(modes.items()))

    def get(self, mode: int):
        for m, f in self.entries:
            if m == mode:
                return f
        return None

    def shifted(self, s: float) -> "Forcing":
        """The forcing seen from time ``s`` onward: ``f_s(u) = f(s + u)``."""
        out = []
        for mode, f in self.entries:
            if isinstance(f, ConstantForcing):
                out.append((mode, f))
            elif isinstance(f, ExponentialForcing):
                out.append((mode, ExponentialForcing(f.amplitude * math.exp(f.rate * s), f.rate)))
            else:
                times = f.times - s
                keep = times >= 0.0
                if not np.any(keep):
                    raise ValueError("shift leaves no table samples")
                new_times = times[keep]
                new_values = f.values[keep]
                if new_times[0] > 0.0:
                    v0 = float(np.interp(s, f.times, f.values))
                    new_times = np.concatenate(([0.0], new_times))
                    new_values = np.concatenate(([v0], new_values))
                out.append((mode, TableForcing(new_times, new_values)))
        return Forcing(tuple(out))


ZERO_FORCING = Forcing(())


MAX_STEPS = 1 << 20  # the finest coarse grid; its refinement evaluates 2 * MAX_STEPS + 1 nodes


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Simpson settings; ``adaptive`` doubles the step count until
    the Richardson estimate meets ``tol`` (relative) or the coarse grid
    reaches ``MAX_STEPS``."""

    steps: int = 64
    adaptive: bool = False
    tol: float = 1e-10

    def __post_init__(self):
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2 or self.steps % 2:
            raise ValueError("steps must be a positive even integer")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be at most {MAX_STEPS}")
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()


def simpson_integrate(fn, a: float, b: float, quad: QuadratureConfig) -> tuple[float, float]:
    """Composite Simpson with a Richardson error estimate ``|I_h - I_{h/2}|/15``.

    Nested grids: a refinement evaluates ``fn`` on its new midpoints only.
    Non-adaptive: the value at the requested step count, estimated against
    one refinement.  Adaptive: keep doubling until the estimate meets ``tol``.
    """
    steps = quad.steps
    y = fn(np.linspace(a, b, steps + 1))
    # strided sums, not a weight-vector dot product: the dot product goes to
    # BLAS, whose worker thread spins a second core without saving time
    ends, odd, even = y[0] + y[-1], np.sum(y[1:-1:2]), np.sum(y[2:-1:2])
    coarse = float((b - a) / steps / 3.0 * (ends + 4.0 * odd + 2.0 * even))
    while True:
        # the new midpoints, bit for bit the odd nodes of np.linspace(a, b, 2 * steps + 1)
        h = (b - a) / (2 * steps)
        even, odd = even + odd, np.sum(fn(np.arange(1, 2 * steps, 2) * h + a))
        fine = float(h / 3.0 * (ends + 4.0 * odd + 2.0 * even))
        estimate = abs(fine - coarse) / 15.0
        if not quad.adaptive:
            return coarse, estimate
        if estimate <= quad.tol * max(1.0, abs(fine)) or steps >= MAX_STEPS:
            return fine, estimate
        coarse, steps = fine, 2 * steps


def mode_response(lam: float, forcing: ModeForcing, t: float, quad: QuadratureConfig) -> tuple[float, float]:
    """The convolution of one mode's forcing with its damping kernel over
    ``[0, t]``; returns (value, error estimate).  Closed forms are exact."""
    if t == 0.0:
        return 0.0, 0.0
    if isinstance(forcing, ConstantForcing):
        # integral of value * exp(lam (t-s)) = value * expm1(lam t) / lam
        return forcing.value * math.expm1(lam * t) / lam, 0.0
    if isinstance(forcing, ExponentialForcing):
        mu = forcing.rate
        if abs(mu - lam) <= 1e-12 * max(1.0, abs(lam)):
            return forcing.amplitude * t * math.exp(lam * t), 0.0
        return (
            forcing.amplitude * (math.exp(mu * t) - math.exp(lam * t)) / (mu - lam),
            0.0,
        )
    if t > forcing.times[-1] + 1e-12 * max(1.0, abs(t)) or forcing.times[0] > 0.0:
        raise ValueError("table forcing must cover the whole interval [0, t]")

    def integrand(s):
        # exp(x) is exactly 0.0 for x < -745.14; s ascends, so the nonzero kernel is a suffix
        arg = lam * (t - s)
        live = np.searchsorted(arg, -746.0) if lam < 0.0 else 0
        tail = np.exp(arg[live:]) * np.interp(s[live:], forcing.times, forcing.values)
        return np.concatenate((np.zeros(live), tail))

    return simpson_integrate(integrand, 0.0, t, quad)


def forcing_integral(
    spectrum: Spectrum,
    forcing: Forcing,
    t: float,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    estimates: list | None = None,
) -> SpectralState:
    """The accumulated forcing state (the mild-solution convolution term);
    each forced mode's quadrature error estimate is appended to ``estimates``."""
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    values = np.zeros(spectrum.num_modes)
    for mode, f in forcing.entries:
        if mode > spectrum.num_modes:
            continue  # forcing past the truncation is out of scope
        lam = float(spectrum.eigenvalues[mode - 1])
        values[mode - 1], estimate = mode_response(lam, f, t, quad)
        if estimates is not None:
            estimates.append(estimate)
    return SpectralState.from_values(spectrum, values)


def duhamel_evolve(
    x0: SpectralState,
    forcing: Forcing,
    t: float,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    estimates: list | None = None,
) -> SpectralState:
    """Mild solution of the forced equation: damped initial state plus the
    forcing convolution.  The homogeneous part stays in the log domain; the
    forcing term is desk-scale and enters through sign-aware log addition;
    the drive is zero on unforced modes, which come out bit for bit.
    ``estimates`` is passed to :func:`forcing_integral`."""
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    hom = evolve(x0, t)
    if not forcing.entries:
        return hom
    return add(hom, forcing_integral(x0.spectrum, forcing, t, quad, estimates=estimates))


def affine_backward(
    x: SpectralState,
    forcing: Forcing,
    t: float,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> SpectralState:
    """Invert the affine flow: subtract the forcing convolution, then run the
    homogeneous flow backward.  Legal only when the translated state's
    horizon admits ``t``; the horizon error propagates from the backward step."""
    translated = subtract(x, forcing_integral(x.spectrum, forcing, float(t), quad))
    return backward_evolve(translated, float(t))


def log_affine_norm(
    x: SpectralState,
    forcing: Forcing,
    t: float,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """log of the affine backward-depth norm: the affine flow of ``x`` minus
    the forcing convolution, measured in the ambient norm.  The subtraction
    cancels the forcing exactly, so this equals the homogeneous backward-depth
    norm while exercising the affine identity."""
    drive = forcing_integral(x.spectrum, forcing, t, quad)
    return log_norm(subtract(add(evolve(x, t), drive), drive))


def affine_norm(
    x: SpectralState,
    forcing: Forcing,
    t: float,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    return exp_or_inf(log_affine_norm(x, forcing, t, quad))
