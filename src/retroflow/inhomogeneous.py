"""The affine flow driven by per-mode forcing, and its backward inversion.

The mild solution adds a forcing convolution to the damped initial state.
Constant and exponential forcings integrate in closed form; sampled tables
go through composite Simpson quadrature on nested grids, with the error
estimate from the same pass as the value.  The integrand is the damping
kernel times a piecewise-linear interpolant, so a level's nodes on one table
segment sum in closed form (a geometric sum and its first moment, walked
from an anchor node where the interpolant is its segment's line): a level
costs O(table segments), not O(nodes).  The first moment takes the phi'
Taylor series only where a pair of nodes has ``m r >= -1``, and a closed
form elsewhere.  All table modes of a forcing go through one kernel call,
which sums every level of every mode in passes of at most ``_CELLS`` (knot,
progression) cells; each mode's sums then go through the rule and its stop
test on their own, so each value is bit for bit the mode's alone.  Forcing
acts on explicit modes only; tail forcing is out of scope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import MAX_STEPS, count, real
from .reversibility import backward_evolve
from .spectral import SpectralState, Spectrum, add, evolve, exp_or_inf, log_norm, subtract


def _refuse_non_finite(forcing):
    """A closed-form forcing's every field, kept as a finite float; the first that is not is named."""
    for field in fields(forcing):
        value = real(getattr(forcing, field.name), f"{type(forcing).__name__} {field.name}")
        object.__setattr__(forcing, field.name, value)


@dataclass(frozen=True)
class ConstantForcing:
    value: float
    __post_init__ = _refuse_non_finite


@dataclass(frozen=True)
class ExponentialForcing:
    """``amplitude * exp(rate * s)``."""

    amplitude: float
    rate: float
    __post_init__ = _refuse_non_finite


@dataclass(frozen=True)
class TableForcing:
    """Sampled forcing with linear interpolation.

    The table must cover the full integration interval; smoothness between
    samples is the caller's responsibility.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("table needs matching 1-d times and values, at least two samples")
        # segment k runs from times[k] to the next knot on np.interp's line
        # through (times[k], values[k]); the last runs on to infinity, where
        # np.interp clamps to the last sample.  The block's columns are the
        # segments and one past the end, its rows each segment's bottom knot,
        # top knot, slope, left time and left value; the last two rows are the
        # table's times and values
        n = times.size
        block = np.empty((5, n + 1))
        block[3, :n], block[4, :n] = times, values
        times, values = block[3, :n], block[4, :n]
        block[0, 0], block[0, 1:n], block[0, n] = -math.inf, times[1:], math.inf
        block[1, :n], block[1, n] = block[0, 1:], math.inf
        block[2, n - 1:], block[3:, n] = 0.0, (times[-1], values[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = times[1:] - times[:-1]
            np.divide(values[1:] - values[:-1], gaps, out=block[2, :n - 1])
        first, last = float(times[0]), float(times[-1])
        # gaps that are positive between finite ends with a finite difference
        # are finite, and finite slopes from a finite first value keep every
        # value finite
        if not (gaps.min() > 0.0 and math.isfinite(last - first) and math.isfinite(values[0])
                and np.isfinite(block[2]).all()):
            _refuse(times, values, block[2])
        block.flags.writeable = times.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "_first", first)
        object.__setattr__(self, "_last", last)

    def __eq__(self, other):
        if not isinstance(other, TableForcing):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(self.values, other.values)

    __hash__ = None

    def __reduce__(self):
        # a copy or a pickle is built again from the samples, so its times and
        # values are read-only views of the block its kernel reads
        return TableForcing, (self.times, self.values)


def _refuse(times: np.ndarray, values: np.ndarray, slopes: np.ndarray):
    """Raise the ``ValueError`` that names what is wrong with a table that
    fails :class:`TableForcing`'s checks: a non-finite sample wherever it
    sits, then the order, then a span past float range, then a slope."""
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        raise ValueError("table times and values must be finite")
    if not (times[1:] > times[:-1]).all():
        raise ValueError("table times must be strictly increasing")
    first, last = times[[0, -1]].tolist()
    if not math.isfinite(last - first):
        raise ValueError(f"table times from {first!r} to {last!r} span more than float range")
    k = int(np.argmin(np.isfinite(slopes)))
    (t0, t1), (v0, v1) = times[k:k + 2].tolist(), values[k:k + 2].tolist()
    raise ValueError(f"table slope from ({t0!r}, {v0!r}) to ({t1!r}, {v1!r}) overflows")


ModeForcing = Union[ConstantForcing, ExponentialForcing, TableForcing]


@dataclass(frozen=True)
class Forcing:
    """Forcing terms keyed by 1-based mode index; absent modes are unforced."""

    entries: tuple

    def __post_init__(self):
        seen = {}
        for mode, f in self.entries:
            mode = count(mode, "mode indices", 1, rule="integers from 1")
            if mode in seen:
                raise ValueError(f"duplicate forcing for mode {mode}")
            if not isinstance(f, (ConstantForcing, ExponentialForcing, TableForcing)):
                raise ValueError(f"unknown forcing kind {type(f).__name__}")
            seen[mode] = f
        object.__setattr__(self, "entries", tuple(sorted(seen.items())))

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
                # an amplitude past float range is refused by the constructor; zero stays zero
                scale = exp_or_inf(f.rate * s) if f.amplitude else 1.0
                out.append((mode, ExponentialForcing(f.amplitude * scale, f.rate)))
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


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Simpson settings; ``adaptive`` doubles the step count until
    the Richardson estimate meets ``tol`` (relative) or the coarse grid
    reaches ``MAX_STEPS``."""

    steps: int = 64
    adaptive: bool = False
    tol: float = 1e-10

    def __post_init__(self):
        if count(self.steps, "steps", 2, MAX_STEPS, "at most {high} and a positive even integer") % 2:
            raise ValueError("steps must be a positive even integer")
        if real(self.tol, "tolerance") <= 0.0:
            raise ValueError("tolerance must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()


@functools.lru_cache(maxsize=64)
def _ladder(steps: int, adaptive: bool) -> np.ndarray:
    """The progressions whose sums :func:`simpson_integrate` reads: the ends,
    the first grid's even nodes, then each grid's midpoints.  Its rows are
    ``steps``, ``first``, ``count`` and ``stride``, one column per arithmetic
    progression of grid nodes ``a + i (b - a) / steps``, ``i = first + stride
    j`` for ``j < count``."""
    # an adaptive run's coarse grids are steps << j up to the first >= MAX_STEPS
    deepest = (-(-MAX_STEPS // steps) - 1).bit_length() + 1 if adaptive else 1
    grids = [steps << j for j in range(deepest + 1)]
    progressions = np.array([[steps, steps, *grids],
                             [0, 2] + [1] * len(grids),
                             [2, steps // 2 - 1, *(n // 2 for n in grids)],
                             [steps, 2] + [2] * len(grids)], dtype=float)
    progressions.flags.writeable = False
    return progressions


def simpson_integrate(sums, a: float, b: float, quad: QuadratureConfig) -> tuple[float, float]:
    """Composite Simpson with a Richardson error estimate ``|I_h - I_{h/2}|/15``.

    ``sums`` is a sequence: the integrand summed over each progression of
    ``_ladder(quad.steps, quad.adaptive)``, in its order.  The grids are
    nested, so the rule needs only the two ends, the first grid's even nodes
    and each level's new midpoints.  Non-adaptive: the value at the
    requested step count, estimated against one refinement.  Adaptive: keep
    doubling until the estimate meets ``tol`` or the coarse grid reaches
    ``MAX_STEPS``.
    """
    steps = quad.steps
    ends, even, odd = sums[0], sums[1], sums[2:]
    coarse = (b - a) / steps / 3.0 * (ends + 4.0 * odd[0] + 2.0 * even)
    for level in range(1, len(odd)):
        h = (b - a) / (2 * steps)
        even += odd[level - 1]
        fine = h / 3.0 * (ends + 4.0 * odd[level] + 2.0 * even)
        estimate = abs(fine - coarse) / 15.0
        if not quad.adaptive:
            return coarse, estimate
        if estimate <= quad.tol * max(1.0, abs(fine)) or steps >= MAX_STEPS:
            break
        coarse, steps = fine, 2 * steps
    return fine, estimate


# Taylor coefficients of phi'(x), phi(x) = expm1(x) / x, through x^17: on
# [-1, 0] the terms fall and alternate, and the first one left out is below
# 2^-55 of the sum, which is at least 1 - 2/e there
_SLOPE_TAYLOR = np.array([(j + 1) / math.factorial(j + 2) for j in range(18)])
# (knot, progression) cells per kernel pass; they bound every array a pass
# builds: it sums fewer pairs than cells, and their phi' series, the largest
# array where a pair needs it, takes 2 * 18 doubles a pair, 2.4 MB at most
_CELLS = 1 << 13


def _level_sums(lams, tables, t: float, progressions: np.ndarray) -> np.ndarray:
    """The level sums of a batch of table modes, shape (modes, progressions):
    mode ``i`` sums ``exp(lams[i] (t - s)) f_i(s)``, ``f_i`` the interpolant
    of ``tables[i]``, over each progression of nodes ``s = i t / steps``.

    Each table is cut into pieces of ``_CELLS // progressions - 1`` segments
    from its first live one, and the pieces are packed, in table order, into
    passes of at most ``_CELLS`` (knot, progression) cells.  Each piece's
    sums are added to its mode's in table order, so a mode's sums are bit
    for bit the same alone or in any batch.
    """
    room = _CELLS // progressions.shape[1]  # knots per pass
    passes, used = [[]], 0
    for i, (lam, table) in enumerate(zip(lams, tables)):
        # a segment whose top knot sees the kernel below e^-750 holds only
        # nodes where exp gives exactly 0, so leaving it out changes no bit;
        # there is none on [0, t] unless lam t < -750
        live = max(int(table.times.searchsorted(t + 750.0 / lam)) - 1, 0) if lam * t < -750.0 else 0
        for lo in range(live, table.times.size, room - 1):  # the last segment runs on to infinity
            hi = min(lo + room - 1, table.times.size)
            if used + hi - lo + 1 > room:
                passes.append([])
                used = 0
            passes[-1].append((i, lo, hi))
            used += hi - lo + 1
    if len(passes) == 1 and len(passes[0]) == len(tables):
        # one piece a table, in table order: the pass's rows are the sums, as
        # np.add.at would leave them, since np.bincount adds into zeros too
        return _pass_sums(lams, tables, t, progressions, passes[0])
    totals = np.zeros((len(tables), progressions.shape[1]))
    for pieces in passes:
        np.add.at(totals, [i for i, _, _ in pieces], _pass_sums(lams, tables, t, progressions, pieces))
    return totals


def _pass_sums(lams, tables, t: float, progressions: np.ndarray, pieces: list) -> np.ndarray:
    """One kernel pass: the sums over each piece ``(i, lo, hi)``, segments
    ``lo`` to ``hi - 1`` of mode ``i``'s table, shape (pieces, progressions).

    A progression's nodes on one table segment, a (progression, segment)
    pair, are summed in closed form by :func:`_pair_sums`; the knots of
    every piece are located on one grid and only pairs that hold a node are
    summed, so past locating the knots the work is O(min(segments, nodes)).
    """
    steps, first, count, stride = progressions
    # the pieces' segment columns side by side, piece after piece
    block = np.concatenate([tables[i]._block[:, lo:hi + 1] for i, lo, hi in pieces], axis=1)
    # the knots in units of t, clipped where they lie past every node anyway,
    # so that a tiny t cannot overflow them
    knots = np.minimum(np.maximum(block[0], -t), 2.0 * t) / t
    # each segment's progression indices [c_k, c_{k+1}), on a (knot,
    # progression) grid: a positive cell of m is a pair, its node count
    c = knots[:, None] * (steps / stride)
    c -= first / stride
    np.ceil(c, out=c)
    np.maximum(c, 0.0, out=c)
    np.minimum(c, count, out=c)
    m = c[1:] - c[:-1]
    starts = [0]  # each piece's first knot
    for _, lo, hi in pieces:
        starts.append(starts[-1] + hi - lo + 1)
    starts = np.array(starts)
    m[starts[1:-1] - 1] = 0.0  # from one piece's top knot to the next one's bottom knot is no segment
    held = (m > 0.0).reshape(-1).nonzero()[0]
    seg, col = np.divmod(held, steps.size)
    # each pair's piece, and so its (piece, progression) cell and rate
    piece = starts.searchsorted(seg, side="right") - 1
    cells = piece * steps.size + col
    rates = np.array([lams[i] for i, _, _ in pieces])
    # the kernel's ratio r = -|lam| d between a pair's neighbouring nodes, d =
    # stride h, is one number per cell; |r| below 2^-900 (lam = 0, say) is
    # taken as 2^-900, where the formulas give G0 = m and G1 = m (m - 1) / 2
    # exactly, as they are to double precision
    r = np.minimum(np.multiply.outer(-abs(rates), stride * (t / steps)), -2.0 ** -900)
    lam = rates[piece]
    down = lam <= 0.0
    # the anchor is the top node where lam <= 0, else the bottom one; c
    # holds a pair's bottom at its place in m, and its top a knot on
    anchor = c.reshape(-1)[held + steps.size * down] - down
    n, first, _, stride = progressions.take(col, axis=1)
    node = anchor * stride + first
    h = t / n
    # the interpolant at the anchor s is its segment's line slope_k (s - t_k)
    # + v_k, np.interp's own formula; where the grid and np.interp's search put
    # s on two sides of a knot (s within rounding of a knot on a grid of a t
    # that is not dyadic, say), np.interp decides
    top, slope, left, f = block[1:].take(seg, axis=1)
    s = node * h
    along = s - left
    astray = along < 0.0
    astray |= s >= top
    along *= slope
    f += along
    for a in astray.nonzero()[0].tolist():
        table = tables[pieces[piece[a]][0]]
        f[a] = np.interp(s[a], table.times, table.values)
    sums = _pair_sums(lam, down, h, n, stride, m.reshape(-1)[held], node, slope, f,
                      r.reshape(-1), cells)
    return np.bincount(cells, weights=sums, minlength=len(pieces) * steps.size).reshape(len(pieces), -1)


def _phi_slope(z: np.ndarray) -> np.ndarray:
    """phi' at ``max(z, -1)`` from its Taylor series."""
    # the powers double blockwise
    powers = np.empty((_SLOPE_TAYLOR.size, z.size))
    powers[0] = 1.0
    np.maximum(z, -1.0, out=powers[1])
    square = powers[1] * powers[1]
    np.multiply(powers[:2], square, out=powers[2:4])
    square *= square
    np.multiply(powers[:4], square, out=powers[4:8])
    square *= square
    np.multiply(powers[:8], square, out=powers[8:16])
    square *= square
    np.multiply(powers[:2], square, out=powers[16:])
    return np.einsum("j,jn->n", _SLOPE_TAYLOR, powers)


def _pair_sums(lam, down, h, n, stride, m, node, slope, f, r, cells):
    """Per pair, the ``m`` nodes of a progression of stride ``stride`` on one
    table segment of slope ``slope``, summed in closed form; ``lam`` is the
    pair's rate, ``down`` whether it is at most 0, ``h`` the step of its grid
    of ``n`` intervals, ``node`` the grid index of the node of largest kernel,
    the top one for lam <= 0 and the bottom one for lam > 0, and ``f`` the
    interpolant there.  ``r``, defined below, is given per (piece,
    progression) cell, and ``cells`` is each pair's cell: what depends on
    ``r`` alone is computed once a cell.

    On the segment ``f`` is linear and the kernel geometric, so walking from
    the anchor the sum is ``E (f_a G0 -+ slope d G1)``: ``E`` and ``f_a`` are the
    kernel and ``f`` at the anchor, ``d`` the node spacing, and ``G0``, ``G1``
    the sums of ``e^{rk}`` and ``k e^{rk}`` over ``k < m``, ``r = -|lam| d``
    (Hochbruck & Ostermann, "Exponential integrators", Acta Numerica 19,
    2010, for the phi-functions).  ``G0 = expm1(m r) / expm1(r)``.  ``G1`` is
    ``(m^2 phi'(m r) - G0 phi'(r)) r / expm1(r)``, ``phi(x) = expm1(x) / x``,
    where ``m r >= -1``, and ``(e^r G0 - m e^{m r}) / -expm1(r)`` below; each
    difference cancels at most 4.1-fold where it is used, and both give
    exactly +0.0 at ``m = 1``.  So the phi' series runs only when a pair of
    ``m >= 2`` has ``m r >= -1``; otherwise every pair takes the second form.
    """
    kernel = n - node
    kernel *= lam * h
    np.exp(kernel, out=kernel)
    em1_r = np.expm1(r)[cells]
    z = r[cells]
    z *= m
    g0 = np.expm1(z)
    g0 /= em1_r
    hot = z >= -1.0
    series = hot.any() and (m[hot] > 1.0).any()  # a pair of m >= 2 has m r >= -1
    if series:
        # one series call, never of one element, where einsum sums in another order
        phi_slope = _phi_slope(np.concatenate((z, r)))  # phi'(m r) per pair, phi'(r) per cell
        g1 = m * m * phi_slope[:m.size]
        g1 -= g0 * phi_slope[m.size:][cells]
        g1 *= r[cells] / em1_r
    if not series or z.min(initial=0.0) < -1.0:
        # not expm1 + 1, which loses e^r's last digits for r << 0
        below = (np.exp(r)[cells] * g0 - m * np.exp(z)) / -em1_r
        # the first form takes m = 1 too, whatever r
        g1 = np.where(z >= np.minimum(r, -1.0)[cells], g1, below) if series else below
    g1 *= slope
    g1 *= stride * h
    np.negative(g1, out=g1, where=down)
    g0 *= f
    g0 += g1
    g0 *= kernel
    return g0


def _table_responses(lams, tables, t: float, quad: QuadratureConfig) -> list:
    """Every table mode's convolution over [0, t], t > 0, as (value,
    estimate): one kernel call sums every mode's levels, and each mode's row
    goes through the rule."""
    for table in tables:
        if t > table._last + 1e-12 * max(1.0, abs(t)) or table._first > 0.0:
            raise ValueError("table forcing must cover the whole interval [0, t]")
    sums = _level_sums(lams, tables, t, _ladder(quad.steps, quad.adaptive))
    return [simpson_integrate(row, 0.0, t, quad) for row in sums.tolist()]


def _checked_time(t: float) -> float:
    t = real(t, "t", "finite and nonnegative")
    if t < 0.0:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    return t


def mode_response(lam: float, forcing: ModeForcing, t: float, quad: QuadratureConfig) -> tuple[float, float]:
    """The convolution of one mode's forcing with its damping kernel over
    ``[0, t]``, ``t`` finite and nonnegative; returns (value, error estimate).
    Closed forms are exact; a table is the one-mode case of
    :func:`forcing_integral`'s kernel call, whose level sums are closed forms
    per table segment, so a level costs O(segments) whatever its node count."""
    t = _checked_time(t)
    if t == 0.0:
        return 0.0, 0.0
    if not isinstance(forcing, TableForcing):
        # a (e^{mu t} - e^{lam t}) / (mu - lam) as the larger exponential times a
        # difference that expm1 keeps exact near mu = lam; a constant has mu = 0
        a, mu = ((forcing.value, 0.0) if isinstance(forcing, ConstantForcing)
                 else (forcing.amplitude, forcing.rate))
        gap = abs(mu - lam)
        if gap == 0.0:
            return a * t * math.exp(lam * t), 0.0
        return a * exp_or_inf(max(mu, lam) * t) * -math.expm1(-gap * t) / gap, 0.0
    return _table_responses((lam,), (forcing,), t, quad)[0]


def forcing_integral(
    spectrum: Spectrum,
    forcing: Forcing,
    t: float,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    estimates: list | None = None,
) -> SpectralState:
    """The accumulated forcing state (the mild-solution convolution term);
    each forced mode's quadrature error estimate is appended to ``estimates``,
    in mode order.  Every table mode goes through one kernel call; each
    value is bit for bit its :func:`mode_response`."""
    t = _checked_time(t)
    values = np.zeros(spectrum.num_modes)
    errors = []  # per forced mode in order; a table's comes from the pass
    tabled = []  # (place in errors, mode, lam, table)
    for mode, f in forcing.entries:
        if mode > spectrum.num_modes:
            continue  # forcing past the truncation is out of scope
        lam = spectrum.eigenvalue(mode)
        if isinstance(f, TableForcing) and t > 0.0:
            tabled.append((len(errors), mode, lam, f))
            errors.append(0.0)
        else:
            values[mode - 1], estimate = mode_response(lam, f, t, quad)
            errors.append(estimate)
    if tabled:
        places, modes, lams, tables = zip(*tabled)
        for place, mode, (value, e) in zip(places, modes, _table_responses(lams, tables, t, quad)):
            values[mode - 1], errors[place] = value, e
    if estimates is not None:
        estimates.extend(errors)
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
    t = _checked_time(t)
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
    translated = subtract(x, forcing_integral(x.spectrum, forcing, t, quad))
    return backward_evolve(translated, t)


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
