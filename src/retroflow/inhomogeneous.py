"""The affine flow driven by per-mode forcing, and its backward inversion.

The mild solution adds a forcing convolution to the damped initial state.
Constant and exponential forcings integrate in closed form; sampled tables
go through composite Simpson quadrature on nested grids, with the error
estimate from the same pass as the value.  The integrand is the damping
kernel times a piecewise-linear interpolant, so a level's nodes on one table
segment sum in closed form (a geometric sum and its first moment): a level
costs O(table segments), not O(nodes).  All table modes of a forcing share
one kernel pass, which sums every mode's levels at once; each mode's sums
then go through the rule and its stop test on their own, so each value is
bit for bit the mode's alone.  Forcing acts on explicit modes only; tail
forcing is out of scope.
"""

from __future__ import annotations

import functools
import itertools
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
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("table needs matching 1-d times and values, at least two samples")
        gaps = np.diff(times)
        rising = (gaps > 0.0).all()
        # times that rise strictly between finite ends are finite throughout
        if not (np.isfinite(values).all() and (math.isfinite(times[0]) and math.isfinite(times[-1])
                                               if rising else np.isfinite(times).all())):
            raise ValueError("table times and values must be finite")
        if not rising:
            raise ValueError("table times must be strictly increasing")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        # segment k runs from times[k] to the next knot with np.interp's slope;
        # the last runs on to infinity, where np.interp clamps to the last sample
        slopes = np.zeros(values.size + 1)  # and a zero past the end
        np.divide(np.diff(values), gaps, out=slopes[:-2])
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_bounds", np.concatenate(([-math.inf], times[1:], [math.inf])))

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


MAX_STEPS = 1 << 20  # the finest coarse grid; its refinement has 2 * MAX_STEPS + 1 nodes


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


@functools.lru_cache(maxsize=64)
def _ladder(steps: int, adaptive: bool) -> np.ndarray:
    """The progressions :func:`simpson_integrate` asks for: the ends, the
    first grid's even nodes, then each grid's midpoints."""
    # an adaptive run's coarse grids are steps << j up to the first >= MAX_STEPS
    deepest = (-(-MAX_STEPS // steps) - 1).bit_length() + 1 if adaptive else 1
    grids = [steps << j for j in range(deepest + 1)]
    progressions = np.array([[steps, steps, *grids],
                             [0, 2] + [1] * len(grids),
                             [2, steps // 2 - 1, *(n // 2 for n in grids)],
                             [steps, 2] + [2] * len(grids)], dtype=float)
    progressions.flags.writeable = False
    return progressions


def simpson_integrate(node_sums, a: float, b: float, quad: QuadratureConfig) -> tuple[float, float]:
    """Composite Simpson with a Richardson error estimate ``|I_h - I_{h/2}|/15``.

    ``node_sums(progressions)`` gets a float array whose rows are ``steps``,
    ``first``, ``count`` and ``stride``, one column per arithmetic progression
    of grid nodes ``a + i (b - a) / steps``, ``i = first + stride j`` for
    ``j < count``, and returns the integrand summed over each.  The grids are
    nested, so the rule needs only the two ends, the first grid's even nodes
    and each level's new midpoints, and asks for all of them at once.
    ``node_sums`` may answer for the leading progressions only, the first
    four at least; the rule asks again for the rest when it needs them.
    Non-adaptive: the value at the requested step count, estimated against
    one refinement.  Adaptive: keep doubling until the estimate meets ``tol``
    or the coarse grid reaches ``MAX_STEPS``.
    """
    steps = quad.steps
    progressions = _ladder(steps, quad.adaptive)
    sums = node_sums(progressions).tolist()
    ends, even, odd = sums[0], sums[1], sums[2:]
    coarse = (b - a) / steps / 3.0 * (ends + 4.0 * odd[0] + 2.0 * even)
    for level in range(1, progressions.shape[1] - 2):
        if level == len(odd):
            odd += node_sums(progressions[:, level + 2:]).tolist()
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
# (knot, progression) cells located per pass; pairs per mode in one round of
# levels, and per batch of the phi' series; table segments per block, so that
# a large table's sums add in an order fixed by the table alone
_CELLS, _PAIRS, _BLOCK = 1 << 15, 1 << 12, 1 << 12


class _TableSums:
    """The level sums of a batch of table modes, for :func:`simpson_integrate`:
    mode ``i`` sums ``exp(lams[i] (t - s)) f_i(s)``, ``f_i`` the interpolant
    of ``tables[i]``, over each progression of nodes ``s = i t / steps``.

    A progression's nodes on one table segment, a (mode, progression,
    segment) triple, are summed in closed form by :func:`_pair_sums`; the
    knots of every mode are located on one grid and only triples that hold a
    node are summed, so past locating the knots the work is
    O(min(segments, nodes)).  The opening pass sums every mode's levels at
    once, for the ladder of :func:`_ladder`; :meth:`row` is mode ``i``'s
    ``node_sums``, which answers the rule's first call, with that same
    ladder, from the opening pass.  A pass answers for the
    leading progressions that fit in ``_PAIRS`` pairs per mode: a large
    adaptive table is summed a few levels at a time, and stops when its rule
    does.  Tables past ``_BLOCK`` segments go in blocks of segments.
    """

    def __init__(self, lams, tables, t: float, progressions: np.ndarray):
        self.lams, self.tables, self.t = lams, tables, t
        self.sizes = [table.times.size for table in tables]  # the last segment runs on to infinity
        # a segment whose top knot sees the kernel below e^-750 holds only nodes
        # where exp gives exactly 0, so leaving it out changes no bit; there is
        # none on [0, t] unless lam t < -750
        self.live = [max(int(table.times.searchsorted(t + 750.0 / lam)) - 1, 0) if lam * t < -750.0 else 0
                     for lam, table in zip(lams, tables)]
        self.ladder = progressions
        self.opening = self.sums(progressions, range(len(tables)), 4)  # the rule's first level needs four

    def row(self, i: int, progressions: np.ndarray) -> np.ndarray:
        """Mode ``i``'s ``node_sums``: its row of the opening pass for the
        ladder, its own pass for the levels past what that answered."""
        if progressions is self.ladder:
            return self.opening[i]
        return self.sums(progressions, [i], 1)[0]

    def sums(self, progressions: np.ndarray, rows, least: int) -> np.ndarray:
        """The sums of ``rows`` over the leading progressions that fit in
        ``_PAIRS`` pairs per mode, ``least`` at least; shape (rows, taken)."""
        cost = max([self.sizes[i] - self.live[i] for i in rows])  # live segments: pairs per progression
        taken = progressions.shape[1]
        if cost * taken > _PAIRS:
            pairs = itertools.accumulate(min(count, cost) for count in progressions[2].tolist())
            taken = max(min(least, taken), sum(1 for total in pairs if total <= _PAIRS))
            progressions = progressions[:, :taken]
        top = max([self.sizes[i] for i in rows])
        if top <= _BLOCK and len(rows) * taken * (top + 1) <= _CELLS:
            return self._block(rows, 0, top, progressions)  # the whole batch in one pass
        totals = np.zeros((len(rows), taken))
        for lo in range(min(self.live[i] for i in rows) // _BLOCK * _BLOCK, top, _BLOCK):
            members = [j for j, i in enumerate(rows) if self.live[i] < lo + _BLOCK and self.sizes[i] > lo]
            if not members:
                continue  # past the short tables, before the long ones' live segments
            width = min(_BLOCK, max(self.sizes[rows[j]] for j in members) - lo)
            per = max(1, _CELLS // (taken * (width + 1)))
            for g in range(0, len(members), per):
                group = members[g:g + per]
                totals[group] += self._block([rows[j] for j in group], lo, width, progressions)
        return totals

    def _block(self, modes, lo, width, progressions):
        """Sums over segments ``lo`` to ``lo + width`` of ``modes``, shape (modes, progressions)."""
        t = self.t
        steps, first, count, stride = progressions
        tables = [self.tables[i] for i in modes]
        # the modes' knots in one column, mode after mode, in units of t and
        # clipped where they lie past every node anyway, so that a tiny t
        # cannot overflow them; knots below a mode's live segment are raised
        # to its lower knot, so that they hold no node
        knots = [table._bounds[lo:lo + width + 1] for table in tables]
        starts = [0, *itertools.accumulate(part.size for part in knots)]
        slopes = _joined([table._slopes[lo:lo + part.size] for table, part in zip(tables, knots)])
        knots = np.minimum(np.maximum(_joined(knots), -t), 2.0 * t) / t
        for i, start in zip(modes, starts):
            if self.live[i] > lo:
                knots[start:start + self.live[i] - lo] = knots[start + self.live[i] - lo]
        # each segment's progression indices [c_k, c_{k+1}), on a (knot,
        # progression) grid: a positive cell of m is a triple, its node
        # count.  Between two modes +inf meets -inf, which gives no positive cell.
        c = knots[:, None] * (steps / stride)
        c -= first / stride
        np.ceil(c, out=c)
        np.maximum(c, 0.0, out=c)
        np.minimum(c, count, out=c)
        m = c[1:] - c[:-1]
        held = (m > 0.0).reshape(-1).nonzero()[0]
        seg, col = np.divmod(held, steps.size)
        # each mode's triples, in order, and each triple's (mode, progression)
        # cell and rate; one mode's rate stays a scalar, which keeps a one-table
        # call (mode_response) about 12 % faster than per-triple arrays
        lam = [self.lams[i] for i in modes]
        if len(modes) == 1:
            ends, cell, lam = [0, seg.size], col, lam[0]
        else:
            ends = seg.searchsorted(starts).tolist()
            mode = np.repeat(np.arange(len(modes)), [b - a for a, b in zip(ends, ends[1:])])
            cell, lam = mode * steps.size + col, np.array(lam)[mode]
        down = lam <= 0.0
        # the anchor is the top node where lam <= 0, else the bottom one; c
        # holds a triple's bottom at its place in m, and its top a knot on
        anchor = c.reshape(-1)[held + steps.size * down] - down
        n, first, _, stride = progressions[:, col]
        node = anchor * stride
        node += first
        h = t / n
        # the interpolant at the anchors, mode by mode, on the block's knots
        # and one more each side: np.interp there is np.interp on the whole table
        window = slice(max(lo - 1, 0), lo + width + 2)
        place = node * h
        f = _joined([np.interp(place[ends[j]:ends[j + 1]], table.times[window], table.values[window])
                     for j, table in enumerate(tables)])
        sums = _pair_sums(lam, down, h, n, stride, m.reshape(-1)[held], node, slopes[seg], f)
        return np.bincount(cell, weights=sums, minlength=len(modes) * steps.size).reshape(len(modes), steps.size)


def _joined(parts: list) -> np.ndarray:
    """``np.concatenate(parts)``, or the one part itself."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _phi_slope(z: np.ndarray) -> np.ndarray:
    """phi' at ``max(z, -1)`` from its Taylor series, in batches of ``2 _PAIRS``."""
    if z.size > 2 * _PAIRS:
        return np.concatenate([_phi_slope(z[lo:lo + 2 * _PAIRS]) for lo in range(0, z.size, 2 * _PAIRS)])
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


def _pair_sums(lam, down, h, n, stride, m, node, slope, f):
    """Per pair, the ``m`` nodes of a progression of stride ``stride`` on one
    table segment of slope ``slope``, summed in closed form; ``lam`` is the
    pair's rate, ``down`` whether it is at most 0, ``h`` the step of its grid
    of ``n`` intervals, ``node`` the grid index of the node of largest kernel,
    the top one for lam <= 0 and the bottom one for lam > 0, and ``f`` the
    interpolant there.

    On the segment ``f`` is linear and the kernel geometric, so walking from
    the anchor the sum is ``E (f_a G0 -+ slope d G1)``: ``E`` and ``f_a`` are the
    kernel and ``f`` at the anchor, ``d`` the node spacing, and ``G0``, ``G1``
    the sums of ``e^{rk}`` and ``k e^{rk}`` over ``k < m``, ``r = -|lam| d``
    (Hochbruck & Ostermann, "Exponential integrators", Acta Numerica 19,
    2010, for the phi-functions).  ``G0 = expm1(m r) / expm1(r)``.  ``G1`` is
    ``(m^2 phi'(m r) - G0 phi'(r)) r / expm1(r)``, ``phi(x) = expm1(x) / x``,
    where ``m r >= -1``, and ``(e^r G0 - m e^{m r}) / -expm1(r)`` below; each
    difference cancels at most 4.1-fold where it is used, and both give 0 at
    ``m = 1``.
    """
    spacing = stride * h
    # |r| below 2^-900 (lam = 0, say) is taken as 2^-900, where the formulas
    # give G0 = m and G1 = m (m - 1) / 2 exactly, as they are to double precision
    r = np.minimum(-abs(lam) * spacing, -2.0 ** -900)
    kernel = n - node
    kernel *= lam * h
    np.exp(kernel, out=kernel)
    z = np.concatenate((m * r, r))  # m r, then r
    em1 = np.expm1(z)
    phi_slope = _phi_slope(z)
    em1, em1_r = em1[:m.size], em1[m.size:]
    g0 = em1 / em1_r
    g1 = m * m * phi_slope[:m.size]
    g1 -= g0 * phi_slope[m.size:]
    g1 *= r / em1_r
    # the first form holds where m r >= -1, and gives 0 at m = 1 (its two
    # phi' are one number); the second takes the other pairs
    if z[:m.size].min(initial=0.0) < -1.0:
        series = z[:m.size] >= np.minimum(r, -1.0)
        exp = np.exp(z)  # not expm1 + 1, which loses e^r's last digits for r << 0
        g1 = np.where(series, g1, (exp[m.size:] * g0 - m * exp[:m.size]) / -em1_r)
    g1 *= slope
    g1 *= spacing
    np.negative(g1, out=g1, where=down)
    g0 *= f
    g0 += g1
    g0 *= kernel
    return g0


def _table_responses(lams, tables, t: float, quad: QuadratureConfig) -> list:
    """Every table mode's convolution over [0, t], t > 0, as (value,
    estimate): one kernel pass sums every mode's levels, and each mode's row
    goes through the rule."""
    for table in tables:
        if t > table.times[-1] + 1e-12 * max(1.0, abs(t)) or table.times[0] > 0.0:
            raise ValueError("table forcing must cover the whole interval [0, t]")
    batch = _TableSums(lams, tables, t, _ladder(quad.steps, quad.adaptive))
    return [simpson_integrate(functools.partial(batch.row, i), 0.0, t, quad) for i in range(len(tables))]


def mode_response(lam: float, forcing: ModeForcing, t: float, quad: QuadratureConfig) -> tuple[float, float]:
    """The convolution of one mode's forcing with its damping kernel over
    ``[0, t]``; returns (value, error estimate).  Closed forms are exact; a
    table is the one-mode case of :func:`forcing_integral`'s Simpson pass,
    whose level sums are closed forms per table segment, so a level costs
    O(segments) whatever its node count."""
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
    in mode order.  Every table mode goes through one Simpson pass; each
    value is bit for bit its :func:`mode_response`."""
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    values = np.zeros(spectrum.num_modes)
    errors = []  # per forced mode in order; a table's comes from the pass
    tabled = []  # (place in errors, mode, lam, table)
    for mode, f in forcing.entries:
        if mode > spectrum.num_modes:
            continue  # forcing past the truncation is out of scope
        lam = float(spectrum.eigenvalues[mode - 1])
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
