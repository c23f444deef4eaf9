"""Spectral states of a diagonal semigroup and the forward flow.

A state is a finite list of modal coefficients (stored sign/log-magnitude)
on a strictly negative spectrum, plus an analytic *tail envelope* describing
the coefficient magnitudes beyond the truncation.  Tail envelopes are what
make horizons and norms computable in closed form; they denote nonnegative
coefficients, and linear combinations may widen an envelope one-sidedly
(the widened envelope always dominates the true coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .logdomain import LOG_ZERO, LogAmplitude, log_tail_sum, signed_add, signed_logsumexp


def exp_or_inf(log_value: float) -> float:
    """Decode a log value to a float, overflowing honestly to ``inf``."""
    if log_value == LOG_ZERO:
        return 0.0
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

#: The most explicit modes a heat spectrum may have (400 MB of eigenvalues);
#: the truncation scan gives up past it.
MAX_MODES = 50_000_000


def _heat_eigenvalues(num_modes: int) -> np.ndarray:
    n = np.arange(1, num_modes + 1, dtype=float)
    return -((n * math.pi) ** 2)


@dataclass(frozen=True)
class Spectrum:
    """Strictly decreasing, strictly negative eigenvalues of the generator.

    ``kind == "heat"`` marks the Dirichlet Laplacian law ``-(n*pi)**2``, which
    extends past the truncation and so enables tail analytics.  Custom spectra
    carry no law beyond their listed modes and admit only zero tails.

    A heat spectrum built from the law (``make_heat_spectrum``, ``extended``)
    is its size: its eigenvalues are built once, on their first read, and two
    such spectra are equal when their sizes are.  Other spectra are equal when
    their kinds and their eigenvalues, bit for bit, are.
    """

    eigenvalues: np.ndarray
    kind: str = "custom"
    _law = False  # built from the law by ``_heat``, eigenvalues on first read

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        ev = ev.copy()
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "num_modes", ev.size)
        if self.kind not in ("heat", "custom"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if ev.size and not np.all(ev < 0):
            raise ValueError("all eigenvalues must be strictly negative")
        if ev.size > 1 and not np.all(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be strictly decreasing")
        if self.kind == "heat" and ev.size:
            expected = _heat_eigenvalues(ev.size)
            if not np.allclose(ev, expected, rtol=1e-12, atol=0.0):
                raise ValueError("heat spectrum must follow -(n*pi)**2")

    @classmethod
    def _heat(cls, num_modes: int) -> "Spectrum":
        """The heat law on ``num_modes`` modes, without the checks it passes by
        construction and without its eigenvalues until they are read.
        ``num_modes`` past :data:`MAX_MODES` or not integral is refused."""
        if num_modes > MAX_MODES:
            raise ValueError(f"{num_modes} modes exceed the budget of {MAX_MODES}")
        count = int(num_modes)
        if count != num_modes:
            raise ValueError(f"a mode count must be an integer, got {num_modes!r}")
        spectrum = object.__new__(cls)
        spectrum.__dict__.update(kind="heat", num_modes=count, _law=True)
        return spectrum

    def __getattr__(self, name):
        # normal lookup failed: a law-built spectrum builds its eigenvalues now
        if name != "eigenvalues" or not self._law:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ev = _heat_eigenvalues(self.num_modes)
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        return ev

    def eigenvalue_beyond(self, n: int) -> float:
        """Eigenvalue of mode ``n`` (1-based) past the truncation; heat only."""
        if self.kind != "heat":
            raise ValueError("custom spectra carry no eigenvalue law beyond the truncation")
        return -((n * math.pi) ** 2)

    def extended(self, num_modes: int) -> "Spectrum":
        """Same law with more explicit modes; heat only."""
        if num_modes < self.num_modes:
            raise ValueError("cannot shrink a spectrum")
        if self.kind != "heat":
            raise ValueError("custom spectra cannot be extended")
        return Spectrum._heat(num_modes)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Spectrum):
            return NotImplemented
        if self.kind != other.kind or self.num_modes != other.num_modes:
            return False
        return (self._law and other._law) or np.array_equal(self.eigenvalues, other.eigenvalues)

    __hash__ = None


def make_heat_spectrum(num_modes: int) -> Spectrum:
    """Dirichlet-Laplacian spectrum ``-(n*pi)**2`` for ``n = 1..num_modes``."""
    if num_modes < 1:
        raise ValueError("num_modes must be at least 1")
    return Spectrum._heat(num_modes)


# ---------------------------------------------------------------------------
# tail envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTail:
    """No coefficients beyond the truncation."""


@dataclass(frozen=True)
class ExpTail:
    """``|a_n| = coeff * exp(rate * lambda_n)`` for modes past the truncation.

    ``rate > 0`` decays (square-summable); functionals may carry ``rate <= 0``.
    """

    rate: float
    coeff: float

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "coeff", float(self.coeff))
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if not (self.coeff >= 0.0 and math.isfinite(self.coeff)):
            raise ValueError("coeff must be finite and nonnegative")


@dataclass(frozen=True)
class PowerTail:
    """``|a_n| = coeff * n**(-power)`` past the truncation; needs ``power > 1/2``."""

    power: float
    coeff: float

    def __post_init__(self):
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "coeff", float(self.coeff))
        if not 0.5 < self.power < math.inf:
            raise ValueError("power must be finite and exceed 1/2 for a square-summable tail")
        if not (self.coeff >= 0.0 and math.isfinite(self.coeff)):
            raise ValueError("coeff must be finite and nonnegative")


TailModel = Union[ZeroTail, ExpTail, PowerTail]
ZERO_TAIL = ZeroTail()


def _normalized_tail(tail: TailModel) -> TailModel:
    if isinstance(tail, (ExpTail, PowerTail)) and tail.coeff == 0.0:
        return ZERO_TAIL
    return tail


def _log_sup_power_vs_gauss(power: float, rate: float, start: int) -> float:
    """Upper bound for ``sup_{n >= start} power*ln(n) - rate*(n*pi)**2`` via
    the continuous maximizer (one-sided, used only to build envelopes)."""
    n_star = math.sqrt(power / (2.0 * rate)) / math.pi
    n_at = max(float(start), n_star)
    return power * math.log(n_at) - rate * (n_at * math.pi) ** 2


def _tail_cross_log(a: TailModel, b: TailModel, start: int) -> float:
    """log of ``sum_{n >= start} law_a(n) * law_b(n)``; envelopes are nonnegative.

    With ``a == b`` this is the tail's squared norm beyond ``start - 1``.  The
    product law is ``n**-p * exp(-rate * (n*pi)**2)``, one :func:`log_tail_sum`,
    rounded up.
    """
    if isinstance(a, ZeroTail) or isinstance(b, ZeroTail):
        return LOG_ZERO
    rates = [t.rate for t in (a, b) if isinstance(t, ExpTail)]
    rate = sum(rates)
    if rates and rate <= 0.0:
        raise ValueError("cross term of a growing tail has no finite value")
    power = sum(t.power for t in (a, b) if isinstance(t, PowerTail))
    return math.log(a.coeff) + math.log(b.coeff) + log_tail_sum(power, rate * math.pi**2, start)


def combine_tails_add(spectrum: Spectrum, a: TailModel, b: TailModel) -> TailModel:
    """Envelope dominating ``|x_n + y_n|`` past the truncation.

    Exact when the laws share family and parameters; otherwise a one-sided
    dominating law in the weaker family.
    """
    a, b = _normalized_tail(a), _normalized_tail(b)
    if isinstance(a, ZeroTail):
        return b
    if isinstance(b, ZeroTail):
        return a
    if isinstance(a, ExpTail) and isinstance(b, ExpTail):
        return ExpTail(min(a.rate, b.rate), a.coeff + b.coeff)
    if isinstance(a, PowerTail) and isinstance(b, PowerTail):
        return PowerTail(min(a.power, b.power), a.coeff + b.coeff)
    exp_t = a if isinstance(a, ExpTail) else b
    pow_t = b if isinstance(a, ExpTail) else a
    start = spectrum.num_modes + 1
    # exp law under a power envelope: coeff * sup_n n**p * exp(rate * lam_n)
    sup = _log_sup_power_vs_gauss(pow_t.power, exp_t.rate, start)
    return PowerTail(pow_t.power, pow_t.coeff + exp_t.coeff * math.exp(sup))


def combine_tails_sub(spectrum: Spectrum, a: TailModel, b: TailModel) -> TailModel:
    """Envelope dominating ``|x_n - y_n|``; cancels exactly for identical laws.

    Near-identical laws of the same family leave a residual envelope whose
    coefficient is proportional to the parameter gap, so float-perturbed
    parameters from different evolution paths still compare as close.
    """
    a, b = _normalized_tail(a), _normalized_tail(b)
    if a == b:
        return ZERO_TAIL
    if isinstance(a, ExpTail) and isinstance(b, ExpTail):
        gap = abs(a.rate - b.rate)
        base = min(a.rate, b.rate)
        if base <= 0.0:
            raise ValueError("cannot difference growing tails")
        if gap == 0.0:
            return ExpTail(a.rate, abs(a.coeff - b.coeff))
        # |e^{r1 L} - e^{r2 L}| <= min(1, gap*|L|) e^{base L};  |L| e^{-b|L|} <= 1/(b e)
        slack = max(a.coeff, b.coeff) * gap * 2.0 / (base * math.e)
        return _normalized_tail(ExpTail(base / 2.0, slack + abs(a.coeff - b.coeff)))
    if isinstance(a, PowerTail) and isinstance(b, PowerTail):
        gap = abs(a.power - b.power)
        base = min(a.power, b.power)
        if gap == 0.0:
            return _normalized_tail(PowerTail(a.power, abs(a.coeff - b.coeff)))
        eps = (base - 0.5) / 2.0
        slack = max(a.coeff, b.coeff) * gap / (math.e * eps)
        return _normalized_tail(PowerTail(base - eps, slack + abs(a.coeff - b.coeff)))
    return combine_tails_add(spectrum, a, b)


def scale_tail(tail: TailModel, factor: float) -> TailModel:
    factor = abs(float(factor))
    if isinstance(tail, ZeroTail) or factor == 0.0:
        return ZERO_TAIL
    if isinstance(tail, ExpTail):
        return ExpTail(tail.rate, tail.coeff * factor)
    return PowerTail(tail.power, tail.coeff * factor)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def coefficient_arrays(spectrum: Spectrum, signs, log_mags) -> tuple[np.ndarray, np.ndarray]:
    """Checked copies of a coefficient sequence in sign/log form, from caller data.

    Signs are checked on the raw input, before the ``int8`` cast could wrap
    or truncate them: only integral values in ``{-1, 0, +1}`` pass.  The
    copies still need :meth:`SpectralState._settle`.
    """
    raw = np.asarray(signs)
    if raw.dtype.kind not in "biuf" or not np.all((raw >= -1) & (raw <= 1)):
        raise ValueError("signs must be integers in {-1, 0, +1}")
    signs = raw.astype(np.int8)
    if raw.dtype.kind == "f" and not np.all(signs == raw):
        raise ValueError("signs must be integers in {-1, 0, +1}")
    logs = np.array(log_mags, dtype=float)
    if signs.shape != (spectrum.num_modes,) or logs.shape != signs.shape:
        raise ValueError("coefficient arrays must match the spectrum length")
    return signs, logs


@dataclass(frozen=True)
class SpectralState:
    """Truncated modal coefficients in sign/log form plus a tail envelope.

    Immutable; all operations on states are pure functions.  The tail is a
    :class:`ZeroTail`, :class:`ExpTail` or :class:`PowerTail`; a state's
    exponential tail must decay (see :meth:`_check_decay`).
    """

    spectrum: Spectrum
    signs: np.ndarray
    log_mags: np.ndarray
    tail: TailModel = ZERO_TAIL

    def __post_init__(self):
        signs, logs = coefficient_arrays(self.spectrum, self.signs, self.log_mags)
        if not isinstance(self.tail, (ZeroTail, ExpTail, PowerTail)):
            raise ValueError(f"unknown tail law {type(self.tail).__name__}")
        self._settle(signs, logs, self.tail)
        if not isinstance(self.tail, ZeroTail) and self.spectrum.kind != "heat":
            raise ValueError("tail envelopes need an eigenvalue law; use a heat spectrum")

    @classmethod
    def _result(cls, spectrum: Spectrum, signs: np.ndarray, logs: np.ndarray,
                tail: TailModel = ZERO_TAIL, settled: bool = False) -> "SpectralState":
        """A library result: arrays of the spectrum's length, an ``int8`` sign
        array and a tail law that the library built from valid states.  They
        are normalised, not checked again; ``settled`` arrays, taken from a
        state or written out by ``embed``, are normalised already."""
        state = object.__new__(cls)
        object.__setattr__(state, "spectrum", spectrum)
        state._settle(signs, logs, tail, settled)
        return state

    def _settle(self, signs: np.ndarray, logs: np.ndarray, tail: TailModel,
                settled: bool = False):
        """The normalisation every state gets, checked or not.  A zero sign
        and a ``-inf`` log both mean a zero coefficient, and are made to agree;
        any other log must be finite, so an overflowed log raises.  A vanished
        tail coefficient is the zero tail; a state's tail must decay.  The
        arrays are made read-only; one that needs a change is replaced, never
        written, since it may belong to another state."""
        if not settled:
            finite = np.isfinite(logs)
            if not (finite.all() and signs.all()):
                zero = (signs == 0) | (logs == LOG_ZERO)
                signs = np.where(zero, np.int8(0), signs)
                logs = np.where(zero, LOG_ZERO, logs)
                if not (finite | zero).all():
                    raise ValueError("nonzero coefficients need finite log magnitudes")
        signs.flags.writeable = False
        logs.flags.writeable = False
        tail = _normalized_tail(tail)
        self._check_decay(tail)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "log_mags", logs)
        object.__setattr__(self, "tail", tail)

    @staticmethod
    def _check_decay(tail: TailModel):
        if isinstance(tail, ExpTail) and tail.rate <= 0.0:
            raise ValueError("a state's exponential tail must decay (rate > 0)")

    # construction -----------------------------------------------------------

    @classmethod
    def from_values(cls, spectrum: Spectrum, values, tail: TailModel = ZERO_TAIL) -> "SpectralState":
        """Build from plain linear coefficient values, which must be finite."""
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficient values must be finite")
        signs = np.sign(values).astype(np.int8)
        with np.errstate(divide="ignore"):
            logs = np.where(values == 0.0, LOG_ZERO, np.log(np.abs(values)))
        return cls(spectrum, signs, logs, tail)

    @classmethod
    def zeros(cls, spectrum: Spectrum, tail: TailModel = ZERO_TAIL) -> "SpectralState":
        n = spectrum.num_modes
        return cls(spectrum, np.zeros(n, dtype=np.int8), np.full(n, LOG_ZERO), tail)

    @classmethod
    def basis(cls, spectrum: Spectrum, mode: int) -> "SpectralState":
        """Unit coefficient on one mode (1-based)."""
        if not 1 <= mode <= spectrum.num_modes:
            raise ValueError(f"mode {mode} outside 1..{spectrum.num_modes}")
        n = spectrum.num_modes
        signs = np.zeros(n, dtype=np.int8)
        logs = np.full(n, LOG_ZERO)
        signs[mode - 1] = 1
        logs[mode - 1] = 0.0
        return cls(spectrum, signs, logs)

    # inspection --------------------------------------------------------------

    @property
    def num_modes(self) -> int:
        return self.spectrum.num_modes

    def coeff(self, mode: int) -> LogAmplitude:
        i = mode - 1
        return LogAmplitude(int(self.signs[i]), float(self.log_mags[i]))

    def coeff_values(self) -> np.ndarray:
        """Linear coefficient values; overflow maps to ``+-inf``."""
        with np.errstate(over="ignore"):
            return self.signs * np.exp(self.log_mags)

    def is_zero(self) -> bool:
        return not np.any(self.signs) and isinstance(self.tail, ZeroTail)

    def __eq__(self, other):
        if not isinstance(other, SpectralState):
            return NotImplemented
        return (
            self.spectrum == other.spectrum
            and np.array_equal(self.signs, other.signs)
            and np.array_equal(self.log_mags, other.log_mags)
            and self.tail == other.tail
        )

    __hash__ = None


def _require_same_spectrum(x: SpectralState, y: SpectralState):
    if x.spectrum != y.spectrum:
        raise ValueError("states live on different spectra")


# ---------------------------------------------------------------------------
# the forward flow
# ---------------------------------------------------------------------------

# Below this step, an evolved power tail keeps its family (a power envelope
# damped at the first tail mode) instead of converting to an exponential
# envelope; rounding-level steps from offset bookkeeping then stay family
# stable and cancel in differences.
_POWER_FAMILY_STEP = 1e-6


def evolve(state: SpectralState, t: float) -> SpectralState:
    """Forward flow: mode ``n`` is damped by ``exp(lambda_n * t)``, ``t >= 0``.

    Tail envelopes transform in closed form, except that a power tail's exact
    image is no longer a power law: it maps to a dominating exponential
    envelope (rate ``t``, constant taken at the first tail mode), or, for
    steps below ``_POWER_FAMILY_STEP``, to a dominating power envelope.  Both
    over-approximations are one-sided and affect only tail norms.
    """
    t = float(t)
    if math.isnan(t):
        raise ValueError("time must be a number, got nan")
    if t < 0.0:
        raise ValueError("negative times are backward evolution; use backward_evolve")
    if t == 0.0:
        return state
    with np.errstate(over="ignore"):  # past float range: -inf logs, zero coefficients
        logs = state.log_mags + state.spectrum.eigenvalues * t
    tail = state.tail
    if isinstance(tail, ExpTail):
        tail = ExpTail(tail.rate + t, tail.coeff)
    elif isinstance(tail, PowerTail):
        first = state.spectrum.eigenvalue_beyond(state.num_modes + 1)
        if t < _POWER_FAMILY_STEP:
            tail = PowerTail(tail.power, tail.coeff * math.exp(first * t))
        else:
            tail = ExpTail(t, tail.coeff * (state.num_modes + 1) ** (-tail.power))
    return SpectralState._result(state.spectrum, state.signs, logs, tail)


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------

def log_norm(state: SpectralState) -> float:
    """Natural log of the ambient (square-sum) norm; ``-inf`` for zero."""
    tail_squares = _tail_cross_log(state.tail, state.tail, state.num_modes + 1)
    squares = np.concatenate((2.0 * state.log_mags, [tail_squares]))
    return 0.5 * float(signed_logsumexp(1, squares)[1])


def norm(state: SpectralState) -> float:
    """Ambient norm as a float; may overflow to ``inf`` for backward images."""
    return exp_or_inf(log_norm(state))


def log_tail_norm(state: SpectralState) -> float:
    return 0.5 * _tail_cross_log(state.tail, state.tail, state.num_modes + 1)


def tail_norm(state: SpectralState) -> float:
    """Norm of the tail-only part beyond the truncation."""
    return exp_or_inf(log_tail_norm(state))


def log_inner_product(x: SpectralState, y: SpectralState) -> LogAmplitude:
    """Sign-aware log-domain inner product, including the tail cross term."""
    _require_same_spectrum(x, y)
    # the tail cross term is one more positive entry (envelopes are nonnegative)
    cross = _tail_cross_log(x.tail, y.tail, x.num_modes + 1)
    signs = np.concatenate((x.signs * y.signs, [1]))
    logs = np.concatenate((x.log_mags + y.log_mags, [cross]))
    sign, log = signed_logsumexp(signs, logs)
    return LogAmplitude(int(sign), float(log))


def inner_product(x: SpectralState, y: SpectralState) -> float:
    return log_inner_product(x, y).to_linear()


# ---------------------------------------------------------------------------
# linear structure
# ---------------------------------------------------------------------------

def add(x: SpectralState, y: SpectralState) -> SpectralState:
    """Modewise sign-aware log addition; tails combine by dominating envelope."""
    _require_same_spectrum(x, y)
    signs, logs = signed_add(x.signs, x.log_mags, y.signs, y.log_mags)
    tail = combine_tails_add(x.spectrum, x.tail, y.tail)
    return SpectralState._result(x.spectrum, signs, logs, tail)


def scale(state: SpectralState, factor: float) -> SpectralState:
    factor = float(factor)
    if factor == 0.0:
        return SpectralState.zeros(state.spectrum)
    signs = state.signs * (1 if factor > 0 else -1)
    logs = state.log_mags + math.log(abs(factor))
    return SpectralState._result(state.spectrum, signs, logs, scale_tail(state.tail, factor))


def negate(state: SpectralState) -> SpectralState:
    return SpectralState._result(state.spectrum, -state.signs, state.log_mags, state.tail)


def subtract(x: SpectralState, y: SpectralState) -> SpectralState:
    """``x - y``; identical tail laws cancel exactly, near ones leave a residual."""
    _require_same_spectrum(x, y)
    signs, logs = signed_add(x.signs, x.log_mags, -y.signs, y.log_mags)
    tail = combine_tails_sub(x.spectrum, x.tail, y.tail)
    return SpectralState._result(x.spectrum, signs, logs, tail)


def embed(state: SpectralState, num_modes: int) -> SpectralState:
    """Deepen the truncation: write the tail law out as explicit modes up to
    ``num_modes`` (laws denote nonnegative coefficients, so new modes carry a
    plus sign) and keep the law beyond, which is per-mode and unchanged.  New
    modes are made in place in one ``arange``: ``log(n) * -p + log c`` for a
    power law, ``(n*pi)**2 * -r + log c`` for an exponential one."""
    if num_modes == state.num_modes:
        return state
    spectrum = state.spectrum.extended(num_modes)
    old, tail = state.num_modes, state.tail
    signs = np.empty(num_modes, dtype=np.int8)
    logs = np.arange(1, num_modes + 1, dtype=float)
    signs[:old], logs[:old] = state.signs, state.log_mags
    new = logs[old:]
    if isinstance(tail, ZeroTail):
        signs[old:], new[:] = 0, LOG_ZERO
    else:
        signs[old:] = 1
        if isinstance(tail, PowerTail):
            np.log(new, out=new)
            new *= -tail.power
        else:
            new *= math.pi
            np.square(new, out=new)
            with np.errstate(over="ignore"):  # past float range: -inf logs, zero coefficients
                new *= -tail.rate
        new += math.log(tail.coeff)
        signs[old:][new == LOG_ZERO] = 0
    # settled: only a growing law's logs overflow to +inf, and it fails the decay check
    return SpectralState._result(spectrum, signs, logs, tail, settled=True)


def _aligned(x: SpectralState, y: SpectralState):
    if x.spectrum == y.spectrum:
        return x, y
    if x.spectrum.kind == "heat" and y.spectrum.kind == "heat":
        depth = max(x.num_modes, y.num_modes)
        return embed(x, depth), embed(y, depth)
    raise ValueError("states live on different spectra")


def log_distance(x: SpectralState, y: SpectralState) -> float:
    """log of the ambient distance; heat-law states of different truncation
    depths are aligned first (the depth is representation, not substance)."""
    x, y = _aligned(x, y)
    return log_norm(subtract(x, y))


def relative_gap(x: SpectralState, y: SpectralState) -> float:
    """``|x - y| / max(1, |x|, |y|)`` evaluated safely through logs."""
    gap = log_distance(x, y)
    if gap == LOG_ZERO:
        return 0.0
    scale_log = max(0.0, log_norm(x), log_norm(y))
    return math.exp(gap - scale_log)
