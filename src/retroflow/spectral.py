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
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .logdomain import (LOG_ZERO, LogAmplitude, exp_or_inf, log_tail_sum, signed_add,
                        signed_logsumexp)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

#: The most explicit modes a heat spectrum may have (400 MB of eigenvalues);
#: the truncation scan gives up past it.
MAX_MODES = 50_000_000


def _heat_eigenvalues(num_modes: int) -> np.ndarray:
    """The heat law on modes ``1..num_modes``: ``x = n pi``, then ``-(x x)``,
    the arithmetic of :meth:`Spectrum.eigenvalue`, so both agree bit for bit."""
    x = np.arange(1, num_modes + 1, dtype=float)
    x *= math.pi
    np.square(x, out=x)
    return np.negative(x, out=x)


def _freeze(self, state: dict):
    """``__setstate__``: arrays come back writeable from a deep copy or a pickle."""
    for array in (*state.values(), *state.get("_origin", ())):  # a lineage base too
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    self.__dict__.update(state)


@dataclass(frozen=True)
class Spectrum:
    """Strictly decreasing, strictly negative eigenvalues of the generator.

    ``kind == "heat"`` is the Dirichlet Laplacian law ``-(n*pi)**2``, which
    extends past the truncation and so enables tail analytics.  Custom spectra
    carry no law beyond their listed modes and admit only zero tails.

    A heat spectrum is its law, so it is its size: ``Spectrum(ev, "heat")``
    takes only the law's eigenvalues bit for bit, :func:`make_heat_spectrum`
    builds them on their first read, and heat spectra are equal when their
    sizes are.  Custom spectra are equal when their eigenvalues, bit for bit, are.
    """

    eigenvalues: np.ndarray
    kind: str = "custom"
    __setstate__ = _freeze

    def __post_init__(self):
        ev = np.array(self.eigenvalues, dtype=float)
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "num_modes", ev.size)
        if self.kind not in ("heat", "custom"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if ev.size and not np.all(ev < 0):
            raise ValueError("all eigenvalues must be strictly negative")
        if ev.size > 1 and not np.all(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be strictly decreasing")
        if self.kind == "heat" and not np.array_equal(ev, _heat_eigenvalues(ev.size)):
            raise ValueError("a heat spectrum is -(n*pi)**2 bit for bit: build it with "
                             "make_heat_spectrum, or list other eigenvalues as kind='custom'")

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
        spectrum.__dict__.update(kind="heat", num_modes=count)
        return spectrum

    def __getattr__(self, name):
        # normal lookup failed: a heat spectrum builds its eigenvalues now
        if name != "eigenvalues" or self.kind != "heat":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ev = _heat_eigenvalues(self.num_modes)
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        return ev

    def eigenvalue(self, n: int) -> float:
        """Eigenvalue of mode ``n`` (1-based): a heat spectrum's from its law,
        without building the array, a custom one's read from its list."""
        if self.kind == "heat":
            x = n * math.pi
            return -(x * x)
        if n > self.num_modes:
            raise ValueError("custom spectra carry no eigenvalue law beyond the truncation")
        return float(self.eigenvalues[n - 1])

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
        return self.kind == "heat" or np.array_equal(self.eigenvalues, other.eigenvalues)

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
    """No coefficients beyond the truncation.

    Every tail law reads as ``coeff * n**-power * exp(rate * lambda_n)``
    through the same three read-only attributes, so a law's reach, decay and
    cross terms never depend on its class; the zero law is ``(0, 0, inf)``.
    """

    coeff = power = 0.0
    rate = math.inf


@dataclass(frozen=True)
class ExpTail:
    """``|a_n| = coeff * exp(rate * lambda_n)`` for modes past the truncation:
    the law ``coeff * n**-power * exp(rate * lambda_n)`` with ``power = 0``.

    ``rate > 0`` decays (square-summable); functionals may carry ``rate <= 0``.
    """

    rate: float
    coeff: float
    power = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "coeff", float(self.coeff))
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if not (self.coeff >= 0.0 and math.isfinite(self.coeff)):
            raise ValueError("coeff must be finite and nonnegative")


@dataclass(frozen=True)
class PowerTail:
    """``|a_n| = coeff * n**(-power)`` past the truncation; needs ``power > 1/2``:
    the law ``coeff * n**-power * exp(rate * lambda_n)`` with ``rate = 0``."""

    power: float
    coeff: float
    rate = 0.0

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
    return tail if tail.coeff else ZERO_TAIL


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
    if not (a.coeff and b.coeff):
        return LOG_ZERO
    rate = a.rate + b.rate
    # a product with no Gaussian decay converges only as two power laws
    if rate <= 0.0 and not (a.power and b.power):
        raise ValueError("cross term of a growing tail has no finite value")
    return (math.log(a.coeff) + math.log(b.coeff)
            + log_tail_sum(a.power + b.power, rate * math.pi**2, start))


def combine_tails_add(spectrum: Spectrum, a: TailModel, b: TailModel) -> TailModel:
    """Envelope dominating ``|x_n + y_n|`` past the truncation.

    Exact when the laws share family and parameters; otherwise a one-sided
    dominating law in the weaker family.
    """
    a, b = _normalized_tail(a), _normalized_tail(b)
    if not a.coeff:
        return b
    if not b.coeff:
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
    if not (tail.coeff and factor):
        return ZERO_TAIL
    return replace(tail, coeff=tail.coeff * factor)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def _settle(signs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Settled arrays: a zero sign and a ``-inf`` log both mean a zero
    coefficient, and are made to agree; any other log must be finite, so an
    overflowed log raises.  Signs that need a change are replaced, never
    written, since they may belong to another state; ones needing none are
    kept, and so is a flow's lineage."""
    finite = np.isfinite(logs)
    if finite.all() and signs.all():
        return signs, logs
    zero_sign = signs == 0
    zero = zero_sign | (logs == LOG_ZERO)
    if not (finite | zero).all():
        raise ValueError("nonzero coefficients need finite log magnitudes")
    if (zero ^ zero_sign).any():
        signs = np.where(zero, np.int8(0), signs)
    return signs, np.where(zero, LOG_ZERO, logs)


class _LawWrite:
    """A lineage base not yet written: the ``head`` state's modes, then its
    tail law written out as explicit modes up to ``depth`` (see :func:`embed`).
    :meth:`arrays` writes them on its first call and keeps them, so every
    state of the lineage reads the same two arrays."""

    __setstate__ = _freeze

    def __init__(self, head: "SpectralState", depth: int):
        self.head, self.depth = head, depth
        self.signs = self.logs = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The signs and logs, written on the first call: the head, then new
        modes made in place in one ``arange``, ``log(n) * -p + log c`` for a
        power law, ``(n*pi)**2 * -r + log c`` for an exponential one."""
        if self.logs is None:
            head = self.head
            old, tail = head.num_modes, head.tail
            signs = np.empty(self.depth, dtype=np.int8)
            logs = np.arange(1, self.depth + 1, dtype=float)
            signs[:old], logs[:old] = head.signs, head.log_mags
            new = logs[old:]
            if not tail.coeff:
                signs[old:], new[:] = 0, LOG_ZERO
            else:
                signs[old:] = 1
                if tail.power:
                    np.log(new, out=new)
                    new *= -tail.power
                else:
                    new *= math.pi
                    np.square(new, out=new)
                    with np.errstate(over="ignore"):  # past float range: -inf logs, zero coefficients
                        new *= -tail.rate
                new += math.log(tail.coeff)
                if new[-1] == LOG_ZERO:  # a law falls with n: only then did any log underflow
                    signs[old:][new == LOG_ZERO] = 0
            signs.flags.writeable = logs.flags.writeable = False
            self.signs, self.logs = signs, logs
        return self.signs, self.logs


@dataclass(frozen=True)
class SpectralState:
    """Truncated modal coefficients in sign/log form plus a tail envelope.

    Immutable; all operations on states are pure functions.  The tail is a
    :class:`ZeroTail`, :class:`ExpTail` or :class:`PowerTail`; a state's
    exponential tail must decay (see :meth:`_check_decay`).

    A flowed state keeps its lineage ``_origin = (base, time)``: its logs are
    ``base + lambda_n * time``, rounded once from the logs its chain of flows
    began at.  Other states, and flows that moved a zero, are their own base
    at time 0.  ``==``, ``repr``, the wire format and ``replace`` ignore the
    lineage, so states equal by value may flow to results a few ulps apart.

    A flow whose largest product ``|lambda_N * time|`` is below
    ``2**968`` (:data:`_LAZY_REACH`) holds no logs: they are written, made
    read-only and kept on their first read, which is how an unread
    intermediate costs O(1).  Such a product is under half an ulp of the
    largest float, so no finite log overflows and a ``-inf`` one stays
    ``-inf``: the deferred logs are bit for bit the eager ones and need no
    normalisation.  Any other flow writes its logs at the call, eagerly.

    A state from :func:`embed` holds neither array: its base is a
    :class:`_LawWrite`, a head state and a depth, written on the first read
    of ``signs`` or ``log_mags`` of any state of its lineage and shared by
    all of them.  Its flows defer their logs from there as above.
    """

    spectrum: Spectrum
    signs: np.ndarray
    log_mags: np.ndarray
    tail: TailModel = ZERO_TAIL
    __setstate__ = _freeze

    def __post_init__(self):
        # signs are checked raw, since the int8 cast could wrap or truncate them
        raw = np.asarray(self.signs)
        if raw.dtype.kind not in "biuf" or not np.all((raw >= -1) & (raw <= 1)):
            raise ValueError("signs must be integers in {-1, 0, +1}")
        signs = raw.astype(np.int8)
        if raw.dtype.kind == "f" and not np.all(signs == raw):
            raise ValueError("signs must be integers in {-1, 0, +1}")
        logs = np.array(self.log_mags, dtype=float)  # a copy: the caller's stays theirs
        self._check(self.spectrum, signs, logs, self.tail)
        self.__dict__.update(vars(self._result(self.spectrum, *_settle(signs, logs), self.tail)))

    @staticmethod
    def _check(spectrum: Spectrum, signs: np.ndarray, logs: np.ndarray, tail: TailModel):
        """One coefficient per mode, and a known tail law, on a heat spectrum unless zero."""
        if signs.shape != (spectrum.num_modes,) or logs.shape != signs.shape:
            raise ValueError("coefficient arrays must match the spectrum length")
        if not isinstance(tail, (ZeroTail, ExpTail, PowerTail)):
            raise ValueError(f"unknown tail law {type(tail).__name__}")
        if tail.coeff and spectrum.kind != "heat":
            raise ValueError("tail envelopes need an eigenvalue law; use a heat spectrum")

    @classmethod
    def _result(cls, spectrum: Spectrum, signs: np.ndarray | None, logs: np.ndarray | None,
                tail: TailModel = ZERO_TAIL, origin: tuple | None = None) -> "SpectralState":
        """Every state is built here, from settled arrays (see :func:`_settle`), not checked
        again: read-only arrays, a vanished tail coefficient made zero, a decaying tail.  The
        lineage ``origin`` is ``(logs, 0.0)`` unless given; ``logs=None`` is a lazy flow of it,
        and ``signs=None`` too a state whose base is a :class:`_LawWrite` not yet written.
        The public constructor and ``zeros`` check first; ``from_values`` logs finite values,
        ``basis`` writes one 0, ``Functional.from_exp_law`` settles its law; ``signed_add``
        settles ``add`` and ``subtract``; ``scale``, ``negate`` and ``generator_action`` shift
        finite logs far below ``2**970``; a law write zeroes the signs of ``-inf`` logs;
        flows are lazy or settled; others pass a state's own arrays."""
        tail = _normalized_tail(tail)
        cls._check_decay(tail)
        state = object.__new__(cls)
        state.__dict__.update(spectrum=spectrum, tail=tail, _origin=origin or (logs, 0.0))
        if signs is not None:
            signs.flags.writeable = False
            state.__dict__["signs"] = signs
        if logs is not None:
            logs.flags.writeable = False
            state.__dict__["log_mags"] = logs
        return state

    def __getattr__(self, name):
        # normal lookup failed: a deferred state writes its arrays now
        origin = self.__dict__.get("_origin")
        if name not in ("signs", "log_mags") or origin is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        base, time = origin
        if isinstance(base, _LawWrite):
            signs, base = base.arrays()
            object.__setattr__(self, "signs", signs)
        if "log_mags" not in self.__dict__:
            logs = base
            if time:
                logs = self.spectrum.eigenvalues * time
                logs += base
                logs.flags.writeable = False
            object.__setattr__(self, "log_mags", logs)
        return self.__dict__[name]

    @staticmethod
    def _check_decay(tail: TailModel):
        if tail.rate <= 0.0 and not tail.power:
            raise ValueError("a state's exponential tail must decay (rate > 0)")

    # construction -----------------------------------------------------------

    @classmethod
    def from_values(cls, spectrum: Spectrum, values, tail: TailModel = ZERO_TAIL) -> "SpectralState":
        """Build from plain linear coefficient values, which must be finite."""
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficient values must be finite")
        signs = np.sign(values).astype(np.int8)
        with np.errstate(divide="ignore"):  # a zero's log is -inf: settled
            logs = np.log(np.abs(values))
        cls._check(spectrum, signs, logs, tail)
        return cls._result(spectrum, signs, logs, tail)

    @classmethod
    def zeros(cls, spectrum: Spectrum, tail: TailModel = ZERO_TAIL) -> "SpectralState":
        n = spectrum.num_modes
        signs, logs = np.zeros(n, dtype=np.int8), np.full(n, LOG_ZERO)
        cls._check(spectrum, signs, logs, tail)
        return cls._result(spectrum, signs, logs, tail)

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
        return cls._result(spectrum, signs, logs)

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
        return not np.any(self.signs) and not self.tail.coeff

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

# The bound on |lambda_N * time| below which a flow's logs wait for their
# first read (see SpectralState); half an ulp of the largest float is 2**970.
_LAZY_REACH = 2.0**968


def evolve(state: SpectralState, t: float) -> SpectralState:
    """Forward flow: mode ``n`` is damped by ``exp(lambda_n * t)``, ``t >= 0``.

    Logs round once from the lineage base (see :class:`SpectralState`), so
    ``evolve(backward_evolve(x, t), t)`` has ``x``'s logs bit for bit.  The
    call is O(1): the logs are written on their first read, unless
    ``|lambda_N|`` times the lineage's time reaches ``2**968``; such a step
    takes the eager path, where modes that underflow become zeros and start
    a new lineage.

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
    return _flow(state, t)


def _flow(state: SpectralState, t: float) -> SpectralState:
    """Mode ``n`` times ``exp(lambda_n * t)`` from the lineage base, for a
    checked nonzero ``t``: forward, or backward inside the horizon.  Below
    :data:`_LAZY_REACH` the result's logs are left to its first read."""
    base, time = state._origin
    time += t
    spectrum, tail = state.spectrum, state.tail
    num_modes = spectrum.num_modes
    if tail.coeff:  # a state's zero tail is ZERO_TAIL, which flows to itself
        if isinstance(tail, ExpTail):
            tail = ExpTail(tail.rate + t, tail.coeff)
        elif t < _POWER_FAMILY_STEP:
            first = spectrum.eigenvalue(num_modes + 1)
            tail = PowerTail(tail.power, tail.coeff * math.exp(first * t))
        else:
            tail = ExpTail(t, tail.coeff * (num_modes + 1) ** (-tail.power))
    if num_modes == 0 or abs(spectrum.eigenvalue(num_modes) * time) < _LAZY_REACH:
        return SpectralState._result(spectrum, vars(state).get("signs"), None, tail, (base, time))
    # past float range: -inf logs, zero coefficients; backward, +inf logs,
    # which settling refuses, or nan ones of zero coefficients, which it zeroes
    with np.errstate(over="ignore", invalid="ignore"):
        logs = spectrum.eigenvalues * time
        logs += base.arrays()[1] if isinstance(base, _LawWrite) else base
    signs, logs = _settle(state.signs, logs)
    # a flow that moved a zero starts a new lineage
    return SpectralState._result(spectrum, signs, logs, tail,
                                 (base, time) if signs is state.signs else None)


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------

def log_norm(state: SpectralState) -> float:
    """Natural log of the ambient (square-sum) norm; ``-inf`` for zero."""
    tail_squares = _tail_cross_log(state.tail, state.tail, state.num_modes + 1)
    squares = np.concatenate((2.0 * state.log_mags, [tail_squares]))
    return 0.5 * signed_logsumexp(1, squares)[1]


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
    return LogAmplitude(*signed_logsumexp(signs, logs))


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
    if not math.isfinite(factor):
        raise ValueError(f"a scale factor must be finite, got {factor!r}")
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
    plus sign) and keep the law beyond, which is per-mode and unchanged.  The
    call is O(1): the result records the state and the depth, and writes its
    own arrays on the first read of either (:class:`_LawWrite`)."""
    if num_modes == state.num_modes:
        return state
    spectrum = state.spectrum.extended(num_modes)
    law = _LawWrite(state, spectrum.num_modes)
    return SpectralState._result(spectrum, None, None, state.tail, (law, 0.0))


def _drop_tail(state: SpectralState, num_modes: int) -> SpectralState:
    """The zero-tail truncation: ``embed`` to ``num_modes``, law dropped, on ``embed``'s
    arrays and lineage, so it stays unwritten until read, as an unread flow does."""
    deep = embed(state, num_modes)
    written = vars(deep)
    return SpectralState._result(deep.spectrum, written.get("signs"), written.get("log_mags"),
                                 ZERO_TAIL, deep._origin)


def _aligned(x: SpectralState, y: SpectralState):
    if x.spectrum == y.spectrum:
        return x, y
    if x.spectrum.kind == "heat" and y.spectrum.kind == "heat":
        depth = max(x.num_modes, y.num_modes)
        return embed(x, depth), embed(y, depth)
    raise ValueError("states live on different spectra")


def _same_modes(x: SpectralState, y: SpectralState) -> bool:
    """Whether aligned ``x`` and ``y`` have equal modes bit for bit, known
    without writing them: one time, and one lineage base with one sign array,
    or two law writes of one head (to the one depth they are aligned at)."""
    (x_base, x_time), (y_base, y_time) = x._origin, y._origin
    if x_time != y_time:
        return False
    if isinstance(x_base, _LawWrite) and isinstance(y_base, _LawWrite):
        return x_base.head is y_base.head
    return x_base is y_base and x.signs is y.signs


def log_distance(x: SpectralState, y: SpectralState) -> float:
    """log of the ambient distance; heat-law states of different truncation
    depths are aligned first (the depth is representation, not substance).
    States whose modes are equal bit for bit (:func:`_same_modes`) differ by
    their tails alone, with no arithmetic on modes: ``-inf`` for equal tails,
    and where one tail is zero, as for a truncation against its source, the
    other's norm past the modes, bit for bit what the difference's norm is."""
    x, y = _aligned(x, y)
    if _same_modes(x, y):
        if x.tail == y.tail:
            return LOG_ZERO
        if not (x.tail.coeff and y.tail.coeff):
            return log_tail_norm(x if x.tail.coeff else y)
    return log_norm(subtract(x, y))


def relative_gap(x: SpectralState, y: SpectralState) -> float:
    """``|x - y| / max(1, |x|, |y|)`` evaluated safely through logs."""
    gap = log_distance(x, y)
    if gap == LOG_ZERO:
        return 0.0
    scale_log = max(0.0, log_norm(x), log_norm(y))
    return math.exp(gap - scale_log)
