"""Sign / log-magnitude scalars and overflow-proof accumulation.

Backward evolution multiplies mode ``n`` by ``exp(n**2 * pi**2 * t)``, which
leaves float range around mode 15 already at ``t = 1``.  All coefficient
arithmetic therefore lives in the log domain: a value is a sign in
``{-1, 0, +1}`` together with the natural log of its magnitude.

Every sum of sign/log values in the library goes through one array kernel,
:func:`signed_add` and :func:`signed_logsumexp`; the tail series use the
log-valued special functions :func:`log_erfc` and :func:`log_hurwitz_zeta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_ZERO = float("-inf")

# A difference of same-magnitude terms counts as exact zero once the residual
# drops below this relative magnitude (the float64 subnormal floor).
CANCEL_LOG = math.log(1e-300)
_CANCEL = math.exp(CANCEL_LOG)


@dataclass(frozen=True)
class LogAmplitude:
    """A real number stored as sign and natural log of its magnitude.

    ``sign == 0`` represents exactly zero (``log_mag`` is then ``-inf``).
    Nonzero amplitudes must carry a finite ``log_mag``.
    """

    sign: int
    log_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0:
            object.__setattr__(self, "log_mag", LOG_ZERO)
        else:
            lm = float(self.log_mag)
            if math.isnan(lm) or math.isinf(lm):
                raise ValueError(f"nonzero amplitude needs a finite log magnitude, got {lm!r}")
            object.__setattr__(self, "log_mag", lm)

    @classmethod
    def zero(cls) -> "LogAmplitude":
        return cls(0, LOG_ZERO)

    @classmethod
    def from_linear(cls, value: float) -> "LogAmplitude":
        value = float(value)
        if value == 0.0:
            return cls.zero()
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"cannot encode {value!r}")
        return cls(1 if value > 0 else -1, math.log(abs(value)))

    def to_linear(self) -> float:
        """Decode to a float; overflows to ``+-inf`` and may underflow to 0."""
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.log_mag)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    def times(self, other: "LogAmplitude") -> "LogAmplitude":
        sign = self.sign * other.sign
        if sign == 0:
            return LogAmplitude.zero()
        return LogAmplitude(sign, self.log_mag + other.log_mag)

    def scaled(self, factor: float) -> "LogAmplitude":
        """Multiply by a plain float factor."""
        factor = float(factor)
        if factor == 0.0 or self.sign == 0:
            return LogAmplitude.zero()
        sign = self.sign if factor > 0 else -self.sign
        return LogAmplitude(sign, self.log_mag + math.log(abs(factor)))

    def __neg__(self) -> "LogAmplitude":
        if self.sign == 0:
            return self
        return LogAmplitude(-self.sign, self.log_mag)


def log_add(a: LogAmplitude, b: LogAmplitude) -> LogAmplitude:
    """Sign-aware addition of two log-domain scalars."""
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if a.sign == b.sign:
        return LogAmplitude(a.sign, float(np.logaddexp(a.log_mag, b.log_mag)))
    return log_sub_magnitudes(a.log_mag, b.log_mag, a.sign)


def log_sub_magnitudes(log_a: float, log_b: float, sign_a: int) -> LogAmplitude:
    """``sign_a * (exp(log_a) - exp(log_b))`` with cancellation detection."""
    if log_a == log_b:
        return LogAmplitude.zero()
    big, small = max(log_a, log_b), min(log_a, log_b)
    if small == LOG_ZERO:
        rel = 0.0
    else:
        rel = math.log1p(-math.exp(small - big))
    if rel < CANCEL_LOG:
        return LogAmplitude.zero()
    sign = sign_a if log_a > log_b else -sign_a
    return LogAmplitude(sign, big + rel)


def log_sum(entries) -> LogAmplitude:
    """Sum an iterable of ``LogAmplitude`` through :func:`signed_logsumexp`."""
    entries = list(entries)
    sign, log = signed_logsumexp([e.sign for e in entries], [e.log_mag for e in entries])
    return LogAmplitude(int(sign), float(log))


# ---------------------------------------------------------------------------
# the array kernel
# ---------------------------------------------------------------------------

def signed_add(sign_a, log_a, sign_b, log_b) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise sign and log of ``sign_a*exp(log_a) + sign_b*exp(log_b)``.

    A zero sign goes with a ``-inf`` log.  Opposite-signed operands whose
    difference falls below ``CANCEL_LOG`` relative to the larger cancel to
    exact zero, as in :func:`log_sub_magnitudes`; an operand added to zero
    comes back bit for bit.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        big = np.maximum(log_a, log_b)
        sign = np.where(log_a >= log_b, sign_a, sign_b)
        ratio = np.exp(np.minimum(log_a, log_b) - big)  # nan when both are zero
        rel = np.log1p(ratio * (sign_a * sign_b))
        zero = ~(rel >= CANCEL_LOG)
    return np.where(zero, 0, sign).astype(np.int8), np.where(zero, LOG_ZERO, big + rel)


def signed_logsumexp(signs, logs) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log of ``sum(signs * exp(logs))`` over the last axis.

    Broadcasts over the leading axes; a zero sign goes with a ``-inf`` log.
    Every entry is shifted by the row's largest log before exponentiating
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 2021), so nothing
    overflows.  A sum below ``CANCEL_LOG`` relative to the summed magnitudes
    is exact zero, as is an empty or all-zero row (sign 0, log ``-inf``).
    """
    logs = np.asarray(logs, dtype=float)
    top = np.max(logs, axis=-1, initial=LOG_ZERO, keepdims=True)
    shift = np.where(top > LOG_ZERO, top, 0.0)
    terms = signs * np.exp(logs - shift)
    total = np.sum(terms, axis=-1)
    size = np.abs(total)
    live = size > _CANCEL * np.sum(np.abs(terms), axis=-1)
    with np.errstate(divide="ignore"):
        log = np.log(size) + shift[..., 0]
    return np.where(live, np.sign(total), 0).astype(np.int8), np.where(live, log, LOG_ZERO)


# ---------------------------------------------------------------------------
# tail functions in the log domain
# ---------------------------------------------------------------------------

# math.erfc is accurate to the last bits down to its underflow near x = 27;
# past this point the asymptotic series is accurate to rounding
_ERFC_SERIES_FROM = 25.0
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def log_erfc(x: float) -> float:
    """``log(erfc(x))`` without underflow for large ``x``.

    ``math.erfc`` below 25; above, the asymptotic expansion
    ``erfc(x) = exp(-x**2) / (x sqrt(pi)) * sum_k (-1)**k (2k-1)!! / (2x**2)**k``,
    summed until a term drops below float64 resolution.  Term ``k`` is
    ``(2k-1) / (2x**2) <= (2k-1) / 1250`` times the one before, so a few
    terms suffice, and the error is below the first omitted term.
    """
    x = float(x)
    if x < _ERFC_SERIES_FROM:
        return math.log(math.erfc(x))
    inv = 0.5 / (x * x)
    series, term, k = 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * inv
        series += term
        k += 1
    return -x * x - math.log(x) - _LOG_SQRT_PI + math.log(series)


# B_2j / (2j)! for j = 1..9
_BERNOULLI_OVER_FACTORIAL = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
    43867.0 / 5109094217170944000.0,
)
# terms below exp(-50) of the leading one are invisible in float64
_NEGLIGIBLE_LOG = -50.0


def log_hurwitz_zeta(s: float, a: float) -> float:
    """``log(zeta(s, a))``, the log of ``sum_{k >= 0} (a + k)**(-s)``, for
    ``s > 1`` and ``a >= 1``.

    A short direct sum up to ``u = a + n``, then Euler–Maclaurin at ``u``
    (Johansson, arXiv:1309.2877).  With ``u >= 1.5 s + 10`` the Bernoulli
    terms shrink by about ``((s + 2j) / (2 pi u))**2`` each, so nine of them
    reach float64 resolution.  Everything is scaled by ``a**-s`` first, so
    the result never underflows.  When the direct terms fall below
    ``exp(-50)`` of the first one before ``u`` is reached, their sum is the
    value to rounding and the expansion is skipped.
    """
    s, a = float(s), float(a)
    if not (s > 1.0 and a >= 1.0 and math.isfinite(s) and math.isfinite(a)):
        raise ValueError(f"log_hurwitz_zeta needs s > 1 and a >= 1, got s={s!r}, a={a!r}")
    n = max(0, math.ceil(1.5 * s + 10.0 - a))
    visible = math.ceil(a * math.expm1(-_NEGLIGIBLE_LOG / s))
    direct = 0.0
    if min(n, visible):
        k = np.arange(min(n, visible), dtype=float)
        direct = float(np.sum(np.exp(-s * np.log1p(k / a))))
        if visible <= n:
            return -s * math.log(a) + math.log(direct)
    u = a + n
    # zeta(s, u) * u**s = u/(s-1) + 1/2 + sum_j B_2j/(2j)! (s)_{2j-1} u**(1-2j)
    expansion = u / (s - 1.0) + 0.5
    rising, power = s, 1.0 / u
    for j, coeff in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
        expansion += coeff * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= u * u
    scaled_tail = math.exp(-s * math.log1p(n / a)) * expansion
    return -s * math.log(a) + math.log(direct + scaled_tail)
