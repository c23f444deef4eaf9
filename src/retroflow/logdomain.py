"""Sign / log-magnitude scalars and overflow-proof accumulation.

Backward evolution multiplies mode ``n`` by ``exp(n**2 * pi**2 * t)``, which
leaves float range around mode 15 already at ``t = 1``.  All coefficient
arithmetic therefore lives in the log domain: a value is a sign in
``{-1, 0, +1}`` together with the natural log of its magnitude.

Every sum of sign/log values goes through :func:`signed_add`, elementwise,
or :func:`signed_logsumexp`, one row to Python scalars.  Every tail series goes
through one primitive, :func:`log_tail_sum`, the log of
``sum_{n >= m} n**-p exp(-c n**2)``: a short numpy head and an
Euler–Maclaurin remainder around an upper incomplete gamma function, or
around ``M / (p - 1)`` when ``c = 0``.  Its value, ``c = 0`` included, is an
upper bound on the sum, within 1e-12 relative while the log of the first
term is above -450, so the norms, pairings and certificates built from it
err upward.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

LOG_ZERO = float("-inf")

# A difference of same-magnitude terms counts as exact zero once the residual
# drops below this relative magnitude (the float64 subnormal floor).
CANCEL_LOG = math.log(1e-300)
_CANCEL = math.exp(CANCEL_LOG)
_FLOOR = -np.finfo(float).max  # the most negative finite log


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
        return self.sign * exp_or_inf(self.log_mag)

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


def exp_or_inf(log_value: float) -> float:
    """Decode a log value to a float, overflowing honestly to ``inf``."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def log_add(a: LogAmplitude, b: LogAmplitude) -> LogAmplitude:
    """Sign-aware addition of two log-domain scalars by :func:`signed_add`."""
    sign, log = signed_add(a.sign, a.log_mag, b.sign, b.log_mag)
    return LogAmplitude(int(sign), float(log))


def log_sum(entries) -> LogAmplitude:
    """Sum an iterable of ``LogAmplitude`` through :func:`signed_logsumexp`."""
    entries = list(entries)
    return LogAmplitude(*signed_logsumexp([e.sign for e in entries], [e.log_mag for e in entries]))


# ---------------------------------------------------------------------------
# the array kernel
# ---------------------------------------------------------------------------

def signed_add(sign_a, log_a, sign_b, log_b) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise sign and log of ``sign_a*exp(log_a) + sign_b*exp(log_b)``.

    A zero sign goes with a ``-inf`` log.  Opposite-signed operands whose
    difference falls below ``CANCEL_LOG`` relative to the larger cancel to
    exact zero; an operand added to zero comes back bit for bit.
    """
    sign = np.where(log_a >= log_b, sign_a, sign_b)  # the larger's, in the broadcast shape
    big = np.maximum(log_a, log_b)
    ratio = np.minimum(log_a, log_b, out=np.empty(sign.shape))
    ratio -= np.maximum(big, _FLOOR)  # two zeros give exp(-inf) = 0, not exp(nan)
    np.exp(ratio, out=ratio)
    ratio *= sign_a * sign_b
    # exact cancellation (ratio -1) takes no log: it keeps the -inf fill
    rel = np.log1p(ratio, out=np.full(sign.shape, LOG_ZERO), where=ratio > -1.0)
    sign *= rel >= CANCEL_LOG
    rel += big
    return sign.astype(np.int8, copy=False), rel


def signed_logsumexp(signs, logs) -> tuple[int, float]:
    """Sign and log of ``sum(signs * exp(logs))`` over one row, as a Python
    ``int`` and ``float``; a zero sign goes with a ``-inf`` log.

    Every entry is shifted by the row's largest log before exponentiating
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 2021), so nothing
    overflows.  The reductions are numpy's, the rest is scalar.  A sum below
    ``CANCEL_LOG`` relative to the summed magnitudes is exact zero, as is an
    empty or all-zero row."""
    logs = np.asarray(logs, dtype=float)
    top = float(logs.max(initial=LOG_ZERO))
    shift = top if top > LOG_ZERO else 0.0
    terms = signs * np.exp(logs - shift)
    total = float(terms.sum())
    if not abs(total) > _CANCEL * float(np.abs(terms).sum()):
        return 0, LOG_ZERO
    # numpy's log, not math.log: the two may differ in the last bit
    return (1 if total > 0.0 else -1), float(np.log(abs(total))) + shift


# ---------------------------------------------------------------------------
# tail functions in the log domain
# ---------------------------------------------------------------------------

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_ULP = 2.0**-52


def _scaled_upper_gamma(s: float, x: float) -> float:
    """``exp(x) * x**-s * Γ(s, x)``, for real ``s`` and finite ``x > 0``.

    From ``x = 2`` on, the continued fraction DLMF 8.9.2 by the modified Lentz
    method.  Below, ``Γ(s, 2) + int_x^2 t**(s-1) e**-t dt`` with ``e**-t``
    expanded: term ``k`` is ``(-2)**k / k! * 2**s (1 - q**(s+k)) / (s+k)`` with
    ``q = x / 2``, through ``expm1`` so that ``s + k = 0`` (an odd integer tail
    power) is its limit ``-log q``, and scaled by ``x**-s`` so nothing overflows.
    """
    if x < 2.0:
        log_q = math.log(0.5 * x)
        total = math.exp(-s * log_q - 2.0) * _scaled_upper_gamma(s, 2.0)
        k, coeff, term = 0, 1.0, math.inf
        while k <= -s or term > _ULP * total:
            gap = abs(s + k)
            part = -math.expm1(gap * log_q) / gap if gap else -log_q
            term = coeff * math.exp(min(-s, k) * log_q) * part
            total += -term if k % 2 else term
            k += 1
            coeff *= 2.0 / k
        return math.exp(x) * total
    b = x + 1.0 - s
    lentz_c, lentz_d, delta, i = math.inf, 1.0 / b, 0.0, 0
    value = lentz_d
    while abs(delta - 1.0) > _ULP:
        i += 1
        b += 2.0
        lentz_d = 1.0 / (b - i * (i - s) * lentz_d)
        lentz_c = b - i * (i - s) / lentz_c
        delta = lentz_c * lentz_d
        value *= delta
    return value


def log_erfc(x: float) -> float:
    """``log(erfc(x))`` without underflow: ``erfc(x) = Γ(1/2, x**2) / sqrt(pi)``."""
    x = float(x)
    if not 0.0 < x < math.inf:  # +inf gives -inf, nan gives nan
        return math.log(math.erfc(x)) if x <= 0.0 else -x
    return math.log(_scaled_upper_gamma(0.5, x * x)) + math.log(x) - x * x - _LOG_SQRT_PI


# B_2j / (2j)! for j = 1..8
_BERNOULLI_OVER_FACTORIAL = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
)


# log_tail_sum expands from M = max(m, 4p + 24) when the terms' log-derivative
# p/M + 2cM is at most _EM_RATE there; the remainder bound then stays below
# 2e-15 of the sum over p in [0, 60], c in [1e-20, 50] and m in [1, 1e7], and
# below 3e-18 of it for c = 0 over p in (1, 400] and m in [1, 5e7].
# Otherwise the head runs until the terms fall below exp(-_HEAD_CUT) of the
# first, at most about 520 of them (about 200 when c = 0).  _TAIL_SUM_MARGIN
# covers the rounding of the head, the incomplete gamma and the expansion,
# each below 1e-14 relative.
_EM_TERMS = 8
_EM_RATE = 0.35
_HEAD_CUT = 50.0
_TAIL_SUM_MARGIN = 1e-13
_FLOAT_MAX = sys.float_info.max
# B_2j / (2j) weighs the (2j-1)-th Taylor coefficient in the expansion
_EM_WEIGHTS = [b * math.factorial(2 * j - 1) for j, b in enumerate(_BERNOULLI_OVER_FACTORIAL, 1)]
_LOG_B2K = math.log(abs(_BERNOULLI_OVER_FACTORIAL[_EM_TERMS - 1]) * math.factorial(2 * _EM_TERMS))


def _euler_maclaurin(p: float, c: float, M: int) -> tuple[float, float]:
    """``sum_{n >= M} f(n) / f(M)`` for ``f(x) = x**-p exp(-c x**2)`` by
    Euler–Maclaurin (DLMF 2.10.1), and a bound on its remainder.

    The remainder is at most ``|B_2k| / (2k)! * int_M^inf |f^(2k)|``.  On a
    circle of radius ``r`` about ``x``, ``|f| <= (x-r)**-p exp(-c (x-r)**2 + 2cr**2)``,
    so Cauchy's estimate bounds the integral by
    ``(2k)! r**-2k exp(2cr**2) (r max_[M-r, M] f + int_M^inf f)``, with ``r``
    the smaller of ``2k / (p/M + 2cM)`` and, for ``c > 0``, ``sqrt(k / 2c)``,
    and at most ``M/2`` when ``p > 0``, where ``f`` is singular at 0.  The
    integral over ``f(M)`` is ``M / (p - 1)`` when ``c = 0``.
    """
    k2, z = 2 * _EM_TERMS, c * M * M
    integral = 0.5 * M * _scaled_upper_gamma(0.5 * (1.0 - p), z) if c else M / (p - 1.0)
    # Taylor coefficients T of f(M + t) / f(M): (M + t) f' = -(p + 2c (M + t)**2) f
    # gives M (n+1) T[n+1] = -(p + 2c M**2 + n) T[n] - 4cM T[n-1] - 2c T[n-2]
    corrections, t0, t1, t2 = 0.0, 1.0, 0.0, 0.0
    a0, a1, a2 = p + 2.0 * z, 4.0 * c * M, 2.0 * c
    for n in range(k2 - 1):
        t0, t1, t2 = -((a0 + n) * t0 + a1 * t1 + a2 * t2) / (M * (n + 1)), t0, t1
        if n % 2 == 0:
            corrections += _EM_WEIGHTS[n // 2] * t0
    r = min(k2 / (p / M + 2.0 * c * M), math.sqrt(0.5 * _EM_TERMS) / math.sqrt(c) if c else math.inf)
    r = min(r, 0.5 * M) if p else r
    lo = max(M - r, 0.0)
    near = math.log(r) + c * (M - lo) * (M + lo) + (p * math.log(M / lo) if p else 0.0)
    far = math.log(integral)
    log_bound = (_LOG_B2K - k2 * math.log(r) + 2.0 * c * r * r
                 + max(near, far) + math.log1p(math.exp(-abs(near - far))))
    return integral + 0.5 - corrections, math.exp(log_bound)


def log_tail_sum(p: float, c: float, m: int) -> float:
    """``log(sum_{n >= m} f(n))`` with ``f(n) = n**-p * exp(-c * n**2)``, for
    ``p >= 0``, ``c >= 0``, ``p > 1`` when ``c = 0`` (the Hurwitz zeta
    value), and an integer ``m >= 1``.

    A numpy head of explicit terms from ``m``, then the rest from ``M``: by
    :func:`_euler_maclaurin` around ``int_M^inf f = c**((p-1)/2) Γ((1-p)/2, cM**2) / 2``,
    which is ``M**(1-p) / (p - 1)`` when ``c = 0``, or, once the terms have
    fallen below ``exp(-50)`` of the first, as at most ``f(M) + int_M^inf f``,
    with the integral at most ``f(M) / (2cM)`` for ``c > 0`` and, for
    ``p > 1``, ``f(M) M / (p - 1)``.  The result is rounded up:
    the remainder bound is added, then ``1e-13 + 2**-50 |log f(m)|``
    for the rounding of the sum and of the log.  It exceeds the exact value by
    at most ``2e-13 + 2**-49 |log f(m)|`` relative: 1e-12 while
    ``|log f(m)| <= 450``, a few units in the last place of the log beyond.
    """
    p, c = float(p), float(c)
    if not (0.0 <= p < math.inf and 0.0 <= c < math.inf and (c or p > 1.0)
            and m >= 1 and float(m).is_integer()):
        raise ValueError("log_tail_sum needs p, c >= 0, p > 1 if c = 0, and an integer m >= 1,"
                         f" got {p, c, m}")
    # the head reaches where terms fall below exp(-_HEAD_CUT) of the first,
    # by the Gaussian factor or, if it falls faster there, by the power
    reach = math.sqrt(m * m + _HEAD_CUT / c) if c else math.inf
    if p * math.log(reach / m) > _HEAD_CUT:
        reach = m * math.exp(_HEAD_CUT / p)
    # a 4p past reach would not expand either, and can overflow
    end = max(m, math.ceil(min(4.0 * p, reach)) + 24)
    expand = end < reach and p / end + 2.0 * c * end <= _EM_RATE
    if not expand:
        end = max(m + 1, math.ceil(reach))
    head, last = 0.0, 0.0  # terms m..end-1, and the log of term end, over term m
    if end > m:
        k = np.arange(end - m + 1, dtype=float)
        logs = -c * k * (k + 2.0 * m) - (p * np.log1p(k / m) if p else 0.0)
        head, last = float(np.sum(np.exp(logs[:-1]))), float(logs[-1])
    if expand:
        rest, bound = _euler_maclaurin(p, c, end)
    else:  # f(end) + int_end^inf f, the integral bounded by either factor alone
        gauss = 0.5 / (c * end) if c else math.inf
        rest, bound = 1.0 + min(gauss, end / (p - 1.0) if p > 1.0 else math.inf), 0.0
    # a log past float range clamps to the most negative float, still above the exact value
    top = max(-p * math.log(m) - c * m * m, -_FLOAT_MAX)
    value = top + math.log(head + math.exp(last) * (rest + bound))
    return value + _TAIL_SUM_MARGIN + 2.0**-50 * abs(top)
