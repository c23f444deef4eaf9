"""Sign/log-magnitude arithmetic against plain float arithmetic, and the
array kernel and log-valued tail functions against mpmath."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import mp_log_tail_sum
from retroflow.logdomain import (
    LOG_ZERO,
    LogAmplitude,
    log_add,
    log_erfc,
    log_sum,
    _scaled_upper_gamma,
    log_tail_sum,
    signed_add,
    signed_logsumexp,
)


def test_zero_encoding():
    z = LogAmplitude.from_linear(0.0)
    assert z.sign == 0
    assert z.log_mag == LOG_ZERO
    assert z.to_linear() == 0.0


def test_roundtrip_simple_values():
    # relative roundtrip error grows like |log(v)| * ulp
    for v in (1.0, -2.5, 3e-120, -7e200):
        back = LogAmplitude.from_linear(v).to_linear()
        assert back == pytest.approx(v, rel=1e-13)


def test_invalid_sign_rejected():
    with pytest.raises(ValueError):
        LogAmplitude(2, 0.0)


def test_nonfinite_log_rejected():
    with pytest.raises(ValueError):
        LogAmplitude(1, math.inf)
    with pytest.raises(ValueError):
        LogAmplitude(1, math.nan)


def test_overflow_decodes_to_inf():
    assert LogAmplitude(1, 1000.0).to_linear() == math.inf
    assert LogAmplitude(-1, 1000.0).to_linear() == -math.inf


def test_exact_cancellation():
    a = LogAmplitude.from_linear(3.25)
    assert log_add(a, LogAmplitude(-a.sign, a.log_mag)).sign == 0


def test_near_total_cancellation_snaps_to_zero():
    a = LogAmplitude(1, 100.0)
    b = LogAmplitude(-1, 100.0 + 1e-320)
    assert log_add(a, b).sign == 0


def test_log_add_of_magnitudes_one_ulp_apart_does_not_raise():
    # below |x| = 0.5 the logs' spacing is under half the spacing of 1.0, so
    # exp of their difference rounds to 1 and a log1p(-1) would follow
    x = 0.3611960753068763
    got = log_add(LogAmplitude(1, x), LogAmplitude(-1, float(np.nextafter(x, 1))))
    want_sign, want_log = signed_add(1, x, -1, float(np.nextafter(x, 1)))
    assert (got.sign, got.log_mag) == (int(want_sign), float(want_log))
    assert got.sign == 0 or got.log_mag < x - 30.0


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
    lambda v: v == 0.0 or abs(v) > 1e-6
)


@settings(max_examples=300, deadline=None)
@given(finite, finite)
def test_log_add_matches_float_addition(x, y):
    got = log_add(LogAmplitude.from_linear(x), LogAmplitude.from_linear(y)).to_linear()
    want = x + y
    biggest = max(abs(x), abs(y))
    if want == 0.0 or abs(want) < 1e-9 * biggest:
        # catastrophic cancellation: only the magnitude bound is meaningful
        assert abs(got) <= biggest * 1e-8
    else:
        # precision degrades with the cancellation ratio
        assert got == pytest.approx(want, rel=1e-12 + 1e-13 * biggest / abs(want))


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, min_size=1, max_size=12))
def test_log_sum_matches_fsum(values):
    got = log_sum(LogAmplitude.from_linear(v) for v in values).to_linear()
    want = math.fsum(values)
    biggest = max(abs(v) for v in values)
    if want == 0.0 or abs(want) < 1e-9 * biggest:
        assert abs(got) <= biggest * 1e-8
    else:
        assert got == pytest.approx(want, rel=1e-12 + 1e-12 * biggest / abs(want))


# --- the array kernel ---------------------------------------------------------

def mp_signed_sum(signs, logs):
    """Reference sign and log of sum(signs * exp(logs)) at 60 digits."""
    with mp.workdps(60):
        total = mp.fsum(int(sg) * mp.exp(mp.mpf(float(lg))) for sg, lg in zip(signs, logs) if sg)
        if total == 0:
            return 0, LOG_ZERO
        return (1 if total > 0 else -1), float(mp.log(abs(total)))


def test_signed_logsumexp_against_mpmath():
    rng = np.random.default_rng(3)
    for size in (1, 2, 8, 256):
        for spread in (1.0, 50.0, 800.0):  # 800: most terms below exp(-745) of the top
            signs = rng.integers(-1, 2, size=size)
            logs = np.where(signs != 0, rng.normal(scale=spread, size=size) + 1e4, LOG_ZERO)
            sign, log = signed_logsumexp(signs, logs)
            want_sign, want_log = mp_signed_sum(signs, logs)
            assert int(sign) == want_sign
            if want_sign:
                # rounding of the result, plus the summation error magnified by
                # the cancellation ratio sum(|terms|) / |sum|
                _, log_abs = mp_signed_sum(np.abs(signs), logs)
                bound = 4 * np.spacing(abs(want_log)) + 4e-16 * size * math.exp(log_abs - want_log)
                assert abs(float(log) - want_log) <= bound


def test_signed_logsumexp_cancels_to_exact_zero():
    logs = np.array([700.0, math.log(3.0) + 700.0, 700.0, math.log(3.0) + 700.0])
    sign, log = signed_logsumexp([1, 1, -1, -1], logs)
    assert int(sign) == 0 and float(log) == LOG_ZERO


def test_signed_logsumexp_empty_and_all_zero_rows():
    assert [float(v) for v in signed_logsumexp([], [])] == [0.0, LOG_ZERO]
    sign, log = signed_logsumexp([0, 0], [LOG_ZERO, LOG_ZERO])
    assert int(sign) == 0 and float(log) == LOG_ZERO


def test_signed_logsumexp_far_outside_float_range():
    # 1e5 copies of exp(1e6): a float64 sum would overflow long before
    sign, log = signed_logsumexp(np.ones(100_000), np.full(100_000, 1e6))
    assert int(sign) == 1
    assert float(log) == pytest.approx(1e6 + math.log(1e5), rel=1e-15)


def _reference_signed_logsumexp(signs, logs):
    """The kernel as first written, with the numpy wrappers and ``np.errstate``."""
    from retroflow.logdomain import _CANCEL

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


def _kernel_inputs(seed, rows, size, spread):
    """Random rows with some all-zero rows and some cancelling to exact zero."""
    rng = np.random.default_rng(seed)
    signs = rng.integers(-1, 2, size=(rows, size)).astype(np.int8)
    logs = np.where(signs != 0, rng.normal(scale=spread, size=(rows, size)), LOG_ZERO)
    if size >= 2:
        signs[1::3], logs[1::3] = 0, LOG_ZERO
        half = size // 2
        signs[2::3, half:2 * half] = -signs[2::3, :half]
        logs[2::3, half:2 * half] = logs[2::3, :half]
        if size % 2:
            signs[2::3, -1], logs[2::3, -1] = 0, LOG_ZERO
    return signs, logs


def _same_bits(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


def _same_row(got, want):
    """The kernel's Python ``int`` and ``float`` against the reference's
    0-d arrays, bit for bit."""
    (sign, log), (want_sign, want_log) = got, want
    return (type(sign) is int and type(log) is float and sign == want_sign
            and np.float64(log).tobytes() == want_log.tobytes())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 40),
       st.sampled_from([1.0, 30.0, 800.0]))
def test_signed_logsumexp_matches_the_reference_bit_for_bit(seed, rows, size, spread):
    signs, logs = _kernel_inputs(seed, rows, size, spread)
    for row_signs, row_logs in zip(signs, logs):
        for args in ((row_signs, row_logs), (list(row_signs), list(row_logs)),
                     (1, np.where(row_signs != 0, row_logs, LOG_ZERO))):
            assert _same_row(signed_logsumexp(*args), _reference_signed_logsumexp(*args))


def test_signed_logsumexp_matches_the_reference_on_empty_and_zero_rows():
    # the last two sums are nonzero but below CANCEL_LOG relative: exact zero
    for args in (([], []), *zip(np.zeros((3, 0), np.int8), np.zeros((3, 0))),
                 (np.zeros(5, np.int8), np.full(5, LOG_ZERO)), (1, np.full(2, LOG_ZERO)),
                 ([1, -1], [2.0, 2.0]), ([1, -1, 1], [700.0, 700.0, -800.0]),
                 ([1, -1, 1], [0.0, 0.0, -700.0]), ([1, -1, -1], [5.0, 5.0, -695.0])):
        assert _same_row(signed_logsumexp(*args), _reference_signed_logsumexp(*args))


def test_signed_add_matches_mpmath_and_cancels():
    rng = np.random.default_rng(5)
    sa, sb = rng.integers(-1, 2, size=200), rng.integers(-1, 2, size=200)
    la = np.where(sa != 0, rng.normal(scale=30.0, size=200), LOG_ZERO)
    lb = np.where(sb != 0, la + rng.normal(scale=3.0, size=200), LOG_ZERO)
    lb[:10], sb[:10] = la[:10], -sa[:10]  # exact cancellations
    sign, log = signed_add(sa, la, sb, lb)
    for i in range(200):
        want_sign, want_log = mp_signed_sum((sa[i], sb[i]), (la[i], lb[i]))
        assert sign[i] == want_sign
        if want_sign:
            _, log_abs = mp_signed_sum((abs(sa[i]), abs(sb[i])), (la[i], lb[i]))
            cancellation = math.exp(log_abs - want_log)
            assert abs(log[i] - want_log) < 1e-14 * cancellation * max(1, abs(want_log))


def _reference_signed_add(sign_a, log_a, sign_b, log_b):
    """The elementwise kernel as first written, with ``np.where`` and ``np.errstate``."""
    from retroflow.logdomain import CANCEL_LOG

    with np.errstate(divide="ignore", invalid="ignore"):
        big = np.maximum(log_a, log_b)
        sign = np.where(log_a >= log_b, sign_a, sign_b)
        ratio = np.exp(np.minimum(log_a, log_b) - big)  # nan when both are zero
        rel = np.log1p(ratio * (sign_a * sign_b))
        zero = ~(rel >= CANCEL_LOG)
    return np.where(zero, 0, sign).astype(np.int8), np.where(zero, LOG_ZERO, big + rel)


def _operands(rng, size, spread):
    signs = rng.integers(-1, 2, size=size).astype(np.int8)
    return signs, np.where(signs != 0, rng.normal(scale=spread, size=size), LOG_ZERO)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.sampled_from([1.0, 30.0, 800.0]))
def test_signed_add_matches_the_reference_bit_for_bit(seed, size, spread):
    # zero operands, both zero, exact cancellation, and a residual of one
    # ulp of the larger operand, which is far above CANCEL_LOG and is kept
    rng = np.random.default_rng(seed)
    (sa, la), (sb, lb) = _operands(rng, size, spread), _operands(rng, size, spread)
    sb[::4], lb[::4] = -sa[::4], la[::4]
    sb[1::4], lb[1::4] = -sa[1::4], np.nextafter(la[1::4], -np.inf)
    sa[2::5], la[2::5] = 0, LOG_ZERO
    cases = [(sa, la, sb, lb), (sb, lb, sa, la), (sa, list(la), sb, list(lb))]
    if size:
        # scalar operands, and scalars broadcast against arrays
        a, b = (int(sa[0]), float(la[0])), (int(sb[-1]), float(lb[-1]))
        cases += [(*a, *b), (*a, sb, lb), (sa, la, *b), (1, 2.5, -1, 2.5), (0, LOG_ZERO, 0, LOG_ZERO)]
    for args in cases:
        assert _same_bits(signed_add(*args), _reference_signed_add(*args))
    # the scalar log_add follows the kernel bit for bit, pair by pair
    for a, b in zip(zip(sa.tolist(), la.tolist()), zip(sb.tolist(), lb.tolist())):
        got = log_add(LogAmplitude(*a), LogAmplitude(*b))
        sign, log = signed_add(*a, *b)
        assert got.sign == sign and np.float64(got.log_mag).tobytes() == log.tobytes()


def test_signed_add_of_zero_is_bitwise_identity():
    logs = np.array([-3.25, 0.1, 1e300 ** 0.5, -7e10])
    signs = np.array([1, -1, 1, -1], dtype=np.int8)
    zeros = np.zeros(4, dtype=np.int8)
    sign, log = signed_add(signs, logs, zeros, np.full(4, LOG_ZERO))
    assert np.array_equal(sign, signs) and np.array_equal(log, logs)
    sign, log = signed_add(zeros, np.full(4, LOG_ZERO), signs, logs)
    assert np.array_equal(sign, signs) and np.array_equal(log, logs)


# --- log-valued tail functions ------------------------------------------------

def close_in_log(got, want, rtol=1e-14):
    """Agreement of logs relative to their size: a float64 log near -1000 is
    itself resolved only to about 2e-13."""
    return abs(got - want) <= rtol * max(1.0, abs(want))


# c = 0: the Hurwitz zeta value, through the same rounded-up expansion
ZETA_S = (1.001, 1.5, 2.0, 3.7, 12.5, 33.3, 55.03, 60.0)
ZETA_A = (2, 7, 64, 630, 10_003, 1_000_001, 50_000_000)


@pytest.mark.parametrize("s", ZETA_S)
def test_log_hurwitz_zeta_against_mpmath(s):
    for a in ZETA_A:
        excess, allowed = tail_sum_excess(s, 0.0, a)
        assert 0.0 <= excess <= allowed, (s, a)


def test_log_hurwitz_zeta_where_the_value_underflows():
    # zeta(60, 10**6 + 1) is about 1e-360, below the float64 range
    excess, allowed = tail_sum_excess(60.0, 0.0, 1_000_001)
    assert 0.0 <= excess <= allowed
    assert log_tail_sum(60.0, 0.0, 1_000_001) < math.log(5e-324)


def test_log_hurwitz_zeta_large_order_takes_the_direct_sum():
    excess, allowed = tail_sum_excess(400.0, 0.0, 3)
    assert 0.0 <= excess <= allowed


def test_log_hurwitz_zeta_domain():
    for s, a in ((1.0, 2), (0.5, 2), (2.0, 0.5), (math.nan, 2)):
        with pytest.raises(ValueError):
            log_tail_sum(s, 0.0, a)


@pytest.mark.parametrize("x", [-3.0, -0.5, 0.0, 1e-8, 0.7, 3.3, 10.0, 24.9, 25.0, 25.1,
                               26.7, 27.3, 30.0, 60.0, 1e3, 1e6])
def test_log_erfc_against_mpmath(x):
    # x > 0 goes through Γ(1/2, x**2), finite past the underflow of erfc near 27.2
    with mp.workdps(50):
        want = float(mp.log(mp.erfc(x)))
    assert close_in_log(log_erfc(x), want)


def test_log_erfc_limits():
    assert log_erfc(math.inf) == -math.inf
    assert math.isnan(log_erfc(math.nan))


@pytest.mark.parametrize("s", [0.5, 0.25, 0.0, 1e-12, -1e-9, -0.5, -0.9999999, -1.0, -2.0, -7.3, -29.5])
def test_upper_gamma_against_mpmath(s):
    # series below x = 2 (through s + k = 0 at integer s), continued fraction above
    for x in (1e-300, 1e-20, 1e-9, 0.1, 1.0, 1.999, 2.0, 2.001, 3.0, 100.0, 1e12):
        with mp.workdps(50):
            want = float(mp.log(mp.gammainc(s, x, mp.inf)))
        got = math.log(_scaled_upper_gamma(s, x)) + s * math.log(x) - x
        assert close_in_log(got, want, rtol=2e-14), (s, x)


def tail_sum_excess(p, c, m):
    """``log_tail_sum`` less the exact log, and the excess its docstring allows."""
    got = log_tail_sum(p, c, m)
    with mp.workdps(40):
        excess = float(mp.mpf(got) - mp_log_tail_sum(p, c, m))
        log_first = float(-p * mp.log(m) - c * mp.mpf(m) ** 2)
    return excess, 2e-13 + 2.0**-49 * abs(log_first)


# exponential tails at rate a from the first tail mode, and ExpTail(rate, 1) x
# PowerTail(1, 1) cross terms past 8 modes: a termwise loop summed these low
TAIL_SUMS_SUMMED_LOW = [(0.0, 1e-3, 2), (0.0, 1e-4, 257), (0.0, 1.1e-6, 2),
                        (1.0, 1e-9 * math.pi**2, 9), (1.0, 1e-10 * math.pi**2, 9)]


@pytest.mark.parametrize("p, c, m", TAIL_SUMS_SUMMED_LOW)
def test_log_tail_sum_is_an_upper_value(p, c, m):
    excess, _ = tail_sum_excess(p, c, m)
    assert 0.0 <= excess < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    p=st.floats(0.0, 60.0),
    c=st.one_of(st.just(0.0), st.floats(-20.0, math.log10(50.0)).map(lambda e: 10.0**e)),
    m=st.one_of(st.integers(1, 300), st.integers(1, 10**7)),
)
def test_log_tail_sum_against_mpmath(p, c, m):
    assume(c > 0.0 or p > 1.0)
    excess, allowed = tail_sum_excess(p, c, m)
    assert 0.0 <= excess <= allowed


@pytest.mark.parametrize("p, c, m", [
    (58.66783898691812, 2.0320084300837563e-09, 281),  # Euler–Maclaurin at M = m
    (0.5000001, 0.004080921721377989, 33),  # the largest remainder bound on a grid
    (3.0000001, 1e-3, 3),  # incomplete gamma of order -1 + 5e-8
    (1.0, 1e-9, 10**7), (0.0, 1e-20, 10**7), (60.0, 1e-20, 1), (0.0, 50.0, 10**7),
    (0.0, 5e-324, 9), (1.0, 5e-324, 9),  # the smallest positive rate
    (1.000000000001, 0.0, 5 * 10**7), (400.0, 0.0, 5 * 10**7),  # the ends of c = 0
    (1.2404099183509965, 0.0, 1),  # the largest c = 0 remainder bound on a grid
])
def test_log_tail_sum_corners(p, c, m):
    excess, allowed = tail_sum_excess(p, c, m)
    assert 0.0 <= excess <= allowed


@pytest.mark.parametrize("p", [100.0, 1e3, 1e9])
def test_log_tail_sum_at_large_powers_sums_a_short_head(p):
    # n**-p falls below exp(-50) of the first term within a step or two, so
    # the head stays short however large p is
    for c, m in ((1e-20, 1), (1e-3, 5), (50.0, 10**7)):
        start = time.perf_counter()
        got = log_tail_sum(p, c, m)
        assert time.perf_counter() - start < 0.05
        with mp.workdps(40):
            terms = [mp.power(n, -p) * mp.exp(-c * mp.mpf(n) ** 2) for n in range(m, m + 3)]
            want = mp.log(mp.fsum(terms))
            excess = float(mp.mpf(got) - want)
            log_first = float(mp.log(terms[0]))
        assert 0.0 <= excess <= 2e-13 + 2.0**-49 * abs(log_first), (c, m)


@pytest.mark.parametrize("p", [5.5, 10.0, 60.0])
def test_log_tail_sum_at_a_vanishing_rate_is_the_zeta_value(p):
    # sum n**-p exp(-c n**2) = zeta(p, m) - c zeta(p - 2, m) + O(c**2) for p > 5
    c = 1e-20
    for m in (1, 9, 10**6):
        with mp.workdps(60):
            want = mp.log(mp.zeta(p, m) - c * mp.zeta(p - 2, m))
            excess = float(mp.mpf(log_tail_sum(p, c, m)) - want)
        assert 0.0 <= excess < 1e-12 + 2.0**-49 * float(abs(want)), (p, m)


def test_log_tail_sum_domain():
    for p, c, m in ((-1.0, 1.0, 1), (1.0, -1.0, 1), (1.0, 1.0, 0), (1.0, 1.0, 1.5),
                    (math.nan, 1.0, 1), (1.0, math.inf, 1), (1.0, 0.0, 1)):
        with pytest.raises(ValueError):
            log_tail_sum(p, c, m)
