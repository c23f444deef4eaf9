"""Soundness of the tail-envelope algebra.

The library's guarantees lean on envelopes *dominating* the true coefficient
magnitudes through every transformation.  These tests check the domination
inequalities pointwise over mode grids and the series evaluations against
high-precision summation.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import retroflow as rf
from retroflow.logdomain import log_tail_sum
from retroflow.spectral import (
    _log_sup_power_vs_gauss,
    _tail_cross_log,
    combine_tails_add,
    combine_tails_sub,
)


def law_values(tail, modes):
    """Evaluate a tail law on an iterable of mode indices."""
    if isinstance(tail, rf.ZeroTail):
        return np.zeros(len(modes))
    if isinstance(tail, rf.ExpTail):
        return np.array([tail.coeff * math.exp(tail.rate * -((n * math.pi) ** 2)) for n in modes])
    return np.array([tail.coeff * n ** (-tail.power) for n in modes])


MODES = list(range(9, 60)) + [100, 250, 1000, 10_000]
SPECTRUM = rf.make_heat_spectrum(8)


def test_gauss_tail_matches_direct_summation():
    # direct summation to negligible remainder is the reference; terms are
    # positive so plain float accumulation is accurate to ~1e-13
    for a in (2.0, 0.5, 0.05, 1e-3, 1e-6, 1e-8):
        start = 9
        cutoff = int(math.sqrt(80.0 / a)) + 10
        n = np.arange(start, cutoff, dtype=float)
        reference = math.log(float(np.sum(np.exp(-a * n * n))))
        got = log_tail_sum(0.0, a, start)
        assert abs(math.expm1(got - reference)) < 1e-12


def test_gauss_tail_integral_branch_agrees_with_series():
    # a rate below 1e-6, against the termwise series to a negligible remainder
    a = 0.9e-6
    cutoff = int(math.sqrt(80.0 / a)) + 10
    summed = math.log(math.fsum(math.exp(-a * n * n) for n in range(9, cutoff)))
    assert 0.0 <= log_tail_sum(0.0, a, 9) - summed < 1e-12


def test_cross_series_mixed_families_against_brute_force():
    exp_t = rf.ExpTail(0.05, 0.7)
    pow_t = rf.PowerTail(1.3, 0.9)
    brute = math.fsum(
        0.7 * math.exp(-0.05 * (n * math.pi) ** 2) * 0.9 * n**-1.3
        for n in range(9, 2000)
    )
    got = _tail_cross_log(exp_t, pow_t, SPECTRUM.num_modes + 1)
    assert math.exp(got) == pytest.approx(brute, rel=1e-11)


def test_sup_bound_dominates_exp_law_under_power_envelope():
    for rate in (1e-12, 1e-6, 0.01, 0.5, 3.0):
        for power in (0.8, 1.5, 2.5):
            sup = _log_sup_power_vs_gauss(power, rate, 9)
            for n in MODES:
                lhs = -rate * (n * math.pi) ** 2  # log of exp law / coeff
                rhs = sup - power * math.log(n)   # log of dominating power law / coeff
                assert lhs <= rhs + 1e-12


def test_add_envelope_dominates_pointwise():
    rng = np.random.default_rng(1)
    cases = [
        (rf.ExpTail(0.3, 1.0), rf.ExpTail(0.8, 0.5)),
        (rf.PowerTail(1.1, 0.7), rf.PowerTail(2.0, 0.4)),
        (rf.ExpTail(0.2, 0.6), rf.PowerTail(1.4, 0.9)),
        (rf.ExpTail(1e-9, 0.6), rf.PowerTail(0.9, 0.9)),
        (rf.ZeroTail(), rf.PowerTail(1.4, 0.9)),
    ]
    for a, b in cases:
        combined = combine_tails_add(SPECTRUM, a, b)
        total = law_values(a, MODES) + law_values(b, MODES)
        envelope = law_values(combined, MODES)
        assert np.all(total <= envelope * (1 + 1e-12) + 1e-300)


def test_sub_envelope_dominates_pointwise():
    cases = [
        (rf.ExpTail(0.3, 1.0), rf.ExpTail(0.3 + 1e-13, 1.0)),
        (rf.ExpTail(0.3, 1.0), rf.ExpTail(0.3, 0.999999)),
        (rf.ExpTail(0.5, 1.0), rf.ExpTail(0.2, 0.8)),
        (rf.PowerTail(1.5, 1.0), rf.PowerTail(1.5 + 1e-12, 1.0)),
        (rf.PowerTail(1.5, 1.0), rf.PowerTail(1.1, 0.3)),
        (rf.ExpTail(0.2, 0.6), rf.PowerTail(1.4, 0.9)),
    ]
    for a, b in cases:
        combined = combine_tails_sub(SPECTRUM, a, b)
        diff = np.abs(law_values(a, MODES) - law_values(b, MODES))
        envelope = law_values(combined, MODES)
        # 1e-9 slack absorbs float cancellation in this test's own evaluation
        # of the difference law
        assert np.all(diff <= envelope * (1 + 1e-9) + 1e-300), (a, b)


def test_sub_identical_laws_cancel_exactly():
    t = rf.ExpTail(0.37, 1.25)
    assert combine_tails_sub(SPECTRUM, t, t) == rf.ZeroTail()
    p = rf.PowerTail(1.2, 0.5)
    assert combine_tails_sub(SPECTRUM, p, p) == rf.ZeroTail()


def test_sub_near_identical_residual_is_small():
    # a one-ulp rate perturbation must leave a residual whose tail norm is
    # negligible at class-equality tolerances
    a = rf.ExpTail(0.3, 1.0)
    b = rf.ExpTail(0.3 * (1 + 1e-16), 1.0)
    residual = combine_tails_sub(SPECTRUM, a, b)
    state = rf.SpectralState.zeros(SPECTRUM, residual) if not isinstance(
        residual, rf.ZeroTail) else rf.SpectralState.zeros(SPECTRUM)
    assert rf.norm(state) < 1e-12


def slack_law(a, b):
    """The half-rate law that every two exponential laws of distinct rates took
    before their difference could take the sum's law; ``None`` where it overflowed."""
    base = min(a.rate, b.rate)
    slack = max(a.coeff, b.coeff) * abs(a.rate - b.rate) * 2.0 / (base * math.e)
    slack += abs(a.coeff - b.coeff)
    return rf.ExpTail(base / 2.0, slack) if slack < math.inf else None


def random_exp_pairs(rng, count):
    yield rf.ExpTail(1e-20, 1.0), rf.ExpTail(1.0, 1.0)
    yield rf.ExpTail(1e-310, 1.0), rf.ExpTail(1.0, 1.0)
    for _ in range(count):
        a = rf.ExpTail(10.0 ** rng.uniform(-12.0, 1.0), 10.0 ** rng.uniform(-3.0, 3.0))
        if rng.random() < 0.3:  # rates a few ulps apart, as two evolution paths leave them
            rate = a.rate * (1.0 + int(rng.integers(1, 9)) * 2.0**-52)
        else:
            rate = 10.0 ** rng.uniform(-12.0, 1.0)
        yield a, rf.ExpTail(rate, a.coeff * (1.0 + rng.choice([0.0, 1e-6, 1.0])))


def test_sub_of_two_exponential_laws_dominates_and_is_no_looser():
    # against 30-digit values of |x_n - y_n| at the first 40 tail modes and out to 10^7
    rng = np.random.default_rng(26)
    took_the_sum = took_the_slack = 0
    for a, b in random_exp_pairs(rng, 150):
        spectrum = rf.make_heat_spectrum(int(rng.integers(1, 64)))
        start = spectrum.num_modes + 1
        got = combine_tails_sub(spectrum, a, b)
        modes = [*range(start, start + 40), *np.unique(np.geomspace(start + 40, 1e7, 40).astype(int))]
        with mp.workdps(30):
            for n in modes:
                lam = -(mp.mpf(int(n)) * mp.pi) ** 2
                diff = abs(a.coeff * mp.exp(a.rate * lam) - b.coeff * mp.exp(b.rate * lam))
                # the envelope's coefficient rounds once or twice
                assert diff <= got.coeff * mp.exp(got.rate * lam) * (1 + 1e-15), (a, b, n)
        old = slack_law(a, b)
        if old is None:
            assert got == rf.ExpTail(min(a.rate, b.rate), a.coeff + b.coeff)
            continue
        took_the_sum += got != old
        took_the_slack += got == old
        assert _tail_cross_log(got, got, start) <= _tail_cross_log(old, old, start), (a, b)
    assert took_the_sum > 10 and took_the_slack > 10


def test_evolved_power_envelope_dominates_true_image():
    # the true image of a power law under the flow is n^-p exp(lambda_n t);
    # both conversion branches must dominate it
    p, c = 1.4, 0.8
    tail = rf.PowerTail(p, c)
    state = rf.SpectralState.zeros(SPECTRUM, tail)
    for t in (1e-9, 1e-7, 1e-3, 0.5, 2.0):
        moved = rf.evolve(state, t)
        true_image = np.array(
            [c * n**-p * math.exp(-t * (n * math.pi) ** 2) for n in MODES])
        envelope = law_values(moved.tail, MODES)
        assert np.all(true_image <= envelope * (1 + 1e-12))


def test_generator_envelope_dominates_true_image():
    # the generator multiplies the exp law by |lambda_n|
    tail = rf.ExpTail(0.4, 0.9)
    state = rf.SpectralState.zeros(SPECTRUM, tail)
    out = rf.generator_action(state)
    true_image = np.array(
        [0.9 * (n * math.pi) ** 2 * math.exp(-0.4 * (n * math.pi) ** 2) for n in MODES])
    envelope = law_values(out.tail, MODES)
    assert np.all(true_image <= envelope * (1 + 1e-12))


def mp_log_sup(power, rate):
    """log of ``max_x x**power exp(-rate (x pi)**2)`` over real ``x``, in 50 digits."""
    with mp.workdps(50):
        power, rate = mp.mpf(power), mp.mpf(rate)
        x = mp.sqrt(power / (2 * rate)) / mp.pi
        return power * mp.log(x) - rate * (x * mp.pi) ** 2


def test_a_tiny_rate_under_a_power_envelope_has_a_finite_sup():
    # below a rate of about 1e-308, power / 2 rate overflows: the maximizer
    # lies past every start, and the sup is taken from logs
    spectrum = rf.make_heat_spectrum(4)
    x = rf.add(rf.SpectralState.zeros(spectrum, rf.ExpTail(1e-310, 1.0)),
               rf.SpectralState.zeros(spectrum, rf.PowerTail(1.0, 1.0)))
    assert x.tail.power == 1.0
    assert x.tail.coeff == pytest.approx(1.0 + float(mp.exp(mp_log_sup(1.0, 1e-310))), rel=1e-12)
    # a dominating coefficient past float range is refused like any other,
    # where 1e-300 raised OverflowError from math.exp
    for rate in (1e-300, 1e-310):
        with pytest.raises(ValueError, match="coeff must be finite"):
            rf.add(rf.SpectralState.zeros(spectrum, rf.ExpTail(rate, 1.0)),
                   rf.SpectralState.zeros(spectrum, rf.PowerTail(3.0, 1.0)))


def test_a_tiny_rate_generator_envelope_is_finite_or_refused_by_its_rate():
    # pi**2 sup_n n**2 exp(-(rate / 2) (n pi)**2) is 2 / (rate e): inside
    # float range at a rate of 1e-308, past it at 1e-309
    spectrum = rf.make_heat_spectrum(4)
    out = rf.generator_action(rf.SpectralState.zeros(spectrum, rf.ExpTail(1e-308, 1.0)))
    half = 1e-308 / 2.0
    assert out.tail.rate == half
    want = mp.pi**2 * mp.exp(mp_log_sup(2.0, half))
    assert out.tail.coeff == pytest.approx(float(want), rel=1e-12)
    with pytest.raises(ValueError, match="rate 1e-309 .* past float range"):
        rf.generator_action(rf.SpectralState.zeros(spectrum, rf.ExpTail(1e-309, 1.0)))


def test_embedding_preserves_exponential_tail_norms():
    state = rf.SpectralState.zeros(SPECTRUM, rf.ExpTail(0.15, 1.1))
    grown = rf.embed(state, 40)
    assert rf.log_norm(grown) == pytest.approx(rf.log_norm(state), abs=1e-12)
    assert grown.coeff(20).to_linear() == pytest.approx(
        1.1 * math.exp(-0.15 * (20 * math.pi) ** 2), rel=1e-12)
