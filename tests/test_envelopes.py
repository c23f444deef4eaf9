"""Soundness of the tail-envelope algebra.

The library's guarantees lean on envelopes *dominating* the true coefficient
magnitudes through every transformation.  These tests check the domination
inequalities pointwise over mode grids and the series evaluations against
high-precision summation.
"""

import math

import numpy as np
import pytest

import retroflow as rf
from retroflow.spectral import (
    _log_gauss_tail,
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
    for a, rtol in ((2.0, 1e-12), (0.5, 1e-12), (0.05, 1e-12), (1e-3, 1e-12),
                    (1e-6, 1e-5), (1e-8, 1e-5)):
        start = 9
        cutoff = int(math.sqrt(80.0 / a)) + 10
        n = np.arange(start, cutoff, dtype=float)
        reference = math.log(float(np.sum(np.exp(-a * n * n))))
        got = _log_gauss_tail(a, start)
        assert abs(math.expm1(got - reference)) < rtol


def test_gauss_tail_integral_branch_agrees_with_series():
    # evaluate both routes at the same rate, just below the branch threshold
    from retroflow.spectral import _decreasing_log_series

    a = 0.9e-6
    integral = _log_gauss_tail(a, 9)
    summed = _decreasing_log_series(lambda n: -a * n * n, 9)
    assert abs(math.expm1(integral - summed)) < 1e-5


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


def test_embedding_preserves_exponential_tail_norms():
    state = rf.SpectralState.zeros(SPECTRUM, rf.ExpTail(0.15, 1.1))
    grown = rf.embed(state, 40)
    assert rf.log_norm(grown) == pytest.approx(rf.log_norm(state), abs=1e-12)
    assert grown.coeff(20).to_linear() == pytest.approx(
        1.1 * math.exp(-0.15 * (20 * math.pi) ** 2), rel=1e-12)
