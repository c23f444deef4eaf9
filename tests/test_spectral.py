"""Spectral states, the forward flow, norms, and the tail envelope algebra.

Expected values marked as frozen were produced by the independent oracles
named next to them (brute-force series summation, dense matrix exponential,
closed-form zeta values) and are pinned here.
"""

import copy
import dataclasses
import math
import pickle
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retroflow as rf
from reference import embed_reference, mp_log_tail_sum
from retroflow import serialize
from retroflow.logdomain import log_tail_sum
from retroflow.spectral import (Spectrum, _drop_tail, _LawWrite, combine_tails_sub,
                                log_distance)

PI2 = math.pi**2


# --- spectrum ---------------------------------------------------------------

def test_heat_spectrum_single_mode():
    sp = rf.make_heat_spectrum(1)
    assert sp.eigenvalues[0] == pytest.approx(-PI2, rel=1e-15)


def test_heat_spectrum_three_modes():
    sp = rf.make_heat_spectrum(3)
    np.testing.assert_allclose(sp.eigenvalues, [-PI2, -4 * PI2, -9 * PI2], rtol=1e-15)


def test_heat_spectrum_strictly_decreasing():
    sp = rf.make_heat_spectrum(2)
    assert sp.eigenvalues[0] > sp.eigenvalues[1]


def test_library_heat_spectra_equal_checked_ones():
    # make_heat_spectrum and extended skip the constructor's checks; the
    # public constructor keeps them
    for n in (1, 7, 1000):
        law = -((np.arange(1, n + 4, dtype=float) * math.pi) ** 2)
        built, grown = rf.make_heat_spectrum(n), rf.make_heat_spectrum(n).extended(n + 3)
        assert built == Spectrum(law[:n], "heat") and grown == Spectrum(law, "heat")
        assert not built.eigenvalues.flags.writeable and not grown.eigenvalues.flags.writeable
    with pytest.raises(ValueError, match="heat spectrum"):
        Spectrum(np.array([-1.0, -2.0]), "heat")


def test_one_eigenvalue_is_the_array_entry_bit_for_bit():
    # Python's pow would differ from the array's x * x in 771 of these modes
    n = 10**6
    law = rf.make_heat_spectrum(n)
    eigenvalue = law.eigenvalue
    assert [eigenvalue(k) for k in range(1, n + 1)] == _law(n).tolist()
    # the closed form builds no array; a heat spectrum is the law, never a list near it
    assert "eigenvalues" not in vars(law) and law.eigenvalue(n + 5) == _law(n + 5)[-1]
    with pytest.raises(ValueError, match="make_heat_spectrum"):
        Spectrum(np.nextafter(_law(3), 0.0), "heat")
    custom = Spectrum(np.array([-0.5, -1.0]))
    assert custom.eigenvalue(2) == -1.0
    with pytest.raises(ValueError, match="no eigenvalue law"):
        custom.eigenvalue(3)


def test_zero_modes_rejected():
    with pytest.raises(ValueError):
        rf.make_heat_spectrum(0)


def test_custom_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([-1.0, -0.5]))  # increasing
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0]))  # positive
    sp = Spectrum(np.array([-0.5, -1.0]))
    assert sp.kind == "custom"


def test_custom_spectrum_rejects_tails():
    sp = Spectrum(np.array([-1.0, -2.0]))
    with pytest.raises(ValueError):
        rf.SpectralState.zeros(sp, rf.ExpTail(0.3, 1.0))


# --- norms ------------------------------------------------------------------

def test_norm_pythagorean():
    sp = rf.make_heat_spectrum(2)
    x = rf.SpectralState.from_values(sp, [3.0, 4.0])
    assert rf.norm(x) == pytest.approx(5.0, rel=1e-12)


def test_norm_unit():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(1), [1.0])
    assert rf.norm(x) == pytest.approx(1.0, rel=1e-15)


def test_norm_pure_exponential_tail():
    # frozen from the brute-force series oracle: sqrt(sum exp(-0.6 n^2 pi^2))
    empty = Spectrum(np.array([]), "heat")
    x = rf.SpectralState.zeros(empty, rf.ExpTail(0.3, 1.0))
    assert rf.norm(x) == pytest.approx(0.05177326872488566, rel=1e-12)


def test_tail_norm_zero_tail():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(3), [1.0, 2.0, 3.0])
    assert rf.tail_norm(x) == 0.0


def test_tail_norm_power_closed_form():
    # frozen zeta value: sqrt(pi^2/6 - 1)
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(1), rf.PowerTail(1.0, 1.0))
    assert rf.tail_norm(x) == pytest.approx(0.8030778709740584, rel=1e-12)


def test_tail_norm_consistent_with_norm_for_pure_tail():
    empty = Spectrum(np.array([]), "heat")
    x = rf.SpectralState.zeros(empty, rf.ExpTail(0.3, 1.0))
    assert rf.tail_norm(x) == rf.norm(x)


def test_norm_of_deep_exponential_tail_in_integral_regime():
    # rate 1e-9 past mode 2e5: the sum is about exp(-790), below float64, and
    # its log must stay finite
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(200_000), rf.ExpTail(1e-9, 1.0))
    got = rf.log_norm(x)
    a, start = 2e-9 * PI2, 200_001
    with mp.workdps(30):
        # sum_{n >= start} exp(-a n^2) = exp(-a start^2) sum_k exp(-a k (2 start + k))
        series = mp.nsum(lambda k: mp.exp(-a * k * (2 * start + k)), [0, mp.inf])
        want = float((-a * start**2 + mp.log(series)) / 2)
    # the log of the sum is an upper value within 1e-12 relative
    assert want <= got < want + 1e-12


def test_norm_of_power_tail_whose_zeta_underflows():
    # zeta(60, 10**6 + 1) is about 1e-360: below float64, finite in logs
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(1_000_000), rf.PowerTail(30.0, 1.0))
    with mp.workdps(400):
        want = float(mp.log(mp.zeta(60, 1_000_001)) / 2)
    assert rf.log_norm(x) == pytest.approx(want, rel=1e-14)


def test_norm_of_power_tail_is_an_upper_value():
    # the tail's squared norm is coeff**2 zeta(2p, N + 1), rounded up
    rng = np.random.default_rng(11)
    for _ in range(40):
        power, coeff = rng.uniform(0.6, 6.0), 10.0 ** rng.uniform(-3.0, 3.0)
        modes = int(10.0 ** rng.uniform(0.0, 6.0))
        x = rf.SpectralState.zeros(rf.make_heat_spectrum(modes), rf.PowerTail(power, coeff))
        with mp.workdps(40):
            want = mp.log(coeff) + mp_log_tail_sum(2 * power, 0.0, modes + 1) / 2
            excess = float(mp.mpf(rf.log_norm(x)) - want)
        assert 0.0 <= excess < 1e-12, (power, coeff, modes)


def test_gauss_tail_small_rate_against_integral():
    # a rate below 1e-6, where the terms fall slowly, against direct summation
    a_small, start = 5e-7, 10
    summed = math.fsum(math.exp(-a_small * n * n) for n in range(start, 200_000))
    assert 0.0 <= log_tail_sum(0.0, a_small, start) - math.log(summed) < 1e-12


# --- the forward flow -------------------------------------------------------

def test_evolve_single_mode_frozen_scalar():
    # frozen: exp(-pi^2/2)
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(1), [1.0])
    y = rf.evolve(x, 0.5)
    assert y.coeff(1).to_linear() == pytest.approx(0.007191883355826368, rel=1e-12)


def test_evolve_zero_time_is_identity():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(4), [1, -2, 3, -4],)
    assert rf.evolve(x, 0.0) is x


def test_evolve_against_matrix_exponential_oracle():
    # frozen from scipy.linalg.expm on the diagonal 2x2 generator at t = 1
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 1.0])
    y = rf.evolve(x, 1.0)
    assert y.coeff(1).to_linear() == pytest.approx(5.172318620381234e-05, rel=1e-12)
    assert y.coeff(2).to_linear() == pytest.approx(7.157165835186059e-18, rel=1e-12)


def test_evolve_rejects_negative_time():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(1), [1.0])
    with pytest.raises(ValueError, match="backward"):
        rf.evolve(x, -0.1)


def test_evolve_tail_transforms():
    sp = rf.make_heat_spectrum(2)
    e = rf.SpectralState.zeros(sp, rf.ExpTail(0.3, 2.0))
    assert rf.evolve(e, 0.5).tail == rf.ExpTail(0.8, 2.0)
    p = rf.SpectralState.zeros(sp, rf.PowerTail(1.0, 1.0))
    moved = rf.evolve(p, 0.5)
    assert moved.tail == rf.ExpTail(0.5, 1.0 / 3.0)  # constant taken at mode 3
    tiny = rf.evolve(p, 1e-9)
    assert isinstance(tiny.tail, rf.PowerTail)  # small steps stay in family


def test_semigroup_property_random():
    rng = np.random.default_rng(5)
    sp = rf.make_heat_spectrum(12)
    for _ in range(25):
        x = rf.SpectralState.from_values(sp, rng.normal(size=12))
        s, t = rng.uniform(0, 2, size=2)
        lhs = rf.evolve(rf.evolve(x, s), t)
        rhs = rf.evolve(x, s + t)
        assert rf.relative_gap(lhs, rhs) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=3.0))
def test_contraction_property(s, t):
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(3), [1.0, -2.0, 0.5])
    assert rf.norm(rf.evolve(x, s + t)) <= rf.norm(rf.evolve(x, s)) * (1 + 1e-14)


# --- inner products ---------------------------------------------------------

def test_inner_product_orthonormality():
    sp = rf.make_heat_spectrum(2)
    e1 = rf.SpectralState.basis(sp, 1)
    e2 = rf.SpectralState.basis(sp, 2)
    assert rf.inner_product(e1, e1) == pytest.approx(1.0, rel=1e-15)
    assert rf.inner_product(e1, e2) == 0.0


def test_inner_product_cancelling_combination():
    sp = rf.make_heat_spectrum(2)
    x = rf.SpectralState.from_values(sp, [3.0, 4.0])
    y = rf.SpectralState.from_values(sp, [4.0, -3.0])
    assert rf.inner_product(x, y) == 0.0


def test_inner_product_tail_cross_term():
    # both tails exponential: cross term is the summed series
    empty = Spectrum(np.array([]), "heat")
    x = rf.SpectralState.zeros(empty, rf.ExpTail(0.2, 1.0))
    y = rf.SpectralState.zeros(empty, rf.ExpTail(0.4, 1.0))
    brute = math.fsum(math.exp(-0.6 * n * n * PI2) for n in range(1, 30))
    assert rf.inner_product(x, y) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("rate", [1e-9, 1e-10, 1e-12, 1e-13, 1e-20])
def test_inner_product_of_exp_and_power_tails_at_small_rates(rate):
    # n**-1 exp(-rate (n pi)**2) past 8 modes: finite for every rate > 0, and
    # summed in a bounded number of terms however slowly it decays
    sp = rf.make_heat_spectrum(8)
    x = rf.SpectralState.zeros(sp, rf.ExpTail(rate, 1.0))
    y = rf.SpectralState.zeros(sp, rf.PowerTail(1.0, 1.0))
    start = time.perf_counter()
    got = rf.log_inner_product(x, y)
    assert time.perf_counter() - start < 0.05
    with mp.workdps(40):
        excess = float(mp.mpf(got.log_mag) - mp_log_tail_sum(1.0, rate * PI2, 9))
    assert got.sign == 1 and 0.0 <= excess < 1e-12


def test_inner_product_spectrum_mismatch():
    a = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1, 2])
    b = rf.SpectralState.from_values(rf.make_heat_spectrum(3), [1, 2, 3])
    for op in (rf.inner_product, rf.add, rf.subtract):
        with pytest.raises(ValueError, match="different spectra"):
            op(a, b)


# --- linear structure -------------------------------------------------------

def test_add_and_scale_linear_values():
    sp = rf.make_heat_spectrum(3)
    x = rf.SpectralState.from_values(sp, [1.0, -2.0, 3.0])
    y = rf.SpectralState.from_values(sp, [0.5, 2.0, -1.0])
    total = rf.add(x, rf.scale(y, 2.0))
    np.testing.assert_allclose(total.coeff_values(), [2.0, 2.0, 1.0], rtol=1e-12)


def test_subtract_self_is_zero():
    sp = rf.make_heat_spectrum(3)
    x = rf.SpectralState.from_values(sp, [1.0, -2.0, 3.0], rf.ExpTail(0.4, 0.7))
    diff = rf.subtract(x, x)
    assert diff.is_zero()


def test_subtract_matches_add_of_negated_bit_for_bit():
    # reference: the modes as add(x, negate(y)) on tail-free copies, the tail
    # from combine_tails_sub
    rng = np.random.default_rng(12)
    tails = (rf.ZERO_TAIL, rf.ExpTail(0.4, 0.7), rf.ExpTail(0.41, 0.7), rf.PowerTail(1.3, 0.5))
    for k in range(60):
        sp = rf.make_heat_spectrum(int(rng.integers(1, 40)))
        n = sp.num_modes
        a = rng.normal(size=n) * (rng.random(n) < 0.8)
        b = np.where(rng.random(n) < 0.4, a, rng.normal(size=n) * (rng.random(n) < 0.8))
        x = rf.SpectralState.from_values(sp, a, tails[k % 4])
        y = rf.SpectralState.from_values(sp, b, tails[(k // 4) % 4])
        modes = rf.add(rf.SpectralState(sp, x.signs, x.log_mags),
                       rf.negate(rf.SpectralState(sp, y.signs, y.log_mags)))
        want = rf.SpectralState(sp, modes.signs, modes.log_mags,
                                combine_tails_sub(sp, x.tail, y.tail))
        got = rf.subtract(x, y)
        assert got == want
        assert got.signs.tobytes() == want.signs.tobytes()
        assert got.log_mags.tobytes() == want.log_mags.tobytes()


def test_scale_by_zero():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 2.0], rf.ExpTail(1.0, 1.0))
    assert rf.scale(x, 0.0).is_zero()


def test_linearity_of_flow():
    rng = np.random.default_rng(11)
    sp = rf.make_heat_spectrum(8)
    x = rf.SpectralState.from_values(sp, rng.normal(size=8))
    y = rf.SpectralState.from_values(sp, rng.normal(size=8))
    t = 0.7
    lhs = rf.evolve(rf.add(rf.scale(x, 2.5), rf.scale(y, -1.5)), t)
    rhs = rf.add(rf.scale(rf.evolve(x, t), 2.5), rf.scale(rf.evolve(y, t), -1.5))
    assert rf.relative_gap(lhs, rhs) < 1e-12


def test_norm_matches_naive_when_representable():
    rng = np.random.default_rng(7)
    sp = rf.make_heat_spectrum(10)
    for _ in range(20):
        values = rng.normal(size=10) * 10.0 ** rng.integers(-30, 30)
        x = rf.SpectralState.from_values(sp, values)
        naive = math.sqrt(math.fsum(v * v for v in values))
        assert rf.norm(x) == pytest.approx(naive, rel=1e-12)


# --- embedding --------------------------------------------------------------

def test_embed_writes_tail_law_out():
    sp = rf.make_heat_spectrum(2)
    x = rf.SpectralState.from_values(sp, [1.0, 2.0], rf.PowerTail(1.5, 0.5))
    big = rf.embed(x, 5)
    assert big.num_modes == 5
    assert big.coeff(4).to_linear() == pytest.approx(0.5 * 4.0**-1.5, rel=1e-12)
    assert big.tail == x.tail
    assert rf.norm(big) == pytest.approx(rf.norm(x), rel=1e-12)


def test_embed_keeps_distance_coherent():
    sp = rf.make_heat_spectrum(2)
    x = rf.SpectralState.from_values(sp, [1.0, 2.0], rf.PowerTail(1.5, 0.5))
    assert rf.relative_gap(x, rf.embed(x, 40)) < 1e-12


def embed_by_loop(state, num_modes):
    """The mode-by-mode loop that the vectorised embed replaced."""
    spectrum = state.spectrum.extended(num_modes)
    signs = np.zeros(num_modes, dtype=np.int8)
    logs = np.full(num_modes, -math.inf)
    signs[: state.num_modes] = state.signs
    logs[: state.num_modes] = state.log_mags
    tail = state.tail
    for n in range(state.num_modes + 1, num_modes + 1):
        if isinstance(tail, rf.ExpTail):
            logs[n - 1] = math.log(tail.coeff) + tail.rate * spectrum.eigenvalues[n - 1]
        else:
            logs[n - 1] = math.log(tail.coeff) - tail.power * math.log(n)
        signs[n - 1] = 1
    return signs, logs


@pytest.mark.parametrize("tail", [rf.ExpTail(0.003, 2.5), rf.PowerTail(1.5, 0.5),
                                  rf.PowerTail(0.75, 3e-7)])
def test_embed_matches_mode_by_mode_loop(tail):
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(3), [1.0, -2.0, 0.0], tail)
    big = rf.embed(x, 20_000)
    signs, logs = embed_by_loop(x, 20_000)
    assert np.array_equal(big.signs, signs)
    assert big.log_mags[2] == -math.inf and np.array_equal(big.log_mags[:2], logs[:2])
    # float64 rounding of log(n) may differ between libm and numpy: 4 ulp
    assert np.all(np.abs(big.log_mags[3:] - logs[3:]) <= 4 * np.spacing(np.abs(logs[3:])))


@pytest.mark.parametrize("tail", [rf.ExpTail(0.003, 2.5), rf.ExpTail(7.5, 1e-200),
                                  rf.ExpTail(1e306, 1.0), rf.ExpTail(1e-4, 3.0),
                                  rf.PowerTail(1.5, 0.5), rf.PowerTail(0.75, 3e-7),
                                  rf.PowerTail(2.0, 1e200), rf.ZERO_TAIL])
@pytest.mark.parametrize("num_modes", [4, 5, 1000, 70_001])
def test_embed_and_materialize_match_the_reference_formula_bit_for_bit(tail, num_modes):
    # ExpTail(7.5, ...) underflows to zero coefficients from mode 10, and
    # ExpTail(1e306, ...) overflows its exponent from mode 5
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(4), [1.0, -2.0, 0.0, 3.5], tail)
    signs, logs = embed_reference(x, num_modes)
    for state in (rf.embed(x, num_modes), _drop_tail(x, num_modes)):
        assert state.spectrum == rf.make_heat_spectrum(num_modes)
        assert state.signs.dtype == np.int8 and state.signs.tobytes() == signs.tobytes()
        assert state.log_mags.dtype == np.float64 and state.log_mags.tobytes() == logs.tobytes()
    assert rf.embed(x, num_modes).tail == x.tail
    assert _drop_tail(x, num_modes).tail == rf.ZERO_TAIL


def test_embed_of_zero_tail_pads_zeros():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, -2.0])
    big = rf.embed(x, 6)
    np.testing.assert_array_equal(big.coeff_values(), [1.0, -2.0, 0.0, 0.0, 0.0, 0.0])


# --- sign validation ----------------------------------------------------------

@pytest.mark.parametrize("signs", [[257, 1, -255], [0.5, 1, 0], [2, 0, 0], [-128, 1, 1],
                                   [math.nan, 1, 1], ["1", "0", "1"]])
def test_signs_outside_minus_one_zero_one_rejected(signs):
    # 257 and -255 would wrap to 1 in int8, 0.5 would truncate to 0
    with pytest.raises(ValueError, match="signs"):
        rf.SpectralState(rf.make_heat_spectrum(3), signs, np.zeros(3))


@pytest.mark.parametrize("cls", [rf.SpectralState, rf.Functional])
def test_unknown_tail_law_rejected(cls):
    with pytest.raises(ValueError, match="tail law"):
        cls.from_values(rf.make_heat_spectrum(4), [1, 2, 3, 4], tail=object())


def test_only_a_functional_tail_may_grow():
    sp = rf.make_heat_spectrum(3)
    with pytest.raises(ValueError, match="decay"):
        rf.SpectralState.zeros(sp, rf.ExpTail(-0.2, 1.0))
    assert rf.Functional.zeros(sp, rf.ExpTail(-0.2, 1.0)).tail == rf.ExpTail(-0.2, 1.0)


@pytest.mark.parametrize("rate", [-0.2, -1e306])
def test_embedding_a_growing_law_is_refused(rate):
    # -1e306 overflows the written-out logs to +inf from mode 5 on
    grown = rf.Functional.zeros(rf.make_heat_spectrum(3), rf.ExpTail(rate, 1.0))
    with pytest.raises(ValueError, match="decay"):
        rf.embed(grown, 12)


def test_integral_float_and_bool_signs_accepted():
    sp = rf.make_heat_spectrum(3)
    x = rf.SpectralState(sp, [1.0, -1.0, 0.0], np.zeros(3))
    assert x.signs.tolist() == [1, -1, 0] and x.signs.dtype == np.int8
    assert rf.SpectralState(sp, [True, False, True], np.zeros(3)).signs.tolist() == [1, 0, 1]


def test_immutability():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        x.signs[0] = 0
    with pytest.raises(ValueError):
        x.log_mags[0] = 5.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_values_rejects_non_finite_values(bad):
    # NaN must not become a zero coefficient
    with pytest.raises(ValueError, match="finite"):
        rf.SpectralState.from_values(rf.make_heat_spectrum(3), [bad, 1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scale_rejects_a_non_finite_factor(bad):
    # the factor's log would make +-inf or nan logs, zero states included
    spectrum = rf.make_heat_spectrum(3)
    for x in (rf.SpectralState.zeros(spectrum), rf.SpectralState.from_values(spectrum, [1.0, 0.0, -2.0])):
        with pytest.raises(ValueError, match="scale factor must be finite"):
            rf.scale(x, bad)


@pytest.mark.parametrize("power", [math.inf, math.nan, 0.5])
def test_power_tail_rejects_a_power_that_is_not_finite_above_one_half(power):
    with pytest.raises(ValueError, match="power must be finite and exceed 1/2"):
        rf.PowerTail(power, 1.0)


# --- library results ----------------------------------------------------------

_SIGNS = st.sampled_from([-1, 0, 1])
_LOGS = st.floats(min_value=-40.0, max_value=40.0)
_COEFFS = st.floats(min_value=0.0, max_value=3.0)
_TAILS = st.one_of(
    st.just(rf.ZERO_TAIL),
    st.builds(rf.ExpTail, st.floats(min_value=1e-3, max_value=2.0), _COEFFS),
    st.builds(rf.PowerTail, st.floats(min_value=0.6, max_value=4.0), _COEFFS),
)


@st.composite
def _states(draw, num_modes):
    signs = draw(st.lists(_SIGNS, min_size=num_modes, max_size=num_modes))
    logs = draw(st.lists(_LOGS, min_size=num_modes, max_size=num_modes))
    return rf.SpectralState(rf.make_heat_spectrum(num_modes), signs, logs, draw(_TAILS))


def _bitwise_equal(a, b):
    return (type(a) is type(b) and a.spectrum == b.spectrum and a.tail == b.tail
            and a.signs.dtype == b.signs.dtype and a.log_mags.dtype == b.log_mags.dtype
            and a.signs.tobytes() == b.signs.tobytes()
            and a.log_mags.tobytes() == b.log_mags.tobytes())


def _results_match_the_public_constructor(monkeypatch, built):
    """Route every ``SpectralState._result`` through a check: the same arrays
    and tail, given to the public constructor, build the same state bit for
    bit (or both refuse them), and the result's arrays are read-only.  The
    public constructor's own call to ``_result`` passes through.  Check each
    deferred state (``logs=None``) on its first read of its arrays: once
    written, it is the public constructor's state from ``base + lambda_n *
    time``, bit for bit, with read-only arrays, where a law write's base is
    the reference formula's ``embed`` of its head."""
    result = rf.SpectralState._result.__func__
    read = rf.SpectralState.__getattr__

    def checked_read(state, name):
        if name not in ("signs", "log_mags"):
            return read(state, name)
        base, time = state._origin
        if isinstance(base, _LawWrite):
            signs, base = embed_reference(base.head, base.depth)
        else:
            signs = state.signs
        public = rf.SpectralState(state.spectrum, signs, base + state.spectrum.eigenvalues * time,
                                  state.tail)
        array = read(state, name)
        assert array is getattr(state, name) and _bitwise_equal(state, public)
        assert not state.signs.flags.writeable and not state.log_mags.flags.writeable
        built.append(state)
        return array

    inside = []  # the public constructor ends in _result too

    def checked(cls, spectrum, signs, logs, tail=rf.ZERO_TAIL, origin=None):
        if inside or logs is None:  # a lazy flow is checked on its first read
            return result(cls, spectrum, signs, logs, tail, origin)
        inside.append(True)
        try:
            public = cls(spectrum, signs, logs, tail)
        except ValueError:
            with pytest.raises(ValueError):
                result(cls, spectrum, signs, logs, tail, origin)
            raise
        finally:
            inside.pop()
        state = result(cls, spectrum, signs, logs, tail, origin)
        assert _bitwise_equal(state, public)
        assert not state.signs.flags.writeable and not state.log_mags.flags.writeable
        built.append(state)
        return state

    monkeypatch.setattr(rf.SpectralState, "_result", classmethod(checked))
    monkeypatch.setattr(rf.SpectralState, "__getattr__", checked_read)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(lambda n: st.tuples(_states(n), _states(n))),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=-5.0, max_value=5.0).filter(lambda f: f != 0.0),
       st.integers(min_value=0, max_value=6))
def test_library_results_equal_the_checked_construction(pair, t, factor, extra):
    x, y = pair
    built = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        _results_match_the_public_constructor(monkeypatch, built)
        flowed = rf.evolve(x, 0.5)  # its flows round once from x's logs
        flows = [rf.evolve(x, t), rf.evolve(flowed, t), _drop_tail(flowed, x.num_modes + extra),
                 rf.evolve(x, 1e306)]  # eager, past 2**968: modes from 5 on underflow to zeros
        for state in (x, flowed):
            if rf.horizon(state).allows(t):
                flows.append(rf.backward_evolve(state, t))
        flows.append(flowed)
        rf.add(x, y)
        rf.subtract(x, y)
        rf.scale(x, factor)
        rf.negate(x)
        rf.embed(x, x.num_modes + extra)
        _drop_tail(x, x.num_modes + extra)
        if not (isinstance(x.tail, rf.PowerTail) and x.tail.power <= 2.5):
            rf.generator_action(x)
        rf.SpectralState.from_values(x.spectrum, x.coeff_values(), x.tail)
        rf.SpectralState.basis(x.spectrum, x.num_modes)
        forcing = rf.Forcing.from_dict({1: rf.ConstantForcing(factor),
                                        x.num_modes: rf.ExponentialForcing(factor, 2.0)})
        rf.duhamel_evolve(x, forcing, t)
        for state in flows:  # the flows' logs are written here, on first read
            state.log_mags
    # embed by zero extra modes and a zero step return their argument
    assert len(built) >= 10


def test_library_results_underflow_to_zero_coefficients():
    # rate * lambda_n overflows to -inf from mode 5 on: those written-out
    # modes are zero coefficients, and nothing is written into the argument
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.ExpTail(1e306, 1.0))
    big = rf.embed(x, 12)
    assert big.signs.tolist() == [0, 0, 1, 1] + [0] * 8
    assert np.all(np.isfinite(big.log_mags[2:4])) and np.all(big.log_mags[4:] == -math.inf)
    y = rf.SpectralState.from_values(rf.make_heat_spectrum(6), [1.0, -2.0, 3.0, -4.0, 5.0, -6.0])
    damped = rf.evolve(y, 1e306)
    assert damped.signs.tolist() == [1, -1, 1, -1, 0, 0]
    assert np.all(damped.log_mags[4:] == -math.inf) and y.signs.tolist() == [1, -1, 1, -1, 1, -1]
    assert not damped.signs.flags.writeable and not damped.log_mags.flags.writeable


def test_steps_that_overflow_only_in_the_sum_stay_silent():
    # lambda_6 * 4e305 is about -1.4e308, still finite: the second step
    # overflows modes 5 and 6 only when it is added to the first step's logs
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(6), np.ones(6))
    once = rf.evolve(x, 4e305)
    assert np.all(np.isfinite(once.log_mags))
    twice = rf.evolve(once, 4e305)
    assert twice.signs.tolist() == [1, 1, 1, 1, 0, 0] and np.all(twice.log_mags[4:] == -math.inf)
    with pytest.raises(ValueError, match="backward image at time 4e.305 overflows"):
        rf.backward_evolve(rf.backward_evolve(x, 4e305), 4e305)


def test_library_results_refuse_an_overflowed_log():
    # -lambda_n * t overflows to +inf from mode 5 on
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(6), np.ones(6))
    with pytest.raises(ValueError, match="backward image at time 1e.306 overflows: .*finite log"):
        rf.backward_evolve(x, 1e306)
    # only the overflowed modes' coefficients matter: zeros there come back zero
    y = rf.SpectralState.from_values(rf.make_heat_spectrum(6), [1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    back = rf.backward_evolve(y, 1e306)
    assert back.signs.tolist() == [1, -1, 0, 0, 0, 0] and np.all(back.log_mags[2:] == -math.inf)
    assert np.array_equal(back.log_mags[:2], -y.spectrum.eigenvalues[:2] * 1e306)


def test_library_results_are_read_only():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(4), [1.0, 0.0, -2.0, 0.5],
                                     rf.PowerTail(3.0, 1.0))
    for state in (rf.evolve(x, 0.1), rf.add(x, x), rf.subtract(x, x), rf.scale(x, -2.0),
                  rf.negate(x), rf.embed(x, 7), rf.generator_action(x)):
        for array in (state.signs, state.log_mags):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_evolve_refuses_a_nan_time():
    # a zero state would otherwise come back as zeros
    with pytest.raises(ValueError, match="nan"):
        rf.evolve(rf.SpectralState.zeros(rf.make_heat_spectrum(3)), math.nan)


def test_spectrum_equality_compares_kind_and_values():
    heat = rf.make_heat_spectrum(5)
    assert heat == heat and heat == rf.make_heat_spectrum(5)
    assert heat != Spectrum(heat.eigenvalues, "custom")
    assert heat != rf.make_heat_spectrum(6)


def _law(num_modes):
    return -((np.arange(1, num_modes + 1, dtype=float) * math.pi) ** 2)


def test_a_heat_spectrum_is_its_size_until_its_eigenvalues_are_read():
    tracemalloc.start()
    try:
        heat = rf.make_heat_spectrum(10**6)
        assert heat.num_modes == 10**6 and tracemalloc.get_traced_memory()[1] < 4096
        first = heat.eigenvalues
    finally:
        tracemalloc.stop()
    assert heat.eigenvalues is first and not first.flags.writeable
    assert first.dtype == np.float64 and first.tobytes() == _law(10**6).tobytes()
    with pytest.raises(AttributeError):
        heat.no_such_attribute


def test_law_built_heat_spectra_of_one_size_are_equal_without_their_eigenvalues():
    from retroflow.spectral import MAX_MODES

    tracemalloc.start()
    try:
        a, b = rf.make_heat_spectrum(MAX_MODES), rf.make_heat_spectrum(1).extended(MAX_MODES)
        assert a == b and not a != b
        assert a != rf.make_heat_spectrum(MAX_MODES - 1)
        assert tracemalloc.get_traced_memory()[1] < 4096
    finally:
        tracemalloc.stop()


def test_a_public_heat_spectrum_equals_a_law_built_one_only_bit_for_bit():
    built = rf.make_heat_spectrum(40)
    assert Spectrum(_law(40), "heat") == built and built == Spectrum(_law(40), "heat")
    # one ulp off the law is not a heat spectrum: it is refused, not rounded onto the law
    nudged = _law(40)
    nudged[17] = np.nextafter(nudged[17], 0.0)
    with pytest.raises(ValueError, match="bit for bit.*kind='custom'"):
        Spectrum(nudged, "heat")
    assert Spectrum(nudged, "custom") != built
    assert Spectrum(_law(40), "custom") != built and built != Spectrum(_law(40), "custom")
    assert Spectrum(_law(39), "heat") != built


def test_states_on_a_public_and_a_law_built_heat_spectrum_compare():
    # both constructions are the one law, so neither is moved onto the other
    public = rf.SpectralState.from_values(Spectrum(_law(4), "heat"), [1.0, -2.0, 0.5, 0.0],
                                          rf.ExpTail(0.3, 1.0))
    built = rf.SpectralState.from_values(rf.make_heat_spectrum(4), [1.0, -2.0, 0.5, 0.0],
                                         rf.ExpTail(0.3, 1.0))
    assert public == built and public.spectrum == built.spectrum
    assert log_distance(public, built) == -math.inf and rf.relative_gap(public, built) == 0.0
    other = rf.SpectralState.from_values(rf.make_heat_spectrum(4), [1.0, -2.0, 0.5, 1e-3],
                                         rf.ExpTail(0.3, 1.0))
    assert log_distance(public, other) == pytest.approx(math.log(1e-3), rel=1e-12)
    assert rf.relative_gap(other, public) == pytest.approx(1e-3 / rf.norm(other), rel=1e-12)
    assert log_distance(public, rf.embed(built, 5)) == -math.inf


def test_a_mode_count_is_stored_as_an_int(tmp_path):
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(3), [1.0, -2.0, 0.5], rf.PowerTail(1.5, 1.0))
    big = rf.embed(x, np.int64(10))
    assert type(big.spectrum.num_modes) is int and big.num_modes == 10
    serialize.save_json(tmp_path / "big.json", serialize.state_to_dict(big))
    back = serialize.state_from_dict(serialize.load_json(tmp_path / "big.json"))
    assert back.spectrum == big.spectrum and back.log_mags.tobytes() == big.log_mags.tobytes()
    for count in (10.5, math.nan):
        with pytest.raises(ValueError):
            rf.make_heat_spectrum(3).extended(count)
    with pytest.raises(ValueError, match="integer"):
        rf.make_heat_spectrum(10.5)


def test_mode_budget_is_refused_before_allocating():
    from retroflow.spectral import MAX_MODES

    for build in (rf.make_heat_spectrum, rf.make_heat_spectrum(1).extended):
        with pytest.raises(ValueError, match="budget"):
            build(MAX_MODES + 1)
        with pytest.raises(ValueError, match="budget"):
            build(10**11)


# --- lineage: a flowed state rounds once from its base ---------------------------

def _chain(x, steps):
    for t in steps:
        x = rf.evolve(x, t) if t > 0 else rf.backward_evolve(x, -t)
    return x


def test_a_chain_of_flows_is_one_rounding_from_its_base():
    rng = np.random.default_rng(13)
    values = rng.normal(size=64) * np.exp(rng.uniform(-30.0, 30.0, 64))
    values[rng.random(64) < 0.2] = 0.0
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(64), values, rf.ExpTail(2.0, 1.0))
    steps = [0.3, -0.1, 0.7, -1.25, 0.05, -0.5, 1.0 / 3.0]
    total = 0.0
    for t in steps:
        total += t
    y = _chain(x, steps)
    want = x.log_mags + x.spectrum.eigenvalues * total
    want[x.signs == 0] = -math.inf
    assert y.log_mags.tobytes() == want.tobytes()
    # no mode moved to or from zero: the chain keeps the argument's sign array
    assert y.signs is x.signs
    # the tail still flows step by step
    assert y.tail == _chain(rf.SpectralState.zeros(x.spectrum, x.tail), steps).tail


def test_a_flow_that_moves_no_zero_keeps_the_arrays_it_was_given():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(8), [1.0, 0.0, -2.0, 0.0, 3.0, 0, 0, 1])
    for y in (rf.evolve(x, 0.25), rf.backward_evolve(x, 0.25)):
        assert y.signs is x.signs
        assert y.signs.tolist() == x.signs.tolist()
        assert np.all(y.log_mags[x.signs == 0] == -math.inf)
    plain = rf.negate(rf.negate(x))
    assert plain.signs.tobytes() == x.signs.tobytes() and plain.log_mags is x.log_mags


def test_a_backward_step_undone_is_exact():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(32), [1.0 / n for n in range(1, 33)])
    for t in (1.0, 0.37, 4.0):
        back = rf.evolve(rf.backward_evolve(x, t), t)
        assert back.log_mags.tobytes() == x.log_mags.tobytes()
        assert rf.spectral.log_distance(back, x) == -math.inf and rf.relative_gap(back, x) == 0.0


def test_an_underflowed_coefficient_stays_zero():
    # modes 5 and 6 underflow: the damped state is its own base, so the
    # backward step cannot bring their coefficients back
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(6), [1.0, -2.0, 3.0, -4.0, 5.0, -6.0])
    back = rf.backward_evolve(rf.evolve(x, 1e306), 1e306)
    assert back.signs.tolist() == [1, -1, 1, -1, 0, 0]
    assert np.all(back.log_mags[4:] == -math.inf) and np.all(np.isfinite(back.log_mags[:4]))


def test_states_equal_by_value_compare_equal_whatever_their_lineage():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(16), np.linspace(-2.0, 3.0, 16))
    flowed = rf.backward_evolve(x, 0.3)
    fresh = rf.SpectralState(flowed.spectrum, flowed.signs, flowed.log_mags)
    assert flowed == fresh and fresh == flowed and repr(flowed) == repr(fresh)
    assert dataclasses.replace(flowed) == flowed
    assert serialize.state_to_dict(flowed) == serialize.state_to_dict(fresh)
    # one rounding from x's logs against one from the copy's: equal to roundoff
    again, other = rf.evolve(flowed, 0.3), rf.evolve(fresh, 0.3)
    assert again == x
    assert rf.relative_gap(other, again) < 1e-13


# --- lazy flows: logs written on first read -------------------------------------

def _unread(state):
    return "log_mags" not in vars(state)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(_states),
       st.lists(st.floats(min_value=-2.0, max_value=2.0).filter(lambda t: t != 0.0),
                min_size=1, max_size=8))
def test_a_chain_read_only_at_its_end_equals_one_read_at_every_step(x, steps):
    lazy, eager, total = x, x, 0.0
    for t in steps:
        if not rf.horizon(lazy).allows(-t):
            t = -t  # a backward step past the horizon turns forward
        lazy, eager = _chain(lazy, [t]), _chain(eager, [t])
        assert _unread(lazy)
        eager.log_mags
        total += t
    assert _bitwise_equal(lazy, eager) and lazy.signs is x.signs
    want = x.log_mags + x.spectrum.eigenvalues * total
    assert _bitwise_equal(lazy, rf.SpectralState(x.spectrum, x.signs, want, lazy.tail))
    assert not lazy.log_mags.flags.writeable


@pytest.mark.parametrize("direction", [1, -1])
def test_steps_either_side_of_the_lazy_bound_agree_with_the_public_constructor(direction):
    # the largest finite log and a zero coefficient: just below 2**968 the
    # deferred sum stays finite and -inf; just above, the step is eager
    spectrum = rf.make_heat_spectrum(6)
    x = rf.SpectralState(spectrum, [1, -1, 0, 1, -1, 1],
                         [np.finfo(float).max, -np.finfo(float).max, 0.0, 3.0, -2.0, 1.0])
    edge = 2.0**968 / abs(spectrum.eigenvalue(6))
    for t, lazy in ((np.nextafter(edge, 0.0), True), (np.nextafter(edge, math.inf), False)):
        flowed = rf.evolve(x, t) if direction > 0 else rf.backward_evolve(x, t)
        assert _unread(flowed) is lazy
        logs = x.log_mags + spectrum.eigenvalues * (direction * t)
        assert _bitwise_equal(flowed, rf.SpectralState(spectrum, x.signs, logs))
    # a lineage whose summed time crosses the bound flows eagerly
    half = rf.evolve(x, np.nextafter(edge, 0.0) / 2.0)
    assert _unread(half) and not _unread(rf.evolve(half, edge))


def test_an_unread_state_pickles_copies_replaces_compares_and_prints_as_its_logs():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(5), [1.0, 0.0, -2.0, 0.5, 3.0],
                                     rf.ExpTail(0.8, 1.5))

    def unread():
        state = rf.backward_evolve(x, 0.3)
        assert _unread(state)
        return state

    read = unread()
    read.log_mags
    for out in (pickle.loads(pickle.dumps(unread())), copy.deepcopy(unread()),
                dataclasses.replace(unread())):
        assert _bitwise_equal(out, read)
    assert unread() == read and read == unread() and repr(unread()) == repr(read)
    assert dataclasses.replace(unread(), tail=rf.ZERO_TAIL) == dataclasses.replace(read, tail=rf.ZERO_TAIL)
    with pytest.raises(AttributeError):
        unread().no_such_attribute


def test_copies_and_unpickled_states_stay_read_only():
    spectrum = rf.Spectrum(-np.arange(1.0, 5.0)**3)
    x = rf.SpectralState.from_values(spectrum, [1.0, 0.0, -2.0, 0.5])
    law = rf.Functional.from_exp_law(rf.make_heat_spectrum(4), -0.5)
    law.spectrum.eigenvalues
    for make in (lambda: x, lambda: rf.evolve(x, 0.3), lambda: law):
        for out in (copy.deepcopy(make()), pickle.loads(pickle.dumps(make()))):
            state = make()
            assert type(out) is type(state) and _unread(out) is _unread(state)
            base, time = out._origin
            arrays = [out.signs, base, out.spectrum.eigenvalues, out.log_mags]
            assert not any(array.flags.writeable for array in arrays)
            assert (base is out.log_mags) is (time == 0.0) and _bitwise_equal(out, state)


def test_a_flow_allocates_nothing_per_mode():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(10**6), np.ones(10**6))
    flowed = rf.evolve(x, 0.5)
    for step in (lambda: rf.evolve(x, 0.5), lambda: rf.backward_evolve(x, 0.5),
                 lambda: rf.evolve(flowed, 0.25), lambda: rf.backward_evolve(flowed, 0.25)):
        tracemalloc.start()
        try:
            step()
            assert tracemalloc.get_traced_memory()[1] < 4096
        finally:
            tracemalloc.stop()


# --- law writes: embed and the truncation write their arrays on first read ------

def _unwritten(state):
    return not {"signs", "log_mags"} & set(vars(state))


@st.composite
def _law_states(draw):
    """A head of 0-64 modes under a power or exponential law."""
    num_modes = draw(st.integers(min_value=0, max_value=64))
    signs = draw(st.lists(_SIGNS, min_size=num_modes, max_size=num_modes))
    logs = draw(st.lists(_LOGS, min_size=num_modes, max_size=num_modes))
    coeff = draw(st.floats(min_value=1e-3, max_value=3.0))
    tail = draw(st.one_of(st.builds(rf.ExpTail, st.floats(min_value=1e-9, max_value=2.0), st.just(coeff)),
                          st.builds(rf.PowerTail, st.floats(min_value=0.6, max_value=4.0), st.just(coeff))))
    return rf.SpectralState(Spectrum._heat(num_modes), signs, logs, tail)


@settings(max_examples=40, deadline=None)
@given(_law_states(), st.integers(min_value=1, max_value=10**5), st.floats(min_value=0.0, max_value=2.0))
def test_a_law_write_is_the_reference_formula_and_flows_as_the_written_arrays(x, depth, t):
    depth = max(depth, x.num_modes + 1)
    # an eps just above the norm beyond depth, so the truncation stops at or before it
    log_eps = 0.5 * rf.spectral._tail_cross_log(x.tail, x.tail, depth + 1) + 1e-9
    truncated, _ = rf.truncate_to_reversible(x, math.exp(max(log_eps, -700.0)))
    assert x.num_modes <= truncated.num_modes <= depth
    def flows(state):
        out = [rf.evolve(state, t)]
        if rf.horizon(state).allows(t):
            back = rf.backward_evolve(state, t)
            out += [back, rf.evolve(back, t)]  # the last is back at time 0
        return out

    for state in (rf.embed(x, depth), _drop_tail(x, depth), truncated):
        if state is truncated and state.num_modes == x.num_modes:
            continue  # the law is below eps from the head on: no law write
        deferred = flows(state)
        assert _unwritten(state) and all(_unwritten(flow) for flow in deferred)
        signs, logs = embed_reference(x, state.num_modes)
        written = rf.SpectralState(state.spectrum, signs, logs, state.tail)
        for flow, want in zip(deferred, flows(written)):
            assert _bitwise_equal(flow, want)
        assert _bitwise_equal(state, written)
        assert not state.signs.flags.writeable and not state.log_mags.flags.writeable


def test_a_law_write_is_shared_by_its_lineage():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(3), [1.0, 0.0, -2.0], rf.PowerTail(1.5, 2.0))
    kept = rf.embed(x, 50)
    dropped, flowed = _drop_tail(kept, 50), rf.evolve(kept, 0.5)
    back = rf.evolve(rf.backward_evolve(dropped, 0.5), 0.5)
    assert all(_unwritten(s) for s in (kept, dropped, flowed, back))
    assert flowed.signs is kept.signs is dropped.signs is back.signs
    assert back.log_mags is dropped.log_mags is kept.log_mags  # time 0: the written logs
    assert log_distance(back, dropped) == -math.inf


def test_an_unread_truncation_pickles_copies_replaces_compares_and_prints_as_its_arrays():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(5), [1.0, 0.0, -2.0, 0.5, 3.0],
                                     rf.ExpTail(1e-3, 1.5))

    def unread():
        state = rf.backward_evolve(rf.truncate_to_reversible(x, 1e-6)[0], 0.3)
        assert _unwritten(state) and isinstance(state._origin[0], _LawWrite)
        return state

    read = unread()
    read.log_mags
    for out in (pickle.loads(pickle.dumps(unread())), copy.deepcopy(unread()),
                dataclasses.replace(unread())):
        assert _bitwise_equal(out, read)
    assert unread() == read and read == unread() and repr(unread()) == repr(read)
    assert dataclasses.replace(unread(), tail=rf.ExpTail(1.0, 1.0)) == dataclasses.replace(
        read, tail=rf.ExpTail(1.0, 1.0))
    with pytest.raises(AttributeError):
        unread().no_such_attribute
    for written in (False, True):
        state = unread()
        if written:
            state.signs
        for out in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            law = out._origin[0]
            arrays = [law.head.signs, law.head.log_mags, out.signs, out.log_mags, law.signs, law.logs]
            assert not any(array.flags.writeable for array in arrays)
            assert _bitwise_equal(out, read)


def _composed_log_distance(x, y):
    x, y = rf.spectral._aligned(x, y)
    return rf.log_norm(rf.subtract(x, y))


@settings(max_examples=60, deadline=None)
@given(_law_states(), st.integers(min_value=0, max_value=3000), st.floats(min_value=0.0, max_value=2.0),
       st.booleans())
def test_a_one_lineage_gap_is_the_composed_gap_bit_for_bit(x, extra, t, swap):
    depth = x.num_modes + extra
    if depth == 0:
        return

    def pairs():
        """One-lineage pairs, which take no arithmetic on modes, then one that does."""
        def drop():
            return _drop_tail(x, depth)

        def keep():
            return rf.embed(x, depth)

        yield drop(), x
        yield drop(), keep()
        yield keep(), x
        yield rf.evolve(drop(), t), rf.evolve(keep(), t)
        yield rf.evolve(rf.backward_evolve(drop(), t), t), x
        yield rf.evolve(drop(), 0.5), x

    for k, (a, b) in enumerate(pairs()):
        a, b = (b, a) if swap else (a, b)
        gap = log_distance(a, b)
        assert k == 5 or not extra or _unwritten(a if b is x else b)
        assert gap.hex() == _composed_log_distance(a, b).hex()
        relative = rf.relative_gap(a, b)
        scale_log = max(0.0, rf.log_norm(a), rf.log_norm(b))
        assert relative == (0.0 if gap == -math.inf else math.exp(gap - scale_log))


def test_a_twenty_million_mode_truncation_writes_nothing_until_read():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(32), rf.PowerTail(0.75, 1.0))
    tracemalloc.start()
    try:
        out, _ = rf.truncate_to_reversible(x, 0.021)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_modes == 20_567_562 and _unwritten(out) and peak < 2**20
