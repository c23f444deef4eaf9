"""Spectral states, the forward flow, norms, and the tail envelope algebra.

Expected values marked as frozen were produced by the independent oracles
named next to them (brute-force series summation, dense matrix exponential,
closed-form zeta values) and are pinned here.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retroflow as rf
from conftest import mp_log_tail_sum
from retroflow.logdomain import log_tail_sum
from retroflow.spectral import Spectrum, combine_tails_sub

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
    with pytest.raises(ValueError):
        rf.inner_product(a, b)


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
