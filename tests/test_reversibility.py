"""Horizons, classification, backward evolution, and the seminorm family."""

import math

import numpy as np
import pytest

import retroflow as rf
from retroflow.errors import HorizonExceededError, NotFullyReversibleError

PI2 = math.pi**2


def brute_force_backward_series(rate, t, blowup=1e12, max_terms=100_000):
    """Independent oracle: partial sums of the squared backward coefficients
    for the law |a_n| = exp(rate * lambda_n); returns (converged, diverged)."""
    total = 0.0
    for n in range(1, max_terms):
        exponent = 2.0 * (t - rate) * n * n * PI2
        total += math.exp(min(exponent, 700.0))
        if total > blowup:
            return False, True
        if n > 4 and math.exp(min(exponent, 700.0)) < total * 1e-15:
            return True, False
    return False, False


# --- horizon ----------------------------------------------------------------

def test_horizon_zero_tail_unbounded():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(4), [1, 2, 3, 4])
    h = rf.horizon(x)
    assert math.isinf(h.value) and not h.open_at_endpoint


def test_horizon_exponential_tail_open_endpoint():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.ExpTail(0.3, 1.0))
    h = rf.horizon(x)
    assert h.value == 0.3 and h.open_at_endpoint
    # brute-force oracle on both sides of the endpoint
    converged, _ = brute_force_backward_series(0.3, 0.29)
    _, diverged = brute_force_backward_series(0.3, 0.31)
    assert converged and diverged


def test_horizon_power_tail_zero():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0))
    h = rf.horizon(x)
    assert h.value == 0.0 and h.open_at_endpoint


def test_classify_three_way():
    sp = rf.make_heat_spectrum(2)
    assert rf.classify(rf.SpectralState.from_values(sp, [1, 2])).label is rf.ReversibilityClass.FULL
    partial = rf.classify(rf.SpectralState.zeros(sp, rf.ExpTail(0.3, 1.0)))
    assert partial.label is rf.ReversibilityClass.PARTIAL
    assert partial.horizon.value == 0.3
    assert rf.classify(
        rf.SpectralState.zeros(sp, rf.PowerTail(1.0, 1.0))
    ).label is rf.ReversibilityClass.NONE


def test_classification_certificates_name_the_law():
    c = rf.classify(rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.ExpTail(0.3, 1.0)))
    assert "0.3" in c.certificate


# --- backward evolution ------------------------------------------------------

def test_backward_roundtrip_finite_modes():
    rng = np.random.default_rng(3)
    sp = rf.make_heat_spectrum(6)
    x = rf.SpectralState.from_values(sp, rng.normal(size=6))
    back = rf.backward_evolve(x, 1.0)
    assert rf.relative_gap(rf.evolve(back, 1.0), x) < 1e-9


def test_backward_amplification_frozen_scalar():
    # frozen: exp(9 pi^2 / 10)
    sp = rf.make_heat_spectrum(3)
    assert math.exp(
        rf.amplification_log(rf.SpectralState.basis(sp, 3), 0.1)
    ) == pytest.approx(7205.817471970954, rel=1e-12)


def test_backward_of_power_tail_raises_with_horizon():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0))
    with pytest.raises(HorizonExceededError) as err:
        rf.backward_evolve(x, 0.01)
    assert err.value.horizon.value == 0.0


def test_backward_zero_time_is_identity_even_at_zero_horizon():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0))
    assert rf.backward_evolve(x, 0.0) is x


def test_backward_within_exponential_horizon():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.ExpTail(0.5, 1.0))
    moved = rf.backward_evolve(x, 0.2)
    assert moved.tail == rf.ExpTail(0.3, 1.0)
    with pytest.raises(HorizonExceededError):
        rf.backward_evolve(x, 0.5)  # open endpoint not attained


def test_backward_rejects_negative_time():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(1), [1.0])
    with pytest.raises(ValueError, match="forward"):
        rf.backward_evolve(x, -1.0)


def test_roundtrip_strictly_inside_exponential_horizon():
    rng = np.random.default_rng(17)
    sp = rf.make_heat_spectrum(4)
    x = rf.SpectralState.from_values(sp, rng.normal(size=4), rf.ExpTail(0.5, 0.8))
    for t in (0.1, 0.3, 0.49):
        back = rf.backward_evolve(x, t)
        roundtrip = rf.evolve(back, t)
        assert roundtrip.tail == x.tail
        assert rf.relative_gap(roundtrip, x) < 1e-9


def test_deep_mode_roundtrip_beyond_float_range():
    # mode 32 at t = 1 amplifies by exp(1024 pi^2), far beyond float range
    sp = rf.make_heat_spectrum(32)
    x = rf.SpectralState.basis(sp, 32)
    back = rf.backward_evolve(x, 1.0)
    assert back.log_mags[-1] == pytest.approx(1024 * PI2, rel=1e-15)
    assert rf.relative_gap(rf.evolve(back, 1.0), x) < 1e-9


# --- seminorms ---------------------------------------------------------------

def test_seminorm_exponent_cancellation():
    sp = rf.make_heat_spectrum(1)
    x = rf.SpectralState(sp, np.array([1]), np.array([sp.eigenvalues[0] * 5.0]))
    values = rf.frechet_seminorms(x, 5)
    assert values[5] == 1.0  # exact in the log domain
    assert values[0] == pytest.approx(math.exp(-5 * PI2), rel=1e-12)


def test_seminorm_zero_index_is_ambient_norm():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(3), [1.0, -2.0, 0.5])
    assert rf.frechet_seminorms(x, 0)[0] == rf.norm(x)


def test_seminorms_of_zero_state():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(3))
    assert rf.frechet_seminorms(x, 4) == [0.0] * 5


def test_seminorms_require_full_reversibility():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.ExpTail(0.3, 1.0))
    with pytest.raises(NotFullyReversibleError):
        rf.frechet_seminorms(x, 2)


def test_seminorms_separate_and_grow():
    rng = np.random.default_rng(9)
    sp = rf.make_heat_spectrum(4)
    for _ in range(20):
        x = rf.SpectralState.from_values(sp, rng.uniform(0.1, 2.0, size=4))
        logs = rf.log_frechet_seminorms(x, 5)
        assert all(v > -math.inf for v in logs)
        assert all(b > a for a, b in zip(logs, logs[1:]))  # strictly increasing


def test_backward_uniqueness_on_spectral_model():
    rng = np.random.default_rng(13)
    sp = rf.make_heat_spectrum(8)
    for _ in range(30):
        x = rf.SpectralState.from_values(sp, rng.normal(size=8))
        y = rf.SpectralState.from_values(sp, rng.normal(size=8))
        t = float(rng.uniform(0.1, 2.0))
        if rf.relative_gap(x, y) > 1e-6:
            assert rf.evolve(x, t) != rf.evolve(y, t)


# --- the horizon is its value --------------------------------------------------

def test_finite_horizons_are_open_and_the_infinite_one_is_not():
    assert rf.Horizon(0.3).open_at_endpoint
    assert rf.Horizon(0.0).open_at_endpoint
    assert not rf.Horizon(math.inf).open_at_endpoint


def test_horizon_allows_steps_short_of_its_value():
    h = rf.Horizon(0.3)
    assert h.allows(0.0) and h.allows(-1.0)
    assert h.allows(math.nextafter(0.3, 0.0))
    assert not h.allows(0.3)
    assert rf.Horizon(math.inf).allows(1e300)
    assert not rf.Horizon(0.0).allows(1e-300)


def test_horizon_rejects_negative_value():
    with pytest.raises(ValueError, match="negative"):
        rf.Horizon(-0.1)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_backward_rejects_non_finite_time(t):
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2))
    with pytest.raises(ValueError, match="finite"):
        rf.backward_evolve(x, t)
