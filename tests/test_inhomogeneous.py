"""Forced (affine) evolution: closed forms, quadrature, and inversion."""

import math

import numpy as np
import pytest

import retroflow as rf
from retroflow.errors import HorizonExceededError
from retroflow.inhomogeneous import DEFAULT_QUADRATURE, mode_response

PI2 = math.pi**2
QUAD = rf.QuadratureConfig(steps=64)


def test_zero_forcing_reduces_to_flow():
    rng = np.random.default_rng(1)
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(4), rng.normal(size=4))
    assert rf.duhamel_evolve(x, rf.ZERO_FORCING, 0.8, QUAD) == rf.evolve(x, 0.8)


def test_unforced_modes_match_the_flow_bit_for_bit():
    rng = np.random.default_rng(2)
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(6), rng.normal(size=6),
                                     rf.ExpTail(0.5, 1.0))
    forcing = rf.Forcing.from_dict({2: rf.ConstantForcing(1.5), 5: rf.ConstantForcing(-0.25)})
    forced, flowed = rf.duhamel_evolve(x, forcing, 0.3, QUAD), rf.evolve(x, 0.3)
    unforced = [0, 2, 3, 5]
    assert np.array_equal(forced.signs[unforced], flowed.signs[unforced])
    assert np.array_equal(forced.log_mags[unforced], flowed.log_mags[unforced])
    assert forced.tail == flowed.tail
    drive = rf.forcing_integral(x.spectrum, forcing, 0.3, QUAD).coeff_values()
    np.testing.assert_allclose(forced.coeff_values()[[1, 4]],
                               flowed.coeff_values()[[1, 4]] + drive[[1, 4]], rtol=1e-13)


def test_constant_forcing_against_ode_closed_form():
    # frozen: (1 - exp(-pi^2)) / pi^2, the solution of a' = -pi^2 a + 1 at t = 1
    x0 = rf.SpectralState.zeros(rf.make_heat_spectrum(4))
    f = rf.Forcing.from_dict({1: rf.ConstantForcing(1.0)})
    got = rf.duhamel_evolve(x0, f, 1.0, QUAD).coeff(1).to_linear()
    assert got == pytest.approx(0.10131594298788986, rel=1e-8)


def test_exponential_forcing_closed_form_and_simpson():
    # frozen: (exp(mu t) - exp(lam t)) / (mu - lam), mu = 1, lam = -pi^2, t = 1/2
    lam = -PI2
    expected = 0.1510201592230704
    exact, err = mode_response(lam, rf.ExponentialForcing(1.0, 1.0), 0.5, QUAD)
    assert exact == pytest.approx(expected, rel=1e-12) and err == 0.0
    # the same forcing as a sampled table goes through Simpson; the table must
    # be dense enough that its interpolation error stays below the target
    s = np.linspace(0.0, 0.5, 16385)
    table = rf.TableForcing(s, np.exp(s))
    approx, estimate = mode_response(lam, table, 0.5, rf.QuadratureConfig(steps=256))
    assert approx == pytest.approx(expected, rel=1e-8)
    assert estimate > 0.0


def test_simpson_fourth_order_convergence():
    lam = -PI2
    table = rf.TableForcing(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    exact = (1 - math.exp(lam)) / -lam
    errs = []
    for steps in (32, 64, 128):
        got, _ = mode_response(lam, table, 1.0, rf.QuadratureConfig(steps=steps))
        errs.append(abs(got - exact))
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


def test_adaptive_quadrature_meets_tolerance():
    lam = -PI2
    s = np.linspace(0.0, 1.0, 1025)
    table = rf.TableForcing(s, np.exp(np.sin(3 * s)))
    quad = rf.QuadratureConfig(steps=8, adaptive=True, tol=1e-10)
    got, estimate = mode_response(lam, table, 1.0, quad)
    assert estimate <= 1e-10 * max(1.0, abs(got))


def test_table_must_cover_interval():
    lam = -PI2
    table = rf.TableForcing(np.array([0.0, 0.4]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="cover"):
        mode_response(lam, table, 1.0, QUAD)


def test_near_resonant_exponential_forcing():
    lam = -PI2
    # rate equal to the eigenvalue: the closed form degenerates to t exp(lam t)
    got, _ = mode_response(lam, rf.ExponentialForcing(2.0, lam), 0.3, QUAD)
    assert got == pytest.approx(2.0 * 0.3 * math.exp(lam * 0.3), rel=1e-12)


def test_affine_backward_roundtrip():
    rng = np.random.default_rng(3)
    sp = rf.make_heat_spectrum(4)
    f = rf.Forcing.from_dict({
        1: rf.ConstantForcing(0.7),
        2: rf.ExponentialForcing(-0.4, 0.6),
    })
    x0 = rf.SpectralState.from_values(sp, rng.normal(size=4))
    forward = rf.duhamel_evolve(x0, f, 0.5, QUAD)
    back = rf.affine_backward(forward, f, 0.5, QUAD)
    assert rf.relative_gap(back, x0) < 1e-8


def test_affine_backward_reduces_to_backward_flow():
    rng = np.random.default_rng(4)
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(3), rng.normal(size=3))
    assert rf.affine_backward(x, rf.ZERO_FORCING, 0.7, QUAD) == rf.backward_evolve(x, 0.7)


def test_affine_backward_of_pure_drive_is_zero():
    sp = rf.make_heat_spectrum(3)
    f = rf.Forcing.from_dict({1: rf.ConstantForcing(1.0)})
    drive = rf.forcing_integral(sp, f, 0.4, QUAD)
    assert rf.affine_backward(drive, f, 0.4, QUAD).is_zero()


def test_affine_backward_respects_horizon():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0))
    f = rf.Forcing.from_dict({1: rf.ConstantForcing(1.0)})
    with pytest.raises(HorizonExceededError):
        rf.affine_backward(x, f, 0.2, QUAD)


def test_affine_norm_zero_depth_exact():
    rng = np.random.default_rng(5)
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(4), rng.normal(size=4))
    f = rf.Forcing.from_dict({2: rf.ConstantForcing(3.0)})
    assert rf.affine_norm(x, f, 0.0, QUAD) == rf.norm(x)


def test_affine_norm_matches_homogeneous_depth_norm():
    # frozen: exp(-pi^2) for the first basis vector at depth 1
    sp = rf.make_heat_spectrum(2)
    e1 = rf.SpectralState.basis(sp, 1)
    f = rf.Forcing.from_dict({1: rf.ExponentialForcing(0.8, -0.3)})
    assert rf.affine_norm(e1, f, 1.0, QUAD) == pytest.approx(5.172318620381234e-05, rel=1e-9)


def test_affine_norm_triangle():
    rng = np.random.default_rng(6)
    sp = rf.make_heat_spectrum(4)
    f = rf.Forcing.from_dict({1: rf.ConstantForcing(1.0)})
    for _ in range(20):
        x = rf.SpectralState.from_values(sp, rng.normal(size=4))
        y = rf.SpectralState.from_values(sp, rng.normal(size=4))
        nxy = rf.affine_norm(rf.add(x, y), f, 0.5, QUAD)
        assert nxy <= rf.affine_norm(x, f, 0.5, QUAD) + rf.affine_norm(y, f, 0.5, QUAD) \
            + 1e-12 * max(1.0, nxy)


def test_affine_composition_with_shifted_forcing():
    rng = np.random.default_rng(7)
    sp = rf.make_heat_spectrum(3)
    f = rf.Forcing.from_dict({1: rf.ExponentialForcing(0.9, 0.4)})
    x = rf.SpectralState.from_values(sp, rng.normal(size=3))
    s, t = 0.3, 0.6
    one = rf.duhamel_evolve(x, f, s + t, QUAD)
    two = rf.duhamel_evolve(rf.duhamel_evolve(x, f, s, QUAD), f.shifted(s), t, QUAD)
    assert rf.relative_gap(one, two) < 1e-8


def test_forcing_shift_of_table():
    table = rf.TableForcing(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    f = rf.Forcing.from_dict({1: table}).shifted(0.25)
    shifted = f.get(1)
    assert shifted.times[0] == 0.0
    assert np.interp(0.25, shifted.times, shifted.values) == pytest.approx(1.0)


def test_forcing_beyond_truncation_ignored():
    sp = rf.make_heat_spectrum(2)
    f = rf.Forcing.from_dict({5: rf.ConstantForcing(1.0)})
    assert rf.forcing_integral(sp, f, 1.0, QUAD).is_zero()


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        rf.QuadratureConfig(steps=5)
    with pytest.raises(ValueError):
        rf.QuadratureConfig(steps=0)
    assert DEFAULT_QUADRATURE.steps == 64


def test_nan_table_sample_is_rejected():
    # a NaN sample must not turn into an all-zero drive
    sp = rf.make_heat_spectrum(3)
    table = rf.TableForcing(np.array([0.0, 0.5, 1.0]), np.array([1.0, math.nan, 1.0]))
    forcing = rf.Forcing.from_dict({1: table})
    with pytest.raises(ValueError, match="finite"):
        rf.forcing_integral(sp, forcing, 1.0, QUAD)
    with pytest.raises(ValueError, match="finite"):
        rf.duhamel_evolve(rf.SpectralState.zeros(sp), forcing, 1.0, QUAD)
