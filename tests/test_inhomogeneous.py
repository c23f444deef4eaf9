"""Forced (affine) evolution: closed forms, quadrature, and inversion."""

import math

import numpy as np
import pytest

import retroflow as rf
from retroflow.errors import HorizonExceededError
from retroflow import inhomogeneous
from retroflow.inhomogeneous import DEFAULT_QUADRATURE, mode_response, simpson_integrate

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


@pytest.mark.parametrize("steps", [64.0, True, "64", np.float64(64.0)])
def test_quadrature_steps_must_be_an_integer(steps):
    # 64.0 used to pass here and fail later inside np.linspace
    with pytest.raises(ValueError, match="integer"):
        rf.QuadratureConfig(steps=steps)
    assert rf.QuadratureConfig(steps=np.int64(64)).steps == 64


@pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
def test_forced_flow_refuses_a_time_that_is_not_finite_and_nonnegative(t):
    sp = rf.make_heat_spectrum(3)
    table = rf.TableForcing(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    forcing = rf.Forcing.from_dict({1: table, 2: rf.ConstantForcing(1.0)})
    with pytest.raises(ValueError, match="finite and nonnegative"):
        rf.forcing_integral(sp, forcing, t)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        rf.duhamel_evolve(rf.SpectralState.zeros(sp), forcing, t)


def test_quadrature_steps_are_bounded():
    # refused when the config is built, before any node is allocated
    assert rf.QuadratureConfig(steps=inhomogeneous.MAX_STEPS).steps == 1 << 20
    for steps in ((1 << 20) + 2, 1 << 40):
        with pytest.raises(ValueError, match="at most"):
            rf.QuadratureConfig(steps=steps)


def test_nan_table_sample_is_rejected():
    # a NaN sample must not turn into an all-zero drive
    with pytest.raises(ValueError, match="finite"):
        rf.TableForcing(np.array([0.0, 0.5, 1.0]), np.array([1.0, math.nan, 1.0]))


@pytest.mark.parametrize("times, values", [
    ([0.0, 0.5, 1.0], [1.0, math.nan, 1.0]),
    ([0.0, 0.5, 1.0], [1.0, math.inf, 1.0]),
    ([0.0, 0.5, 1.0], [1.0, -math.inf, 1.0]),
    ([0.0, 0.5, math.inf], [1.0, 1.0, 1.0]),
])
def test_non_finite_sample_where_the_kernel_underflows_is_rejected(times, values):
    # on mode 22 at t = 1 the kernel exp(-(22 pi)^2 (1 - s)) is exactly 0 at
    # s = 0.5, so quadrature never reads that sample: the table must refuse it
    assert math.exp(-((22 * math.pi) ** 2) * 0.5) == 0.0
    with pytest.raises(ValueError, match="finite"):
        rf.TableForcing(np.array(times), np.array(values))


def reference_simpson(fn, a, b, quad):
    """Simpson on a fresh grid at every level, as the rule was first written;
    returns (value, estimate, step count of the value)."""
    def rule(steps):
        y = fn(np.linspace(a, b, steps + 1))
        weighted = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])
        return float((b - a) / steps / 3.0 * weighted)

    steps = quad.steps
    coarse = rule(steps)
    while True:
        fine = rule(2 * steps)
        estimate = abs(fine - coarse) / 15.0
        if not quad.adaptive:
            return coarse, estimate, steps
        if estimate <= quad.tol * max(1.0, abs(fine)) or steps >= 1 << 20:
            return fine, estimate, 2 * steps
        coarse, steps = fine, 2 * steps


def counting(fn, nodes):
    def counted(s):
        nodes.append(s.copy())
        return fn(s)
    return counted


def smooth(s):
    return np.exp(np.sin(3.0 * s))


@pytest.mark.parametrize("steps", [2, 6, 64])
def test_fixed_step_simpson_evaluates_each_node_once_and_matches_the_reference(steps):
    quad = rf.QuadratureConfig(steps=steps)
    nodes = []
    value, estimate = simpson_integrate(counting(smooth, nodes), 0.1, 1.7, quad)
    grid = np.concatenate(nodes)
    assert grid.size == 2 * steps + 1
    assert np.array_equal(np.sort(grid), np.linspace(0.1, 1.7, 2 * steps + 1))
    want, want_estimate, _ = reference_simpson(smooth, 0.1, 1.7, quad)
    assert value == want  # bit for bit: the coarse value's arithmetic is the reference's
    assert estimate == pytest.approx(want_estimate, rel=1e-6)


@pytest.mark.parametrize("steps, tol", [(2, 1e-8), (8, 1e-10), (64, 1e-13)])
def test_adaptive_simpson_evaluates_each_node_once_and_matches_the_reference(steps, tol):
    quad = rf.QuadratureConfig(steps=steps, adaptive=True, tol=tol)
    nodes = []
    value, _ = simpson_integrate(counting(smooth, nodes), 0.1, 1.7, quad)
    want, _, want_steps = reference_simpson(smooth, 0.1, 1.7, quad)
    # every refinement after the first grid evaluates only its new midpoints
    assert [n.size for n in nodes] == [steps + 1] + [steps << k for k in range(len(nodes) - 1)]
    assert 2 * nodes[-1].size == want_steps > 2 * steps
    grid = np.sort(np.concatenate(nodes))
    assert grid.size == want_steps + 1
    assert np.array_equal(grid, np.linspace(0.1, 1.7, want_steps + 1))
    assert abs(value - want) <= 1e-15 * abs(want)


def test_adaptive_simpson_stops_at_the_step_ceiling():
    # sqrt converges too slowly for the tolerance: the last refinement is of
    # the MAX_STEPS grid, as in the reference
    sizes = []
    quad = rf.QuadratureConfig(steps=inhomogeneous.MAX_STEPS // 4, adaptive=True, tol=1e-300)
    value, _ = simpson_integrate(lambda s: sizes.append(s.size) or np.sqrt(s), 0.0, 1.0, quad)
    assert sizes[-1] == inhomogeneous.MAX_STEPS and sum(sizes) == 2 * inhomogeneous.MAX_STEPS + 1
    want, _, want_steps = reference_simpson(np.sqrt, 0.0, 1.0, quad)
    assert want_steps == 2 * inhomogeneous.MAX_STEPS
    assert abs(value - want) <= 1e-15 * abs(want)


def captured_integrand(monkeypatch, lam, table, t):
    """The integrand ``mode_response`` hands to the quadrature."""
    seen = []
    monkeypatch.setattr(inhomogeneous, "simpson_integrate",
                        lambda fn, a, b, quad: seen.append(fn) or (0.0, 0.0))
    mode_response(lam, table, t, QUAD)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("mode", [22, 64])
def test_table_integrand_matches_the_full_expression(mode, monkeypatch):
    # most nodes sit where exp(lam (t - s)) is exactly 0 and are skipped
    lam, t = -((mode * math.pi) ** 2), 1.0
    s = np.linspace(0.0, t, 65537)
    times = np.arange(17) / 16
    for values in (np.random.default_rng(mode).uniform(-1.0, 1.0, 17), np.linspace(1.0, 2.0, 17)):
        got = captured_integrand(monkeypatch, lam, rf.TableForcing(times, values), t)(s)
        want = np.exp(lam * (t - s)) * np.interp(s, times, values)
        assert np.array_equal(got, want)  # equal values; a skipped node is +0.0, never -0.0
        if np.all(values > 0.0):
            assert got.tobytes() == want.tobytes()


def test_adaptive_table_quadrature_stops_where_the_reference_stops(monkeypatch):
    # tables as the deep-certify benchmark draws them: 17 samples on [0, 1],
    # the last one +-1, on modes 13-15 and 19-22
    nodes = []
    nested = inhomogeneous.simpson_integrate
    monkeypatch.setattr(inhomogeneous, "simpson_integrate",
                        lambda fn, a, b, quad: nested(counting(fn, nodes), a, b, quad))
    quad = rf.QuadratureConfig(steps=64, adaptive=True, tol=1e-10)
    times = np.arange(17) / 16
    rng = np.random.default_rng(13)
    for mode in (13, 14, 15, 19, 20, 21, 22):
        lam = -((mode * math.pi) ** 2)
        values = rng.uniform(-1.0, 1.0, 17)
        values[-1] = rng.choice([-1.0, 1.0])
        nodes.clear()
        got, _ = mode_response(lam, rf.TableForcing(times, values), 1.0, quad)
        want, _, want_steps = reference_simpson(
            lambda s: np.exp(lam * (1.0 - s)) * np.interp(s, times, values), 0.0, 1.0, quad)
        assert 2 * nodes[-1].size == want_steps
        assert sum(n.size for n in nodes) == want_steps + 1
        assert abs(got - want) <= 1e-15 * abs(want)
