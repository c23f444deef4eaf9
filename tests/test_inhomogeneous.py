"""Forced (affine) evolution: closed forms, quadrature, and inversion."""

import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import retroflow as rf
from retroflow.errors import HorizonExceededError
from retroflow import inhomogeneous
from retroflow.inhomogeneous import DEFAULT_QUADRATURE, mode_response, simpson_integrate

from reference import mp_simpson_table

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


def node_sums(fn, a, b, asked):
    """Level sums for :func:`simpson_integrate` that evaluate ``fn`` node by
    node, at the places ``np.linspace`` puts them, over any progressions; it
    records each progression as (steps, node indices) in ``asked``."""
    def sums(progressions):
        out = []
        for steps, first, count, stride in progressions.T.astype(int).tolist():
            i = first + stride * np.arange(count)
            asked.append((steps, i))
            s = a + i * ((b - a) / steps)
            s[i == steps] = b
            out.append(np.sum(fn(s)))
        return np.array(out)
    return sums


def ladder(quad):
    """The progressions whose sums the rule reads for ``quad``."""
    return inhomogeneous._ladder(quad.steps, quad.adaptive)


def on_grid(asked, steps):
    """The progressions' nodes as indices on the grid of ``steps`` intervals, sorted."""
    return np.sort(np.concatenate([i * (steps // n) for n, i in asked]))


def smooth(s):
    return np.exp(np.sin(3.0 * s))


def table_integrand(lam, table, t):
    return lambda s: np.exp(lam * (t - s)) * np.interp(s, table.times, table.values)


@pytest.mark.parametrize("steps", [2, 6, 64])
def test_fixed_step_simpson_evaluates_each_node_once_and_matches_the_reference(steps):
    quad = rf.QuadratureConfig(steps=steps)
    asked = []
    value, estimate = simpson_integrate(node_sums(smooth, 0.1, 1.7, asked)(ladder(quad)), 0.1, 1.7, quad)
    # the ladder's progressions cover the refined grid, each node once
    assert np.array_equal(on_grid(asked, 2 * steps), np.arange(2 * steps + 1))
    want, want_estimate, _ = reference_simpson(smooth, 0.1, 1.7, quad)
    assert value == want  # bit for bit: the coarse value's arithmetic is the reference's
    assert estimate == pytest.approx(want_estimate, rel=1e-6)


@pytest.mark.parametrize("steps, tol", [(2, 1e-8), (8, 1e-10), (64, 1e-13)])
def test_adaptive_simpson_evaluates_each_node_once_and_matches_the_reference(steps, tol):
    quad = rf.QuadratureConfig(steps=steps, adaptive=True, tol=tol)
    asked = []
    value, estimate = simpson_integrate(node_sums(smooth, 0.1, 1.7, asked)(ladder(quad)), 0.1, 1.7, quad)
    want, want_estimate, want_steps = reference_simpson(smooth, 0.1, 1.7, quad)
    # the ladder covers every grid the run may reach, each node once: the
    # first grid, then each refinement's new midpoints
    finest = max(n for n, _ in asked)
    assert finest >= inhomogeneous.MAX_STEPS and want_steps > 2 * steps
    assert np.array_equal(on_grid(asked, finest), np.arange(finest + 1))
    assert abs(value - want) <= 1e-15 * abs(want)
    # adjacent levels' estimates differ severalfold: this pins the stop level
    assert estimate == pytest.approx(want_estimate, rel=1e-6)


def test_adaptive_simpson_stops_at_the_step_ceiling():
    # sqrt converges too slowly for the tolerance: the last refinement is of
    # the MAX_STEPS grid, as in the reference
    asked = []
    quad = rf.QuadratureConfig(steps=inhomogeneous.MAX_STEPS // 4, adaptive=True, tol=1e-300)
    value, _ = simpson_integrate(node_sums(np.sqrt, 0.0, 1.0, asked)(ladder(quad)), 0.0, 1.0, quad)
    finest = 2 * inhomogeneous.MAX_STEPS
    assert max(n for n, _ in asked) == finest
    assert np.array_equal(on_grid(asked, finest), np.arange(finest + 1))
    want, _, want_steps = reference_simpson(np.sqrt, 0.0, 1.0, quad)
    assert want_steps == finest
    assert abs(value - want) <= 1e-15 * abs(want)


def table_node_sums(lam, table, t):
    """The level sums of ``mode_response``'s kernel, over any progressions."""
    return lambda progressions: inhomogeneous._level_sums([lam], [table], t, progressions)[0]


def rounding_bound(weights, lam, table, t, s):
    """``64 * 2^-52 * sum |w K| (|f| (1 + |a|) + |v_k| + |slope_k (s - t_k)|)``
    over nodes ``s`` with Simpson weights ``w`` (prefactor included), kernels
    ``K = e^a`` and ``f`` on segment ``k``: the bound the closed-form sums
    keep against exact ones on exact nodes.

    A (progression, segment) pair sums to ``E (f_a G0 -+ slope d G1)``.  The
    anchor's exponent ``lam h (steps - i)`` and the ``r k`` inside ``G0`` and
    ``G1`` take two roundings each, which moves a node's kernel by at most
    ``eps (1 + 4 |a|)``, ``eps = 2^-53``; for lam > 0 anchor and walk have
    opposite signs, so ``|a|`` is taken as ``2 lam t`` there.  ``G0`` takes
    three roundings; ``G1`` is a difference of two products that cancels at
    most 4.1-fold, about 25 ``eps``.  ``f_a = v_k + slope_k (s - t_k)`` takes
    three roundings of its two terms, as in ``np.interp``, and walking from it
    moves no node by more than those terms.  Along a segment ``f`` is linear,
    so ``|f_a| G0 + |slope d| G1`` is at most 4 times ``sum e^{rk} |f_k|``.
    The sums over pairs and levels and the prefactor add a few ``eps`` of the
    total.  That is under 40 ``eps`` per node; 64 ulps leave room.
    """
    k = np.clip(np.searchsorted(table.times, s, side="right") - 1, 0, table.times.size - 2)
    slopes = np.diff(table.values) / np.diff(table.times)
    along = np.where(s < table.times[-1], slopes[k] * (s - table.times[k]), 0.0)
    spread = np.abs(np.where(s < table.times[-1], table.values[k], table.values[-1])) + np.abs(along)
    f = np.interp(s, table.times, table.values)
    a = lam * (t - s) if lam <= 0.0 else 2.0 * lam * t
    kernels = np.abs(weights) * np.exp(lam * (t - s))
    return 64 * 2.0 ** -52 * np.sum(kernels * (np.abs(f) * (1.0 + np.abs(a)) + spread))


def simpson_bound(lam, table, t, steps):
    """How far ``mode_response``'s Simpson value on ``steps`` intervals may
    sit from the exact-node sum: :func:`rounding_bound`, plus, where
    ``t / steps`` is not a double, the node rounding: the nodes
    ``i fl(t / steps)`` sit up to ``ulp(t)`` off the exact ones, which moves
    the kernel by ``|lam| ulp(t)`` and the interpolant by its slope times that."""
    s = np.linspace(0.0, t, steps + 1)
    weights = np.where(np.arange(steps + 1) % 2, 4.0, 2.0)
    weights[[0, -1]] = 1.0
    weights *= t / steps / 3.0
    bound = rounding_bound(weights, lam, table, t, s)
    if Fraction(t) / steps != Fraction(t / steps):
        kernels = weights * np.exp(lam * (t - s))
        f = np.interp(s, table.times, table.values)
        slopes = np.abs(np.diff(table.values) / np.diff(table.times)).max()
        bound += np.sum(kernels * (abs(lam) * np.abs(f) + slopes)) * np.spacing(t)
    return bound + 1e-300  # and what underflows


@pytest.mark.parametrize("mode", [22, 64])
def test_table_integrand_matches_the_full_expression(mode):
    # the sums the table hands the quadrature are those of the full expression
    # exp(lam (t - s)) interp(s) on its nodes, to rounding: the whole grid,
    # one level's midpoints and a progression of stride 3
    lam, t, steps = -((mode * math.pi) ** 2), 1.0, 65536
    times = np.arange(17) / 16
    for values in (np.random.default_rng(mode).uniform(-1.0, 1.0, 17), np.linspace(1.0, 2.0, 17)):
        table = rf.TableForcing(times, values)
        progressions = [(0, steps + 1, 1), (1, steps // 2, 2), (2, steps // 3, 3)]
        got = table_node_sums(lam, table, t)(np.array([[steps] * 3, *zip(*progressions)], dtype=float))
        for value, (first, count, stride) in zip(got, progressions):
            s = (first + stride * np.arange(count)) / steps
            terms = table_integrand(lam, table, t)(s)
            assert abs(value - np.sum(terms)) <= rounding_bound(np.ones_like(s), lam, table, t, s)


def bench_style_tables():
    """Tables as the deep-certify benchmark draws them: 17 samples on [0, 1],
    the last one +-1, on modes 13-15 and 19-22; yields (lam, table)."""
    times = np.arange(17) / 16
    rng = np.random.default_rng(13)
    for mode in (13, 14, 15, 19, 20, 21, 22):
        values = rng.uniform(-1.0, 1.0, 17)
        values[-1] = rng.choice([-1.0, 1.0])
        yield -((mode * math.pi) ** 2), rf.TableForcing(times, values)


def test_adaptive_table_quadrature_stops_where_the_reference_stops():
    # adjacent levels differ by about tol, so agreeing to 1e-15 with the node
    # by node reference, and on the estimate, pins the stop level too
    quad = rf.QuadratureConfig(steps=64, adaptive=True, tol=1e-10)
    for lam, table in bench_style_tables():
        got, estimate = mode_response(lam, table, 1.0, quad)
        want, want_estimate, _ = reference_simpson(table_integrand(lam, table, 1.0), 0.0, 1.0, quad)
        assert abs(got - want) <= 1e-15 * abs(want)
        assert estimate == pytest.approx(want_estimate, rel=1e-6)


@pytest.mark.parametrize("lam", [2.0, 0.0, -PI2, -700.0])
@pytest.mark.parametrize("adaptive", [False, True])
def test_table_quadrature_without_a_cut_evaluates_the_whole_grid(lam, adaptive):
    # every node counts, also where the kernel is tiny (-700) or growing (2):
    # the value is the full-grid reference's
    quad = rf.QuadratureConfig(steps=8, adaptive=adaptive, tol=1e-8)
    table = rf.TableForcing(np.arange(5) / 4, np.array([1.0, -0.5, 0.25, 2.0, -1.0]))
    got, estimate = mode_response(lam, table, 1.0, quad)
    want, want_estimate, want_steps = reference_simpson(table_integrand(lam, table, 1.0), 0.0, 1.0, quad)
    # the samples change sign, so the value is small against its terms: both
    # sit within the rounding bound of the exact-node sum
    assert abs(got - want) <= 2.0 * simpson_bound(lam, table, 1.0, want_steps)
    assert estimate == pytest.approx(want_estimate, rel=1e-6)


def zero_until(start, t):
    """A table that is zero up to ``start`` and samples ``smooth - smooth(start)`` past it."""
    times = np.concatenate(([0.0], np.linspace(start, t, 9)))
    return rf.TableForcing(times, np.concatenate(([0.0, 0.0], smooth(times[2:]) - smooth(start))))


@pytest.mark.parametrize("steps, adaptive", [(2, False), (6, False), (64, False), (8, True)])
@pytest.mark.parametrize("start", [0.1, 0.35, 0.9, 1.699])
def test_simpson_evaluates_only_the_nodes_past_start(steps, adaptive, start):
    # a forcing that is zero below start: the nodes there add exactly nothing,
    # and the value is the reference's
    lam, t = -PI2, 1.7
    table = zero_until(start, t)
    quad = rf.QuadratureConfig(steps=steps, adaptive=adaptive, tol=1e-9)
    value, estimate = mode_response(lam, table, t, quad)
    want, want_estimate, want_steps = reference_simpson(table_integrand(lam, table, t), 0.0, t, quad)
    assert abs(value - want) <= 2.0 * simpson_bound(lam, table, t, want_steps)
    assert estimate == pytest.approx(want_estimate, rel=1e-6, abs=1e-15)
    below = int(np.ceil(start / t * want_steps)) - 1  # the last node below start
    if below >= 0:
        sums = table_node_sums(lam, table, t)
        assert sums(np.array([[want_steps], [0.0], [below + 1], [1.0]])).tolist() == [0.0]


def test_simpson_with_start_past_the_interval_evaluates_nothing():
    # a forcing that is zero on the whole interval gives exactly nothing
    table = rf.TableForcing(np.array([0.0, 1.8, 2.0]), np.array([0.0, 0.0, 3.0]))
    for lam in (-PI2, 0.0, 2.0):
        assert mode_response(lam, table, 1.7, QUAD) == (0.0, 0.0)


def test_table_node_sums_at_lam_zero_are_exact():
    # with r = 0 the closed forms are G0 = m and G1 = m (m - 1) / 2: integer
    # samples on dyadic knots sum exactly, whatever the progression
    table = rf.TableForcing(np.array([0.0, 0.25, 0.5, 1.0]), np.array([3.0, -5.0, 7.0, 1.0]))
    sums = table_node_sums(0.0, table, 1.0)
    for steps, first, count, stride in [(64, 0, 65, 1), (64, 1, 32, 2), (1024, 2, 511, 2), (256, 3, 20, 7)]:
        s = [Fraction(first + stride * j, steps) for j in range(count)]
        want = sum(exact_interp(x, table) for x in s)
        got = sums(np.array([[steps], [first], [count], [stride]], dtype=float))[0]
        assert Fraction(got) == want


def exact_interp(x, table):
    times, values = [Fraction(v) for v in table.times], [Fraction(v) for v in table.values]
    k = max(j for j in range(len(times) - 1) if times[j] <= x) if x < times[-1] else len(times) - 2
    return values[k] + (values[k + 1] - values[k]) * (x - times[k]) / (times[k + 1] - times[k])


def test_growing_kernel_is_summed_from_its_bottom_node_without_overflow():
    # lam > 0 anchors each segment at its bottom node, so the largest kernel
    # taken is the node path's, e^{lam t} at s = 0: 1e304 here, not past it
    table = rf.TableForcing(np.arange(5) / 4, np.array([1.0, -0.5, 0.25, 2.0, -1.0]))
    for quad in (QUAD, rf.QuadratureConfig(steps=8, adaptive=True, tol=1e-10)):
        got, _ = mode_response(700.0, table, 1.0, quad)
        want, _, _ = reference_simpson(table_integrand(700.0, table, 1.0), 0.0, 1.0, quad)
        assert math.isfinite(got) and abs(got - want) <= 1e-14 * abs(want)


def test_table_quadrature_stops_at_the_step_ceiling():
    # a tolerance no level meets: the value is the reference's at the
    # refinement of the MAX_STEPS grid
    lam, table = next(bench_style_tables())
    quad = rf.QuadratureConfig(steps=inhomogeneous.MAX_STEPS // 4, adaptive=True, tol=1e-300)
    got, estimate = mode_response(lam, table, 1.0, quad)
    want, want_estimate, want_steps = reference_simpson(table_integrand(lam, table, 1.0), 0.0, 1.0, quad)
    assert want_steps == 2 * inhomogeneous.MAX_STEPS
    assert abs(got - want) <= 1e-15 * abs(want)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


CEILING = rf.QuadratureConfig(steps=inhomogeneous.MAX_STEPS // 4, adaptive=True, tol=1e-300)


def test_table_quadrature_at_the_step_ceiling_allocates_under_a_megabyte():
    # a cost guard in memory: the node path's last refinement alone built
    # 2^20 nodes, 8 MB; the closed form holds arrays over segments
    lam, table = next(bench_style_tables())
    assert traced_peak(lambda: mode_response(lam, table, 1.0, CEILING)) < 1 << 20


def test_large_table_quadrature_allocates_less_than_the_node_path():
    # 10^5 samples: the (progression, segment) arrays go in passes of at most
    # _CELLS cells; the node path peaked at 14.9 MB at the ceiling, and the
    # adaptive run from 64 steps sums every level of its ladder
    times = np.linspace(0.0, 1.0, 10**5)
    table = rf.TableForcing(times, np.sin(7.0 * times))
    for quad in (CEILING, rf.QuadratureConfig(steps=64, adaptive=True, tol=1e-10)):
        assert traced_peak(lambda: mode_response(-PI2 * 169, table, 1.0, quad)) < 8 << 20


LAMS = [0.0, 1e-12, -1e-12, -1e-6, -1e-3, -PI2, -700.0, -(22 * math.pi) ** 2, 2.0]


def adaptive_steps(lam, table, t, quad):
    """The step count of an adaptive run's value, replayed from non-adaptive
    runs: the refinement of the first level whose estimate meets ``tol``."""
    steps = quad.steps
    while True:
        _, estimate = mode_response(lam, table, t, rf.QuadratureConfig(steps=steps))
        fine, _ = mode_response(lam, table, t, rf.QuadratureConfig(steps=2 * steps))
        if estimate <= quad.tol * max(1.0, abs(fine)) or steps >= inhomogeneous.MAX_STEPS:
            return 2 * steps
        steps *= 2


@settings(max_examples=80, deadline=None)
@given(lam=st.sampled_from(LAMS),
       inner=st.lists(st.floats(0.01, 0.99), max_size=5, unique=True),
       before=st.floats(0.0, 0.5),
       values=st.lists(st.floats(-2.0, 2.0), min_size=7, max_size=7),
       end=st.sampled_from([1.0, 0.7, 0.3]),
       past=st.integers(0, 10),
       level=st.integers(1, 12), triple=st.booleans(),
       adaptive=st.booleans(), tol=st.sampled_from([1e-3, 1e-5]))
def test_mode_response_is_exact_node_simpson_to_rounding(
        lam, inner, before, values, end, past, level, triple, adaptive, tol):
    # knots off the grid, the first before 0, values of both signs; t up to
    # the 1e-12 past the last knot that the table still covers
    times = np.array(sorted({-before, *inner, 1.0}))
    table = rf.TableForcing(times, np.array(values[:times.size]))
    t = 1.0 + past * 1e-13 if end == 1.0 else end
    steps = min((3 if triple else 1) << level, 1 << 12)
    if adaptive:
        quad = rf.QuadratureConfig(steps=min(steps, 256), adaptive=True, tol=tol)
        steps = adaptive_steps(lam, table, t, quad)
        assume(steps <= 1 << 13)
    else:
        quad = rf.QuadratureConfig(steps=steps)
    got, _ = mode_response(lam, table, t, quad)
    want = mp_simpson_table(lam, table.times, table.values, t, steps)
    assert abs(got - float(want)) <= simpson_bound(lam, table, t, steps)


def mp_exponential_response(a, mu, lam, t):
    """``a (e^{mu t} - e^{lam t}) / (mu - lam)`` at 60 digits, ``a t e^{lam t}`` at ``mu = lam``."""
    with mp.workdps(60):
        a, mu, lam, t = (mp.mpf(v) for v in (a, mu, lam, t))
        if mu == lam:
            return a * t * mp.exp(lam * t)
        return a * (mp.exp(mu * t) - mp.exp(lam * t)) / (mu - lam)


@pytest.mark.parametrize("rel_gap", [0.0, 1e-15, -2e-11, 2e-11, 1e-12, -1e-9, 1e-6, -1e-3])
def test_exponential_forcing_near_resonance_against_mpmath(rel_gap):
    # the difference of exponentials cancelled just outside the old 1e-12 band:
    # mu = lam (1 - 2e-11) on mode 1 at t = 1 was off by 2.4e-7 relative
    for mode, t in [(1, 1.0), (3, 0.01), (17, 0.2), (64, 2.0)]:
        lam = -(mode * math.pi) ** 2
        mu = lam * (1.0 + rel_gap)
        got, err = mode_response(lam, rf.ExponentialForcing(1.5, mu), t, QUAD)
        exact = mp_exponential_response(1.5, mu, lam, t)
        assert err == 0.0
        if exact < 1e-290:  # below float range
            assert got < 1e-290
        else:
            assert abs(got - exact) <= 1e-13 * exact


def test_exponential_forcing_far_from_resonance_neither_overflows_nor_gives_nan():
    lam = -(64 * math.pi) ** 2
    for t in (0.01, 0.5, 2.0):
        got, _ = mode_response(lam, rf.ExponentialForcing(1.0, 1.0), t, QUAD)
        exact = mp_exponential_response(1.0, 1.0, lam, t)
        assert math.isfinite(got) and abs(got - exact) <= 1e-13 * exact


@pytest.mark.parametrize("value", [1.0, -0.37, 2.5e3])
def test_constant_forcing_response_is_the_plain_closed_form_bit_for_bit(value):
    for mode in (1, 2, 9, 64, 300):
        lam = -(mode * math.pi) ** 2
        for t in (1e-6, 0.03, 0.5, 1.0, 2.0):
            got, err = mode_response(lam, rf.ConstantForcing(value), t, QUAD)
            assert (got, err) == (value * math.expm1(lam * t) / lam, 0.0)


# --- one Simpson pass for every table mode ---------------------------------------

def mixed_forcing():
    """Tables of different knot counts and times, one of 17,000 samples that
    spans several pieces, with constant and exponential modes between them
    and a table past a 16-mode truncation."""
    rng = np.random.default_rng(21)
    long = np.linspace(0.0, 1.0, 17_000)
    return rf.Forcing.from_dict({
        1: rf.ConstantForcing(0.75),
        2: rf.TableForcing(np.arange(17) / 16, rng.uniform(-1.0, 1.0, 17)),
        3: rf.ExponentialForcing(-1.5, 0.3),
        5: rf.TableForcing(np.array([-0.2, 0.13, 0.5, 0.77, 1.0]), rng.uniform(-1.0, 1.0, 5)),
        6: rf.TableForcing(long, np.cos(3.0 * long)),
        7: rf.ConstantForcing(-2.0),
        8: rf.TableForcing(np.linspace(0.0, 1.0, 300), rng.uniform(-1.0, 1.0, 300)),
        11: rf.TableForcing(np.array([0.0, 1.0]), np.array([1.0, -1.0])),
        12: rf.ExponentialForcing(2.0, -(12 * math.pi) ** 2),
        14: rf.TableForcing(np.array([0.0, 0.3, 2.0]), np.array([0.5, -0.5, 0.25])),
        40: rf.TableForcing(np.arange(5) / 4, np.ones(5)),
    })


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("t", [1.0, 1.0 + 4e-13, 0.37, 1e-9])
def test_forcing_integral_is_each_mode_response_bit_for_bit(adaptive, t):
    # one kernel call over the six table modes in range gives each the value
    # and the estimate of its own call; t = 1 + 4e-13 is clamped past the
    # last knots
    sp = rf.make_heat_spectrum(16)
    forcing = mixed_forcing()
    quad = rf.QuadratureConfig(steps=8, adaptive=adaptive, tol=1e-9)
    estimates = []
    got = rf.forcing_integral(sp, forcing, t, quad, estimates=estimates)
    values, want = np.zeros(16), []
    for mode, f in forcing.entries[:-1]:
        values[mode - 1], estimate = mode_response(float(sp.eigenvalues[mode - 1]), f, t, quad)
        want.append(estimate)
    assert estimates == want and len(want) == 10
    assert t < 1e-6 or min(want[i] for i in (1, 3, 4, 6, 7, 9)) > 0.0  # the tables'
    want_state = rf.SpectralState.from_values(sp, values)
    assert got.signs.tobytes() == want_state.signs.tobytes()
    assert got.log_mags.tobytes() == want_state.log_mags.tobytes()


def test_forcing_integral_skips_segment_blocks_that_no_mode_reaches():
    # mode 100's kernel is below e^-750 on its first 9,250 segments, so its
    # first piece starts there, past every segment of mode 1's table
    sp = rf.make_heat_spectrum(100)
    short, long = np.linspace(0.0, 1.0, 3000), np.linspace(0.0, 1.0, 10_000)
    forcing = rf.Forcing.from_dict({1: rf.TableForcing(short, np.sin(short)),
                                    100: rf.TableForcing(long, np.cos(long))})
    estimates = []
    got = rf.forcing_integral(sp, forcing, 1.0, QUAD, estimates=estimates)
    values, want = np.zeros(100), []
    for mode, f in forcing.entries:
        values[mode - 1], estimate = mode_response(float(sp.eigenvalues[mode - 1]), f, 1.0, QUAD)
        want.append(estimate)
    assert estimates == want and min(want) > 0.0
    want_state = rf.SpectralState.from_values(sp, values)
    assert got.signs.tobytes() == want_state.signs.tobytes()
    assert got.log_mags.tobytes() == want_state.log_mags.tobytes()


def test_small_adaptive_tables_are_summed_in_one_round(monkeypatch):
    # seven 17-sample tables on modes 13-22 to the step ceiling: every level
    # of every mode in one kernel call of one pass, and one rule call a mode
    sp = rf.make_heat_spectrum(22)
    times = np.arange(17) / 16
    rng = np.random.default_rng(5)
    forcing = rf.Forcing.from_dict({m: rf.TableForcing(times, rng.uniform(-1.0, 1.0, 17))
                                    for m in (13, 14, 15, 19, 20, 21, 22)})
    quad = rf.QuadratureConfig(steps=64, adaptive=True, tol=1e-300)
    calls, passes = spy_on_kernel(monkeypatch)
    rules = []
    rule = inhomogeneous.simpson_integrate
    monkeypatch.setattr(inhomogeneous, "simpson_integrate", lambda *args: rules.append(args) or rule(*args))
    rf.forcing_integral(sp, forcing, 1.0, quad)
    assert len(calls) == 1 and len(passes) == 1 and len(rules) == 7
    assert max(calls[0][3][0]) == 2 * inhomogeneous.MAX_STEPS
    assert [i for i, _, _ in passes[0]] == list(range(7))


def spy_on_kernel(monkeypatch):
    """The arguments of each kernel call, and each pass's pieces."""
    calls, passes = [], []
    level_sums, pass_sums = inhomogeneous._level_sums, inhomogeneous._pass_sums
    monkeypatch.setattr(inhomogeneous, "_level_sums", lambda *args: calls.append(args) or level_sums(*args))
    monkeypatch.setattr(inhomogeneous, "_pass_sums", lambda *args: passes.append(args[-1]) or pass_sums(*args))
    return calls, passes


@pytest.mark.parametrize("adaptive", [False, True])
def test_pieces_that_share_a_pass_are_summed_as_alone(monkeypatch, adaptive):
    # one pass holds a table whose last finite knot lies past t, a 17-sample
    # table and a deep mode (lam t < -750) whose piece starts at its live
    # segment at 0.55, not at 0; each value is its mode's alone and within
    # the rounding bound of the node-by-node reference
    sp = rf.make_heat_spectrum(13)
    rng = np.random.default_rng(8)
    deep = np.linspace(0.0, 1.0, 41)
    forcing = rf.Forcing.from_dict({
        2: rf.TableForcing(np.array([0.0, 0.3, 0.6, 2.0]), np.array([0.5, -0.5, 0.25, 1.0])),
        5: rf.TableForcing(np.arange(17) / 16, rng.uniform(-1.0, 1.0, 17)),
        13: rf.TableForcing(deep, np.cos(5.0 * deep)),
    })
    quad = rf.QuadratureConfig(steps=8, adaptive=adaptive, tol=1e-9)
    _, passes = spy_on_kernel(monkeypatch)
    estimates = []
    got = rf.forcing_integral(sp, forcing, 1.0, quad, estimates=estimates)
    assert passes == [[(0, 0, 4), (1, 0, 17), (2, 22, 41)]]
    values, want_estimates = np.zeros(13), []
    for mode, table in forcing.entries:
        lam = float(sp.eigenvalues[mode - 1])
        values[mode - 1], estimate = mode_response(lam, table, 1.0, quad)
        want_estimates.append(estimate)
        want, _, want_steps = reference_simpson(table_integrand(lam, table, 1.0), 0.0, 1.0, quad)
        assert abs(values[mode - 1] - want) <= 2.0 * simpson_bound(lam, table, 1.0, want_steps)
    assert estimates == want_estimates
    want_state = rf.SpectralState.from_values(sp, values)
    assert got.signs.tobytes() == want_state.signs.tobytes()
    assert got.log_mags.tobytes() == want_state.log_mags.tobytes()
    # a piece cut short of its table's end, at a finite knot, followed in its
    # pass by a piece that starts at a later knot: each sums as in a pass alone
    tables = [f for _, f in forcing.entries]
    lams = [float(sp.eigenvalues[m - 1]) for m, _ in forcing.entries]
    progressions = ladder(quad)
    pieces = [(1, 0, 5), (2, 22, 41)]
    shared = inhomogeneous._pass_sums(lams, tables, 1.0, progressions, pieces)
    alone = [inhomogeneous._pass_sums(lams, tables, 1.0, progressions, [p])[0] for p in pieces]
    assert shared.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("times, values, message", [
    ([math.nan, 0.5, 1.0], [1.0, 1.0, 1.0], "finite"),
    ([0.0, math.nan, 1.0], [1.0, 1.0, 1.0], "finite"),
    ([-math.inf, 0.5, 1.0], [1.0, 1.0, 1.0], "finite"),
    ([0.0, math.inf, 0.5], [1.0, 1.0, 1.0], "finite"),
    ([0.0, 0.5, 1.0], [math.nan, 1.0, 1.0], "finite"),
    ([0.0, 0.5, 1.0], [1.0, 1.0, -math.inf], "finite"),
    ([0.0, 0.5, 0.5], [1.0, 1.0, 1.0], "strictly increasing"),
    ([0.0, 1.0, 0.5], [1.0, 1.0, 1.0], "strictly increasing"),
    ([1.0, -1e308], [1.0, 1.0], "strictly increasing"),
    ([0.0, 1.0], [1.0], "matching"),
])
def test_table_refusals(times, values, message):
    # a non-finite sample is refused as such wherever it sits, before the order
    with pytest.raises(ValueError, match=message):
        rf.TableForcing(np.array(times), np.array(values))


@pytest.mark.parametrize("times, values", [
    ([0.0, 1e-300, 1.0], [0.0, 1e300, 0.0]),
    ([0.0, 1.0], [-1e308, 1e308]),
    ([0.0, 1.0, 2.0], [1.0, 1.7e308, -1.7e308]),
])
def test_a_table_whose_slope_overflows_is_refused(times, values):
    # it used to build, then give (nan, nan) after numpy's overflow warnings
    with pytest.raises(ValueError, match=r"table slope from .* overflows"):
        rf.TableForcing(times, values)


@pytest.mark.parametrize("t", [-0.5, -math.inf, math.inf, math.nan])
@pytest.mark.parametrize("forcing", [rf.TableForcing([0.0, 1.0], [1.0, 2.0]), rf.ConstantForcing(1.0),
                                     rf.ExponentialForcing(1.0, 0.5)])
def test_mode_response_refuses_a_time_that_is_not_finite_and_nonnegative(forcing, t):
    # t = -0.5 gave (-0.0, 0.0) for a table and -13.99 for a constant
    with pytest.raises(ValueError, match="finite and nonnegative"):
        mode_response(-9.87, forcing, t, DEFAULT_QUADRATURE)


@pytest.mark.parametrize("mode", [1.5, 2.0, True, False, "1", None, np.float64(1.0)])
def test_a_forcing_mode_index_must_be_an_integer(mode):
    # 1.5 built and failed later with IndexError; True counted as mode 1
    with pytest.raises(ValueError, match="mode indices must be integers"):
        rf.Forcing(((mode, rf.ConstantForcing(1.0)),))


def test_a_forcing_takes_numpy_integers_and_sorts_its_modes():
    forcing = rf.Forcing(((np.int64(3), rf.ConstantForcing(1.0)), (1, rf.ConstantForcing(2.0))))
    assert [mode for mode, _ in forcing.entries] == [1, 3]
