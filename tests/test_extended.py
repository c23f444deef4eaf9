"""The extended space: embedding, group action, canonical form, norms, and
the generator."""

import math

import numpy as np
import pytest

import retroflow as rf
from retroflow.errors import GeneratorDomainError, NotWithinBackwardReachError

PI2 = math.pi**2


def heat_basis(modes, k):
    return rf.SpectralState.basis(rf.make_heat_spectrum(modes), k)


# --- lift ---------------------------------------------------------------------

def test_lift_is_offset_zero():
    e1 = heat_basis(2, 1)
    z = rf.lift(e1)
    assert z.offset == 0.0 and z.rep == e1


def test_lift_zero_state():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2))
    assert rf.lift(x).rep.is_zero()


def test_lift_norm_coincides_at_depth_zero():
    rng = np.random.default_rng(2)
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(5), rng.normal(size=5))
    assert rf.extended_norm(rf.lift(x), 0.0) == pytest.approx(rf.norm(x), rel=1e-15)


# --- group action ---------------------------------------------------------------

def test_offsets_add_and_cancel():
    e2 = heat_basis(2, 2)
    z = rf.ExtendedState(0.7, e2)
    step = rf.group_evolve(rf.group_evolve(z, 0.3), 0.4)
    direct = rf.group_evolve(z, 0.7)
    assert rf.states_equal(step, direct, 1e-12)
    assert step.offset == 0.0 and direct.rep == e2
    # with binary-representable times the composition is bitwise exact
    z2 = rf.ExtendedState(0.75, e2)
    assert rf.group_evolve(rf.group_evolve(z2, 0.25), 0.5) == rf.group_evolve(z2, 0.75)


def test_restriction_to_ambient_states():
    rng = np.random.default_rng(4)
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(8), rng.normal(size=8))
    for t in (0.0, 0.1, 1.0, 5.0):
        assert rf.group_evolve(rf.lift(x), t) == rf.lift(rf.evolve(x, t))


def test_irreversible_state_leaves_ambient_space():
    z = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0))
    moved = rf.group_evolve(rf.lift(z), -0.5)
    assert moved.offset == 0.5
    assert moved.rep == z


def test_group_identity_is_exact():
    z = rf.ExtendedState(0.4, heat_basis(2, 1))
    assert rf.group_evolve(z, 0.0) is z


def test_group_inverse_roundtrip():
    rng = np.random.default_rng(6)
    sp = rf.make_heat_spectrum(16)
    for s in (-1.5, -0.2, 0.3, 1.8):
        x = rf.ExtendedState(0.6, rf.SpectralState.from_values(sp, rng.normal(size=16)))
        back = rf.group_evolve(rf.group_evolve(x, s), -s)
        assert rf.states_equal(back, x, 1e-9)


# --- canonical form --------------------------------------------------------------

def test_canonicalize_absorbs_into_infinite_horizon():
    e1 = heat_basis(2, 1)
    z = rf.ExtendedState(2.0, rf.evolve(e1, 3.0))
    c = rf.canonicalize(z)
    assert c.offset == 0.0
    assert rf.relative_gap(c.rep, rf.evolve(e1, 1.0)) < 1e-12


def test_canonicalize_leaves_irreversible_rep():
    z = rf.ExtendedState(0.8, rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0)))
    assert rf.canonicalize(z) == z


def test_canonicalize_offset_zero_untouched():
    z = rf.lift(heat_basis(2, 1))
    assert rf.canonicalize(z) == z


def test_canonicalize_idempotent():
    z = rf.ExtendedState(1.2, rf.evolve(heat_basis(2, 1), 2.0))
    once = rf.canonicalize(z)
    assert rf.canonicalize(once) is once


def test_entry_infimum():
    sp = rf.make_heat_spectrum(2)
    assert rf.entry_infimum(rf.lift(heat_basis(2, 1))) == 0.0
    z = rf.ExtendedState(0.8, rf.SpectralState.zeros(sp, rf.ExpTail(0.3, 1.0)))
    assert rf.entry_infimum(z) == pytest.approx(0.5, rel=1e-12)
    assert rf.entry_infimum(rf.ExtendedState(0.2, rf.SpectralState.zeros(sp, rf.ExpTail(0.3, 1.0)))) == 0.0


# --- class equality ---------------------------------------------------------------

def test_equal_decompositions_of_one_class():
    e1 = heat_basis(2, 1)
    a = rf.ExtendedState(1.0, e1)
    b = rf.ExtendedState(0.0, rf.backward_evolve(e1, 1.0))
    assert rf.states_equal(a, b, 1e-9)


def test_larger_offset_carries_more_evolved_rep():
    rng = np.random.default_rng(8)
    y = rf.SpectralState.from_values(rf.make_heat_spectrum(6), rng.normal(size=6))
    a = rf.ExtendedState(0.2, y)
    b = rf.ExtendedState(0.5, rf.evolve(y, 0.3))
    assert rf.states_equal(a, b, 1e-9)


def test_orthogonal_states_differ():
    assert not rf.states_equal(rf.lift(heat_basis(2, 1)), rf.lift(heat_basis(2, 2)), 1e-9)


def test_equality_requires_same_spectrum():
    with pytest.raises(ValueError):
        rf.states_equal(rf.lift(heat_basis(2, 1)), rf.lift(heat_basis(3, 1)))


# --- backward-depth norms -----------------------------------------------------------

def test_extended_norm_reaches_rep_exactly():
    z = rf.ExtendedState(0.3, heat_basis(2, 1))
    assert rf.extended_norm(z, 0.3) == pytest.approx(1.0, rel=1e-12)


def test_extended_norm_below_offset_uses_backward_reach():
    e1 = heat_basis(2, 1)
    z = rf.ExtendedState(0.5, rf.evolve(e1, 1.0))  # same class as (0, evolve(e1, 0.5))
    assert rf.extended_norm(z, 0.0) == pytest.approx(
        rf.norm(rf.evolve(e1, 0.5)), rel=1e-12)


def test_extended_norm_outside_backward_space():
    z = rf.ExtendedState(0.5, rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0)))
    with pytest.raises(NotWithinBackwardReachError) as err:
        rf.extended_norm(z, 0.2)
    assert err.value.needed == pytest.approx(0.5)


def test_extended_norm_triangle_random():
    rng = np.random.default_rng(10)
    sp = rf.make_heat_spectrum(8)
    for _ in range(50):
        x = rf.ExtendedState(float(rng.uniform(0, 1)),
                             rf.SpectralState.from_values(sp, rng.normal(size=8)))
        y = rf.ExtendedState(float(rng.uniform(0, 1)),
                             rf.SpectralState.from_values(sp, rng.normal(size=8)))
        t = 1.0
        nxy = rf.extended_norm(rf.add_extended(x, y), t)
        assert nxy <= rf.extended_norm(x, t) + rf.extended_norm(y, t) + 1e-12 * max(1.0, nxy)


def test_extended_scale_homogeneity():
    z = rf.ExtendedState(0.4, heat_basis(3, 2))
    assert rf.extended_norm(rf.scale_extended(z, -2.5), 1.0) == pytest.approx(
        2.5 * rf.extended_norm(z, 1.0), rel=1e-12)


# --- generator -----------------------------------------------------------------------

def test_generator_on_first_basis_vector():
    z = rf.apply_generator(rf.lift(heat_basis(2, 1)))
    assert z.rep.coeff(1).to_linear() == pytest.approx(-PI2, rel=1e-12)
    assert z.rep.coeff(2).sign == 0


def test_generator_of_zero_is_zero():
    z = rf.apply_generator(rf.lift(rf.SpectralState.zeros(rf.make_heat_spectrum(2))))
    assert z.rep.is_zero()


def test_generator_finite_difference_oracle():
    rng = np.random.default_rng(12)
    sp = rf.make_heat_spectrum(6)
    x = rf.SpectralState.from_values(sp, rng.normal(size=6))
    h = 1e-6
    fd = rf.scale(rf.subtract(rf.evolve(x, h), x), 1.0 / h)
    gen = rf.apply_generator(rf.lift(x)).rep
    # first-order error, dominated by |lambda_N| h / 2
    assert rf.relative_gap(fd, gen) < abs(sp.eigenvalues[-1]) * h


def test_generator_domain_rejects_fat_power_tail():
    z = rf.lift(rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(2.0, 1.0)))
    with pytest.raises(GeneratorDomainError):
        rf.apply_generator(z)


def test_generator_maps_thin_power_tail_exactly():
    z = rf.lift(rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(3.5, 1.0)))
    out = rf.apply_generator(z)
    assert out.rep.tail == rf.PowerTail(1.5, PI2)


def test_generator_keeps_offset():
    z = rf.ExtendedState(0.7, heat_basis(2, 1))
    assert rf.apply_generator(z).offset == 0.7


# --- canonical form depends only on the class ---------------------------------------

def test_canonical_form_after_backward_then_shorter_forward_step():
    # the canonical form must not depend on the path: a forward step shorter
    # than the offset leaves a class whose offset the horizon can absorb
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(4), [1, 2, 3, 4], rf.ExpTail(0.3, 1.0))
    mid = rf.group_evolve(rf.group_evolve(rf.lift(x), -0.5), 0.4)
    c = rf.canonicalize(mid)
    assert c.offset == 0.0
    assert c == rf.canonicalize(rf.ExtendedState(mid.offset, x))


def test_extended_state_is_its_offset_and_rep():
    x = heat_basis(2, 1)
    assert rf.ExtendedState(0.5, x) == rf.ExtendedState(0.5, x)
    assert rf.ExtendedState(0.5, x) != rf.ExtendedState(0.25, x)
    with pytest.raises(TypeError):
        hash(rf.ExtendedState(0.5, x))


def test_extended_class_rejects_a_growing_law():
    F = rf.Functional.from_exp_law(rf.make_heat_spectrum(4), -0.1)
    with pytest.raises(ValueError, match="decay"):
        rf.lift(F)
    with pytest.raises(ValueError, match="decay"):
        rf.ExtendedState(1.0, F)
    # a decaying functional is an ambient state
    assert rf.lift(rf.Functional.from_exp_law(rf.make_heat_spectrum(4), 0.1)).offset == 0.0


@pytest.mark.parametrize("tail", [rf.ZERO_TAIL, rf.ExpTail(0.5, 1.0), rf.PowerTail(1.5, 1.0)])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_time_that_is_not_finite_is_refused_by_name(tail, t):
    # evolve(x, inf) gave zeros for a zero tail and "rate must be finite" for the
    # others; nan was an offset error in group_evolve and a domain error in the norm
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(3), tail)
    z = rf.ExtendedState(0.25, x)
    for call in (rf.evolve, rf.group_evolve, rf.log_extended_norm):
        with pytest.raises(ValueError, match=f"got {t!r}$"):
            call(x if call is rf.evolve else z, t)
