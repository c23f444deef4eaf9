"""The duality pairing and the realization of coefficient functionals."""

import math

import numpy as np
import pytest

import retroflow as rf
from retroflow.errors import NotFullyReversibleError

PI2 = math.pi**2


def heat_basis(modes, k):
    return rf.SpectralState.basis(rf.make_heat_spectrum(modes), k)


# --- pairing -------------------------------------------------------------------

def test_pairing_identity():
    e1 = heat_basis(2, 1)
    assert rf.pairing(e1, rf.lift(e1)) == pytest.approx(1.0, rel=1e-15)


def test_pairing_orthogonality():
    assert rf.pairing(heat_basis(2, 1), rf.lift(heat_basis(2, 2))) == 0.0


def test_pairing_exponent_bookkeeping():
    # hand expansion: x = evolve(e1, 1) has coefficient exp(-pi^2); the class
    # (0.5, e1) is e1 seen half a unit in the past, so its formal coefficient
    # today is exp(+pi^2/2); the pairing multiplies them: exp(-pi^2/2)
    # (frozen scalar).
    sp = rf.make_heat_spectrum(2)
    x = rf.evolve(rf.SpectralState.basis(sp, 1), 1.0)
    z = rf.ExtendedState(0.5, rf.SpectralState.basis(sp, 1))
    assert rf.pairing(x, z) == pytest.approx(0.007191883355826368, rel=1e-12)


def test_pairing_invariant_under_decomposition():
    rng = np.random.default_rng(2)
    sp = rf.make_heat_spectrum(5)
    x = rf.SpectralState.from_values(sp, rng.normal(size=5))
    y = rf.SpectralState.from_values(sp, rng.normal(size=5))
    a = rf.ExtendedState(0.4, y)
    b = rf.ExtendedState(0.9, rf.evolve(y, 0.5))  # same class, other split
    assert rf.pairing(x, a) == pytest.approx(rf.pairing(x, b), rel=1e-9)


def test_pairing_requires_fully_reversible_left_argument():
    bad = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0))
    with pytest.raises(NotFullyReversibleError):
        rf.pairing(bad, rf.lift(heat_basis(2, 1)))


def test_pairing_bilinearity():
    rng = np.random.default_rng(3)
    sp = rf.make_heat_spectrum(4)
    x = rf.SpectralState.from_values(sp, rng.normal(size=4))
    y = rf.SpectralState.from_values(sp, rng.normal(size=4))
    z = rf.lift(rf.SpectralState.from_values(sp, rng.normal(size=4)))
    lhs = rf.pairing(rf.add(rf.scale(x, 2.0), rf.scale(y, -3.0)), z)
    rhs = 2.0 * rf.pairing(x, z) - 3.0 * rf.pairing(y, z)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_pairing_non_degenerate():
    rng = np.random.default_rng(4)
    sp = rf.make_heat_spectrum(5)
    x = rf.SpectralState.from_values(sp, rng.normal(size=5))
    hits = [rf.pairing(x, rf.lift(rf.SpectralState.basis(sp, m))) for m in range(1, 6)]
    np.testing.assert_allclose(hits, x.coeff_values(), rtol=1e-12)
    assert max(abs(h) for h in hits) > 0.0


# --- functionals ------------------------------------------------------------------

def test_decaying_law_realizes_in_ambient_space():
    sp = rf.make_heat_spectrum(12)
    F = rf.Functional.from_exp_law(sp, 0.5)
    assert rf.representable_time(F) == 0.5
    z = rf.functional_to_extended(F)
    assert z.offset == 0.0
    # the realized state genuinely sits inside the backward-reachable set
    assert rf.horizon(z.rep).value == 0.5


def test_growing_law_realizes_at_positive_offset():
    sp = rf.make_heat_spectrum(12)
    F = rf.Functional.from_exp_law(sp, -0.1)
    assert rf.representable_time(F) == -0.1
    z = rf.functional_to_extended(F)
    assert z.offset > 0.1
    assert rf.entry_infimum(z) == pytest.approx(0.1, rel=1e-12)


def test_a_law_past_float_range_names_its_rate_or_has_zero_coefficients():
    # rate * lambda_n overflows from mode 5 on; numpy's warnings are errors here
    sp = rf.make_heat_spectrum(10)
    with pytest.raises(ValueError, match="rate -1e.306 overflows"):
        rf.Functional.from_exp_law(sp, -1e306)
    F = rf.Functional.from_exp_law(sp, 1e306)
    assert F.signs.tolist() == [1] * 4 + [0] * 6 and np.all(F.log_mags[4:] == -math.inf)
    assert np.array_equal(F.log_mags[:4], 1e306 * sp.eigenvalues[:4])
    assert F.tail == rf.ExpTail(1e306, 1.0)
    assert not F.signs.flags.writeable and not F.log_mags.flags.writeable


def test_a_law_built_functional_equals_the_checked_construction():
    sp = rf.make_heat_spectrum(12)
    for rate, coeff in ((0.5, 1.0), (-0.1, 0.7), (0.0, 3.0)):
        F = rf.Functional.from_exp_law(sp, rate, coeff)
        checked = rf.Functional(sp, np.ones(12), math.log(coeff) + rate * sp.eigenvalues,
                                rf.ExpTail(rate, coeff))
        assert type(F) is rf.Functional and F.log_mags.tobytes() == checked.log_mags.tobytes()
        assert F == checked
    with pytest.raises(ValueError, match="heat spectrum"):
        rf.Functional.from_exp_law(rf.Spectrum(np.array([-1.0, -2.0])), 0.5)


def test_reconstruction_for_both_laws():
    sp = rf.make_heat_spectrum(20)
    for rate in (0.5, -0.1):
        F = rf.Functional.from_exp_law(sp, rate)
        z = rf.functional_to_extended(F)
        for mode in range(1, 17):
            got = rf.log_pairing(rf.SpectralState.basis(sp, mode), z)
            want = F.coeff(mode)
            assert got.sign == want.sign
            assert abs(math.expm1(got.log_mag - want.log_mag)) < 1e-9


def test_zero_functional_realizes_as_zero_class():
    sp = rf.make_heat_spectrum(4)
    F = rf.Functional(sp, np.zeros(4, dtype=np.int8), np.full(4, -math.inf))
    z = rf.functional_to_extended(F)
    assert z.rep.is_zero()
    assert rf.pairing(heat_basis(4, 2), z) == 0.0


def test_power_law_functional_is_ambient():
    sp = rf.make_heat_spectrum(6)
    values = [n ** -1.5 for n in range(1, 7)]
    F = rf.Functional(sp, np.ones(6, dtype=np.int8),
                      np.log(np.array(values)), rf.PowerTail(1.5, 1.0))
    assert rf.representable_time(F) == 0.0
    z = rf.functional_to_extended(F)
    assert z.offset == 0.0
    assert rf.pairing(heat_basis(6, 3), z) == pytest.approx(3.0**-1.5, rel=1e-12)


def test_boundary_rate_zero_needs_offset():
    sp = rf.make_heat_spectrum(6)
    F = rf.Functional.from_exp_law(sp, 0.0)  # constant coefficients
    z = rf.functional_to_extended(F)
    assert z.offset > 0.0
    assert rf.pairing(heat_basis(6, 2), z) == pytest.approx(1.0, rel=1e-9)


def test_mixed_signs_survive_realization():
    sp = rf.make_heat_spectrum(6)
    signs = np.array([1, -1, 1, -1, 1, -1], dtype=np.int8)
    logs = -0.05 * sp.eigenvalues  # growing law
    F = rf.Functional(sp, signs, logs, rf.ExpTail(-0.05, 1.0))
    z = rf.functional_to_extended(F)
    for mode in (1, 2, 5):
        got = rf.log_pairing(rf.SpectralState.basis(sp, mode), z)
        assert got.sign == int(signs[mode - 1])


@pytest.mark.parametrize("signs", [[5, 1, -7], [300, 1, 0], [0.5, 1, 0]])
def test_functional_signs_validated_before_cast(signs):
    # 300 would wrap to 44 in int8; 5 and -7 were once kept as they were
    with pytest.raises(ValueError, match="signs"):
        rf.Functional(rf.make_heat_spectrum(3), signs, np.zeros(3))


def _hand_written_shift(F):
    """Reference: the modal shift and tail update written out by hand."""
    t = rf.representable_time(F)
    offset = -t + max(1.0, -t)
    logs = F.log_mags + F.spectrum.eigenvalues * offset
    tail = rf.ExpTail(F.tail.rate + offset, F.tail.coeff)
    return offset, rf.SpectralState(F.spectrum, F.signs, logs, tail)


@pytest.mark.parametrize("rate", [-0.1, 0.0, -2.0])
def test_growing_law_shift_matches_the_hand_written_one(rate):
    F = rf.Functional.from_exp_law(rf.make_heat_spectrum(12), rate, 0.7)
    offset, rep = _hand_written_shift(F)
    z = rf.functional_to_extended(F)
    assert z.offset == offset
    assert type(z.rep) is rf.SpectralState
    assert z.rep == rep
    assert z.rep.tail.rate == rep.tail.rate and z.rep.tail.coeff == rep.tail.coeff
