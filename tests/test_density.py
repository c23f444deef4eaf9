"""Truncation to the reversible set and the certified preimage iteration."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import retroflow as rf
from reference import embed_reference, mp_log_tail_sum
from retroflow import spectral
from retroflow.density import DensityCertificate, _least_depth, _tail_log_norm_beyond
from retroflow.errors import NotConvergedError, OracleFailedError
from retroflow.spectral import MAX_MODES, log_distance

PI2 = math.pi**2


def brute_force_power_tail(power, coeff, beyond, terms=2_000_000):
    return coeff * math.sqrt(math.fsum(n ** (-2 * power) for n in range(beyond + 1, terms)))


# --- truncation ----------------------------------------------------------------

def test_truncate_zero_tail_is_identity():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(3), [1.0, 2.0, 3.0])
    out, cert = rf.truncate_to_reversible(x, 0.5)
    assert out == x
    assert cert.achieved_error_bound == 0.0


def test_truncate_power_tail_loose_budget():
    # tail beyond mode 1 is sqrt(pi^2/6 - 1) ~ 0.803 < 0.9: nothing to add
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(1), rf.PowerTail(1.0, 1.0))
    out, cert = rf.truncate_to_reversible(x, 0.9)
    assert out.num_modes == 1
    assert isinstance(out.tail, rf.ZeroTail)
    assert cert.achieved_error_bound == pytest.approx(0.8030778709740584, rel=1e-12)


def test_truncate_power_tail_tight_budget_scan_oracle():
    # brute-force scan oracle: the smallest depth with sum_{n > m} n^-2 < 0.25
    # is m = 4 (frozen; verified by direct summation)
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(1), rf.PowerTail(1.0, 1.0))
    out, cert = rf.truncate_to_reversible(x, 0.5)
    assert out.num_modes == 4
    assert brute_force_power_tail(1.0, 1.0, 4) < 0.5 <= brute_force_power_tail(1.0, 1.0, 3)
    assert cert.achieved_error_bound < 0.5
    assert rf.classify(out).label is rf.ReversibilityClass.FULL


def test_truncate_result_distance_equals_dropped_tail():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(1), rf.PowerTail(1.0, 1.0))
    out, cert = rf.truncate_to_reversible(x, 0.5)
    assert math.exp(log_distance(out, x)) == pytest.approx(cert.achieved_error_bound, rel=1e-9)


def test_truncate_exponential_tail():
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.ExpTail(0.1, 1.0))
    out, cert = rf.truncate_to_reversible(x, 1e-6)
    assert isinstance(out.tail, rf.ZeroTail)
    assert cert.achieved_error_bound < 1e-6
    assert math.exp(log_distance(out, x)) <= cert.achieved_error_bound * (1 + 1e-9)


def test_truncate_requires_positive_budget():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(1), [1.0])
    with pytest.raises(ValueError):
        rf.truncate_to_reversible(x, 0.0)


# --- growth bounds and certificates ----------------------------------------------

def test_growth_bound_validation():
    with pytest.raises(ValueError):
        rf.GrowthBound(0.5, 0.0)
    assert rf.CONTRACTION.at(3.0) == 1.0


def test_contraction_schedule_is_geometric():
    x0 = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 1.0])
    _, cert = rf.iterate_to_reversible(x0, 0.8, rf.truncation_preimage_oracle(), max_iters=6)
    np.testing.assert_allclose(
        cert.epsilon_schedule, [0.8 * 2.0 ** -(k + 1) for k in range(6)], rtol=1e-15)
    assert sum(cert.epsilon_schedule) < 0.8


def test_certificate_rejects_bound_above_target():
    with pytest.raises(ValueError):
        DensityCertificate(0.1, 0.2, 1, (0.05,))


@pytest.mark.parametrize("tail, eps", [(rf.PowerTail(1.5, 1.0), 1e-3), (rf.PowerTail(2.2, 3.0), 1e-7),
                                       (rf.ExpTail(1e-4, 2.0), 1e-9), (rf.ExpTail(0.01, 1e3), 1e-12)])
def test_truncation_matches_the_reference_formula_bit_for_bit(tail, eps):
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(5), [1.0, -2.0, 0.0, 3.5, 1e-300], tail)
    out, cert = rf.truncate_to_reversible(x, eps)
    signs, logs = embed_reference(x, out.num_modes)
    assert out.num_modes == x.num_modes + cert.iterations > x.num_modes
    assert out.tail == rf.ZERO_TAIL and out.spectrum == rf.make_heat_spectrum(out.num_modes)
    assert out.signs.tobytes() == signs.tobytes() and out.log_mags.tobytes() == logs.tobytes()
    assert not out.signs.flags.writeable and not out.log_mags.flags.writeable


def test_truncation_certificate_dominates_the_exact_dropped_norm():
    # an eps just above the dropped norm: a bound rounded to nearest fell
    # below sqrt(zeta(2p, 2067)) in its last bits
    p = 4.050496426344268
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(32), rf.PowerTail(p, 1.0))
    out, cert = rf.truncate_to_reversible(x, 6.373165798548093e-13)
    assert out.num_modes == 2066
    with mp.workdps(60):
        dropped = mp.exp(mp_log_tail_sum(2 * p, 0.0, 2067) / 2)
        assert dropped <= cert.achieved_error_bound <= dropped * (1 + 1e-12)


def test_deep_truncation_peaks_below_three_arrays_of_its_modes():
    # 707107 modes: the written-out law, its signs and the mask of its zero modes
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(32), rf.PowerTail(1.5, 1.0))
    tracemalloc.start()
    try:
        out, _ = rf.truncate_to_reversible(x, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_modes == 707_107 and peak <= 1.5 * 8 * out.num_modes


# --- the iteration ----------------------------------------------------------------

def test_iteration_evolves_each_iterate_once_per_step(monkeypatch):
    # per step the unit-step image and the forward image at k + 1, which is
    # the next step's image of its target and, after the last step, the result;
    # at step 0 the two are one call
    steps, outputs, times = 6, [], []
    oracle = rf.truncation_preimage_oracle()

    def recorded(x, eps):
        outputs.append(oracle(x, eps))
        return outputs[-1]

    def counted(state, t):
        times.append(t)
        return rf.evolve(state, t)

    monkeypatch.setattr(rf.density, "evolve", counted)
    x0 = rf.SpectralState.from_values(rf.make_heat_spectrum(6), np.ones(6), rf.PowerTail(1.8, 0.9))
    out, _ = rf.iterate_to_reversible(x0, 0.05, recorded, max_iters=steps)
    assert times == [1.0] + [t for k in range(1, steps) for t in (1.0, k + 1.0)]
    want = rf.evolve(outputs[-1], float(steps))
    assert out.signs.tobytes() == want.signs.tobytes()
    assert out.log_mags.tobytes() == want.log_mags.tobytes()


def test_iteration_subtracts_at_no_step(monkeypatch):
    # step 0 meets the target and a flow of its truncation back at time 0:
    # one head, one law, one time, so the gap is the dropped tail's norm;
    # from step 1 on the oracle output is a backward flow of its target, so
    # both gaps meet states of one lineage at one time: no difference is built
    steps, subtracted = [], []
    oracle = rf.truncation_preimage_oracle()
    subtract = rf.spectral.subtract

    def stepped(x, eps):
        steps.append(eps)
        return oracle(x, eps)

    def counted(x, y):
        subtracted.append(len(steps) - 1)
        return subtract(x, y)

    monkeypatch.setattr(rf.spectral, "subtract", counted)
    x0 = rf.SpectralState.zeros(rf.make_heat_spectrum(32), rf.PowerTail(2.5, 1.0))
    _, cert = rf.iterate_to_reversible(x0, 1e-3, stepped, max_iters=12)
    assert len(steps) == 12 and subtracted == []
    assert cert.step_gaps[0] > 0.0 and set(cert.step_gaps[1:]) == {0.0}
    monkeypatch.undo()
    first, _ = rf.truncate_to_reversible(x0, 0.5 * steps[0])
    composed = spectral.log_norm(subtract(*spectral._aligned(first, x0)))
    assert cert.step_gaps[0] == math.exp(composed)


def test_a_deep_iteration_writes_no_array(monkeypatch):
    # 32 explicit modes under PowerTail(2.5, 1), the first truncation near
    # mode 900: no step reads a state's arrays, and the result's are written
    # once, when the caller reads them
    rng = np.random.default_rng(5)
    logs = -2.5 * np.log(np.arange(1.0, 33.0)) + np.log(rng.uniform(0.5, 1.5, 32))
    x0 = rf.SpectralState(rf.make_heat_spectrum(32), rng.choice([-1, 1], 32), logs,
                          rf.PowerTail(2.5, 1.0))
    eps0 = 4.0 * math.exp(_tail_log_norm_beyond(x0, 901))
    written, read, write = [], rf.SpectralState.__getattr__, spectral._LawWrite.arrays

    def spied_read(state, name):
        written.append(name)
        return read(state, name)

    def spied_write(law):
        written.append(law.depth)
        return write(law)

    monkeypatch.setattr(rf.SpectralState, "__getattr__", spied_read)
    monkeypatch.setattr(spectral._LawWrite, "arrays", spied_write)
    out, cert = rf.iterate_to_reversible(x0, eps0, rf.truncation_preimage_oracle())
    assert written == [] and cert.iterations == 12 and 850 < out.num_modes < 950
    out.log_mags, out.signs
    assert written == ["log_mags", out.num_modes]
    assert out.signs.tobytes() == embed_reference(x0, out.num_modes)[0].tobytes()


def test_the_readme_iteration_costs_nothing_until_read():
    # the first truncation writes 1.78M modes once the result is read
    x0 = rf.SpectralState.zeros(rf.make_heat_spectrum(32), rf.PowerTail(1.0, 1.0))
    tracemalloc.start()
    try:
        out, cert = rf.iterate_to_reversible(x0, 3e-3, rf.truncation_preimage_oracle())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_modes > 1_700_000 and cert.iterations == 12
    assert peak < 2**20 and not {"signs", "log_mags"} & set(vars(out))


def test_iteration_meets_exact_preimages_exactly_at_depth():
    # the unit-step check at step 40 used to see 4.6e-13 of roundoff against
    # a budget of 4.5e-15
    x0 = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 2.0])
    out, cert = rf.iterate_to_reversible(x0, 0.01, rf.truncation_preimage_oracle(), max_iters=41)
    assert cert.iterations == 41 and set(cert.step_gaps[1:]) == {0.0}
    assert math.exp(log_distance(out, x0)) <= cert.achieved_error_bound <= 0.01


@pytest.mark.parametrize("k", [1, 4])
def test_a_deep_truncation_steps_back_and_forth_exactly(k):
    z = rf.SpectralState.zeros(rf.make_heat_spectrum(32), rf.PowerTail(1.0, 1.0))
    y, _ = rf.truncate_to_reversible(z, 0.01)
    assert 9_000 < y.num_modes < 11_000
    assert rf.relative_gap(rf.evolve(rf.backward_evolve(y, k), k), y) == 0.0


def test_iteration_lands_within_budget():
    rng = np.random.default_rng(21)
    sp = rf.make_heat_spectrum(8)
    oracle = rf.truncation_preimage_oracle()
    for eps0 in (0.1, 0.01):
        x0 = rf.SpectralState.from_values(sp, rng.normal(size=8), rf.PowerTail(1.4, 0.6))
        out, cert = rf.iterate_to_reversible(x0, eps0, oracle)
        err = math.exp(log_distance(out, x0))
        assert err <= cert.achieved_error_bound <= eps0 * (1 + 1e-9)
        assert rf.classify(out).label is rf.ReversibilityClass.FULL


@pytest.mark.parametrize("power, eps0", [(2.0, 1e-6), (1.5, 1e-4)])
def test_iteration_past_float_range_within_roundoff(power, eps0):
    # deep truncations carry log magnitudes near 1e10 whose rounding exceeds
    # a fixed relative allowance of 1e-6
    x0 = rf.SpectralState.zeros(rf.make_heat_spectrum(32), rf.PowerTail(power, 1.0))
    out, cert = rf.iterate_to_reversible(x0, eps0, rf.truncation_preimage_oracle())
    assert math.exp(log_distance(out, x0)) <= cert.achieved_error_bound <= eps0
    assert rf.classify(out).label is rf.ReversibilityClass.FULL


def test_iteration_on_already_reversible_state():
    x0 = rf.SpectralState.from_values(rf.make_heat_spectrum(4), [1.0, -1.0, 0.5, 2.0])
    out, cert = rf.iterate_to_reversible(x0, 0.3, rf.truncation_preimage_oracle())
    assert math.exp(log_distance(out, x0)) <= 0.3
    assert cert.achieved_error_bound <= 0.3


def test_iteration_step_gaps_below_bounds():
    x0 = rf.SpectralState.from_values(
        rf.make_heat_spectrum(6), np.ones(6), rf.PowerTail(1.8, 0.9))
    _, cert = rf.iterate_to_reversible(x0, 0.05, rf.truncation_preimage_oracle(), max_iters=8)
    assert len(cert.step_gaps) == 8
    for measured, bound in zip(cert.step_gaps, cert.step_bounds):
        assert measured <= bound * (1 + 1e-9)


def test_bad_oracle_raises_with_partial_certificate():
    sp = rf.make_heat_spectrum(3)

    def bad_oracle(x, eps):
        return rf.SpectralState.from_values(sp, [1e6, 0.0, 0.0])

    x0 = rf.SpectralState.from_values(sp, [1.0, 1.0, 1.0])
    with pytest.raises(OracleFailedError) as err:
        rf.iterate_to_reversible(x0, 0.1, bad_oracle)
    assert err.value.step == 0
    assert err.value.certificate is not None
    assert err.value.certificate.iterations == 0


def test_nonexpansive_regime_recorded():
    x0 = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 0.5])
    _, cert = rf.iterate_to_reversible(
        x0, 0.2, rf.truncation_preimage_oracle(), regime="nonexpansive")
    assert cert.regime == "nonexpansive"


def test_growth_bound_enters_schedule():
    bound = rf.GrowthBound(2.0, 0.1)
    x0 = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 0.5])
    out, cert = rf.iterate_to_reversible(
        x0, 0.5, rf.truncation_preimage_oracle(), bound=bound, max_iters=5)
    expect = [0.5 * math.exp(-0.1 * (k + 1)) * 2.0 ** -(k + 1) / 2.0 for k in range(5)]
    np.testing.assert_allclose(cert.epsilon_schedule, expect, rtol=1e-15)
    assert cert.achieved_error_bound <= 0.5
    assert math.exp(log_distance(out, x0)) <= cert.achieved_error_bound


def test_a_count_past_the_last_positive_budget_is_refused_before_any_step():
    x0 = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 0.5])
    calls = []

    def oracle(x, eps):
        calls.append(eps)
        return rf.truncation_preimage_oracle()(x, eps)

    bound = rf.GrowthBound(1.0, 100.0)  # budgets exp(-(100 + ln 2)(k + 1)): 7 are positive
    _, cert = rf.iterate_to_reversible(x0, 1.0, oracle, bound=bound, max_iters=7)
    assert cert.iterations == 7 and min(cert.epsilon_schedule) > 0.0
    calls.clear()
    for count in (8, 2000, 10**30):
        with pytest.raises(ValueError, match=f"max_iters {count} passes step 7,"):
            rf.iterate_to_reversible(x0, 1.0, oracle, bound=bound, max_iters=count)
    # a bound whose rate grows the budgets overflows exp(-rate (k + 1)) at step 141
    with pytest.raises(ValueError, match="max_iters 500 passes step 141,"):
        rf.iterate_to_reversible(x0, 1.0, oracle, bound=rf.GrowthBound(1.0, -5.0), max_iters=500)
    # a contraction's budgets eps0 2**-(k+1) end where they leave float range
    with pytest.raises(ValueError, match="max_iters 2000 passes step 1071,"):
        rf.iterate_to_reversible(x0, 0.1, oracle, max_iters=2000)
    assert calls == []


def test_truncate_zero_tail_returns_the_state_and_an_empty_certificate():
    sp = rf.make_heat_spectrum(5)
    x = rf.SpectralState.from_values(sp, [1.0, -2.0, 0.0, 3.5, 1e-300])
    out, cert = rf.truncate_to_reversible(x, 1e-3)
    assert type(out) is rf.SpectralState and out is not x
    assert out == rf.SpectralState(sp, x.signs, x.log_mags)
    assert cert == DensityCertificate(1e-3, 0.0, 0, ())


# --- the depth search ----------------------------------------------------------------

def doubling_and_bisection(state, log_eps):
    """The least deep-enough depth as first searched: double from the
    state's depth, capped at ``MAX_MODES``, then bisect."""
    def small(m):
        return _tail_log_norm_beyond(state, m) < log_eps

    lo = state.num_modes
    if small(lo):
        return lo
    hi = max(lo + 1, 2 * lo)
    while not small(hi):
        if hi >= MAX_MODES:
            raise NotConvergedError("past MAX_MODES")
        lo, hi = hi, min(2 * hi, MAX_MODES)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if small(mid) else (mid, hi)
    return hi


def random_tails(rng, count):
    for _ in range(count):
        coeff = 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.random() < 0.5:
            yield rf.PowerTail(rng.uniform(0.55, 4.0), coeff)
        else:
            yield rf.ExpTail(10.0 ** rng.uniform(-12.0, 0.0), coeff)


def test_depth_search_agrees_with_doubling_and_bisection():
    # random power and exp tails at budgets whose least depth runs from the
    # state's own (already small enough) to 10^7 modes; a budget equal to the
    # norm beyond a depth is not met there
    rng = np.random.default_rng(17)
    for tail in random_tails(rng, 300):
        x = rf.SpectralState.zeros(rf.make_heat_spectrum(int(rng.integers(1, 200))), tail)
        depth = int(10.0 ** rng.uniform(0.0, 7.0))
        above, below = (_tail_log_norm_beyond(x, m) for m in (depth - 1, depth))
        for log_eps in (below + rng.uniform(0.0, 1.0) * (above - below), below):
            want = doubling_and_bisection(x, log_eps)
            got, dropped = _least_depth(x, log_eps)
            assert got == want >= x.num_modes
            assert dropped == _tail_log_norm_beyond(x, got) < log_eps


@pytest.mark.parametrize("tail", [rf.PowerTail(0.6, 1.0), rf.ExpTail(1e-16, 1.0)])
def test_depth_search_stops_at_max_modes(tail):
    # the least depth MAX_MODES is found; one more mode is refused, as by the
    # reference, and before any mode is written out
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(32), tail)
    norms = [_tail_log_norm_beyond(x, m) for m in (MAX_MODES - 1, MAX_MODES, MAX_MODES + 1)]
    assert norms[0] > norms[1] > norms[2]
    edge = 0.5 * (norms[0] + norms[1])
    assert _least_depth(x, edge)[0] == doubling_and_bisection(x, edge) == MAX_MODES
    past = 0.5 * (norms[1] + norms[2])
    for search in (_least_depth, doubling_and_bisection):
        with pytest.raises(NotConvergedError):
            search(x, past)
    with pytest.raises(NotConvergedError, match="without meeting eps"):
        rf.truncate_to_reversible(x, math.exp(past))


def test_a_deep_certify_op_takes_at_most_16_tail_sums(monkeypatch):
    # a 10^5-mode truncation and a preimage iteration from about 1000 modes
    # (the adaptive forced flow takes none)
    rng = np.random.default_rng(9)
    n = np.arange(1.0, 33.0)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), 32)
    deep = rf.SpectralState(rf.make_heat_spectrum(32), signs, -2.0 * np.log(n), rf.PowerTail(2.0, 1.0))
    shallow = rf.SpectralState(rf.make_heat_spectrum(32), signs, -2.5 * np.log(n), rf.PowerTail(2.5, 1.0))
    eps = math.exp(0.5 * sum(_tail_log_norm_beyond(deep, m) for m in (99_999, 100_000)))
    eps0 = 4.0 * math.exp(_tail_log_norm_beyond(shallow, 1001))
    calls = []
    real = spectral.log_tail_sum
    monkeypatch.setattr(spectral, "log_tail_sum", lambda *args: calls.append(args) or real(*args))
    out, _ = rf.truncate_to_reversible(deep, eps)
    assert out.num_modes == 100_000
    rf.iterate_to_reversible(shallow, eps0, rf.truncation_preimage_oracle())
    assert 0 < len(calls) <= 16
