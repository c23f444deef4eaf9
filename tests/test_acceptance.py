"""Acceptance gate: every top-level criterion at its stated tolerance.

Each test runs one criterion through the shared verification suites (the
same code the ``verify`` CLI verb executes), prints one pass/fail line per
check, and asserts the outcome.  Tolerances are pinned here and in the suite
defaults; nothing is deferred to later calibration.
"""

import pytest

import retroflow as rf
from retroflow import verification


def _run(name, **overrides):
    results = verification.run_suite(name, **overrides)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)
    return results


def test_criterion_01_group_law_64_modes_1000_samples():
    """Group composition on a 64-mode heat model, s, t in [-2, 2],
    1000 random triples, tolerance 1e-9, under 10 seconds."""
    _run("group-law", modes=64, samples=1000, tol=1e-9)


def test_criterion_02_restriction_is_exact():
    """The group action restricted to embedded states equals the forward
    flow bitwise (log-domain equality) for t in {0, 0.1, 1, 5}."""
    _run("restriction")


def test_criterion_03_backward_roundtrip_32_modes():
    """Backward-then-forward returns the state within 1e-9 relative on
    32-mode states for t up to 1, including mode 32 whose amplification
    exp(1024 pi^2) is far beyond float range."""
    _run("backward-roundtrip", modes=32, tol=1e-9)


def test_criterion_04_horizon_brute_force_agreement():
    """For exponential tails with rates 0.1, 0.3, 1.0, brute-force partial
    sums converge at 0.97x the rate and exceed 1e12 at 1.03x the rate."""
    _run("horizon-oracle", gammas=(0.1, 0.3, 1.0))


def test_criterion_05_norm_axioms_on_backward_spaces():
    """Triangle inequality, homogeneity, definiteness of the backward-depth
    norms at depths 0, 0.5, 2 over 1000 random class pairs, tolerance 1e-12."""
    _run("norm-axioms", depths=(0.0, 0.5, 2.0), pairs=1000, tol=1e-12)


def test_criterion_06_seminorm_separation_and_arithmetic():
    """100 random nonzero states: all integer-time seminorms up to 5 are
    positive and match independent 50-digit per-mode arithmetic to 1e-12."""
    _run("seminorms", samples=100, n_max=5, tol=1e-12)


def test_criterion_07_density_constructor():
    """Truncation-oracle preimage iteration under the contraction bound: for
    20 random states with power tails and budgets 0.1 and 0.01, outputs are
    fully reversible, within budget, and certificate bounds dominate the
    measured errors."""
    _run("density", samples=20, targets=(0.1, 0.01))


def test_criterion_08_forced_flow():
    """Constant forcing against the scalar-ODE closed form at relative
    1e-8 with the 64-step quadrature configuration, plus fourth-order
    Simpson convergence (halving the step cuts the error at least 8x)."""
    _run("duhamel", tol_closed=1e-8)


def test_criterion_09_duality_reconstruction():
    """Functionals with exponential coefficient laws at rates +0.5 and -0.1
    are realized by classes whose pairings reproduce every coefficient up to
    mode 16 at relative 1e-9."""
    _run("duality", rates=(0.5, -0.1), max_mode=16, tol=1e-9)


def test_criterion_10_shift_witness_at_resolution_1000():
    """On the shift model at resolution 1000 the distance to the time-t
    range is exactly sqrt(t) (to 1e-12) and decreases monotonically to zero
    along the grid, so non-density sets in at time zero."""
    _run("shift", resolution=1000, tol=1e-12)


def test_criterion_11_backward_uniqueness_held_and_violated():
    """Spectral flows are injective (per-mode inversion); the shift model's
    unit-time map is zero, violating backward uniqueness and collapsing its
    reversible set to the origin."""
    _run("backward-uniqueness")


@pytest.mark.parametrize("suite", ["spectral", "group-structure", "generator", "classification"])
def test_supporting_invariant_suites(suite):
    """Module-level invariant suites backing the criteria above."""
    _run(suite)


@pytest.mark.parametrize("suite, overrides", [
    ("seminorms", {"samples": 3}),
    ("generator", {}),
])
def test_the_size_dependent_checks_hold_at_256_modes(suite, overrides):
    """The seminorm logs near 2.6e6 round by about 5e-10 relative, and the
    finite-difference step scales with the deepest eigenvalue, so each check
    holds at every size ``verify --modes`` accepts, not only the default."""
    _run(suite, modes=256, **overrides)


def test_the_seminorm_check_sees_a_log_off_by_1e_9(monkeypatch):
    """The rounding allowance scales with the log, so at the default size a
    relative error of 1e-9 in the library's logs still fails the check."""
    real = verification.reversibility.log_frechet_seminorms
    monkeypatch.setattr(verification.reversibility, "log_frechet_seminorms",
                        lambda x, n_max: [v * (1.0 + 1e-9) for v in real(x, n_max)])
    results = {r.name: r.passed for r in verification.run_suite("seminorms")}
    assert results == {"reversibility.seminorm-separation": True,
                       "reversibility.seminorm-arithmetic": False,
                       "reversibility.seminorm-zero": True}


@pytest.mark.parametrize("modes", [512, 1024, 4096])
def test_the_group_checks_hold_past_512_modes(modes):
    """Two routes to one class round their times apart by a few units of
    2**-53, which moves the deepest mode by |lambda_N| times that: 1e-9
    relative from about 512 modes.  The checks count a gap past it."""
    _run("group-law", modes=modes)
    _run("group-structure", modes=modes)


def test_the_group_checks_see_a_class_off_by_3e_9(monkeypatch):
    """The time-rounding allowance is about 2e-10 at the default 64 modes, so
    a composed side scaled by 1 + 3e-9 still fails both checks."""
    real = verification.extended.states_equal
    monkeypatch.setattr(verification.extended, "states_equal", lambda a, b, tol: real(
        a, rf.ExtendedState(b.offset, rf.scale(b.rep, 1.0 + 3e-9)), tol))
    assert [r.passed for r in verification.run_suite("group-law")] == [False]
    results = {r.name: r.passed for r in verification.run_suite("group-structure")}
    assert results["group.inverse"] is False
