"""The nilpotent right-shift witness: ranges, distances, exclusion onsets."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retroflow as rf


def test_zero_shift_is_identity():
    f = rf.GridFunction(np.array([1.0, -2.0, 3.0, 0.5]))
    assert rf.shift_evolve(f, 0.0) == f


def test_quarter_shift_of_constant():
    f = rf.constant_grid(1.0, 4)
    np.testing.assert_array_equal(rf.shift_evolve(f, 0.25).values, [0.0, 1.0, 1.0, 1.0])


def test_nilpotent_at_unit_time():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = rf.GridFunction(rng.normal(size=8))
        assert not np.any(rf.shift_evolve(f, 1.0).values)


def test_misaligned_shift_rejected():
    f = rf.constant_grid(1.0, 4)
    with pytest.raises(ValueError, match="grid"):
        rf.shift_evolve(f, 0.3)


def test_distance_of_constant_is_sqrt_t():
    f = rf.constant_grid(1.0, 4)
    assert rf.distance_to_range(f, 0.25) == pytest.approx(0.5, rel=1e-15)


def test_distance_zero_for_functions_in_range():
    f = rf.GridFunction(np.array([0.0, 0.0, 1.0, 2.0]))
    assert rf.distance_to_range(f, 0.5) == 0.0


def test_distance_vanishes_toward_zero():
    f = rf.constant_grid(1.0, 1000)
    previous = math.inf
    for k in (100, 10, 1):
        d = rf.distance_to_range(f, k / 1000)
        assert d == pytest.approx(math.sqrt(k / 1000), abs=1e-12)
        assert d < previous
        previous = d


def test_exclusion_onset_frozen_example():
    # sqrt inversion on the grid: smallest t with sqrt(t) > 0.4 is 0.17
    report = rf.exclusion_onset(rf.constant_grid(1.0, 100), 0.4)
    assert report.found
    assert report.onset == pytest.approx(0.17)
    assert report.distance_at_onset > 0.4 >= report.distance_before


def test_exclusion_onset_is_attained_minimum():
    report = rf.exclusion_onset(rf.constant_grid(1.0, 100), 0.4)
    f = rf.constant_grid(1.0, 100)
    assert rf.distance_to_range(f, report.onset) > report.radius
    assert rf.distance_to_range(f, report.onset - 0.01) <= report.radius


def test_no_witness_for_radius_at_norm():
    f = rf.constant_grid(1.0, 50)
    report = rf.exclusion_onset(f, 1.0)
    assert not report.found


def test_late_support_pushes_onset_past_support_edge():
    values = np.zeros(100)
    values[50:] = 1.0
    report = rf.exclusion_onset(rf.GridFunction(values), 0.05)
    assert report.found
    assert report.onset > 0.5


def test_range_characterization_exhaustive_small_grid():
    resolution = 4
    functions = [
        rf.GridFunction(np.array(bits, dtype=float))
        for bits in itertools.product((0.0, 1.0, -1.0), repeat=resolution)
    ]
    for k in range(1, resolution):
        t = k / resolution
        image = {tuple(rf.shift_evolve(f, t).values) for f in functions}
        vanishing = {tuple(f.values) for f in functions if not np.any(f.values[:k])}
        assert image == vanishing


def test_distance_monotone_in_t():
    rng = np.random.default_rng(2)
    f = rf.GridFunction(rng.normal(size=64))
    distances = [rf.distance_to_range(f, k / 64) for k in range(1, 64)]
    assert all(b >= a for a, b in zip(distances, distances[1:]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_shift_composition_on_grid(j, k):
    rng = np.random.default_rng(j * 17 + k)
    f = rf.GridFunction(rng.normal(size=8))
    lhs = rf.shift_evolve(rf.shift_evolve(f, j / 8), k / 8)
    rhs = rf.shift_evolve(f, (j + k) / 8)
    np.testing.assert_array_equal(lhs.values, rhs.values)


def test_reversible_set_collapses():
    # the unit-time map is zero, so the only state with a unit-time preimage
    # is zero: backward uniqueness fails and the reversible set is the origin
    rng = np.random.default_rng(3)
    g = rf.GridFunction(rng.normal(size=8))
    assert not np.any(rf.shift_evolve(g, 1.0).values)
    f = rf.constant_grid(1.0, 8)
    assert rf.distance_to_range(f, 7 / 8) == pytest.approx(f.norm() * math.sqrt(7 / 8))


def exclusion_onset_by_scan(f, radius):
    """The O(R**2) scan: every grid time's distance from its own sum."""
    resolution = f.resolution
    for k in range(1, resolution):
        d = rf.distance_to_range(f, k / resolution)
        if d > radius:
            before = rf.distance_to_range(f, (k - 1) / resolution) if k > 1 else 0.0
            return rf.ExclusionReport(True, radius, k / resolution, d, before)
    return rf.ExclusionReport(False, radius)


def test_exclusion_onset_equals_the_scan_on_random_grids():
    # radii at a grid time's own distance, and a rounding step either side of
    # it, put the onset where the sequential and pairwise sums round apart
    rng = np.random.default_rng(11)
    for _ in range(400):
        resolution = int(rng.integers(1, 513))
        values = rng.normal(size=resolution) * 10.0 ** rng.uniform(-3, 3, size=resolution)
        if rng.random() < 0.3:
            values[rng.random(resolution) < 0.5] = 0.0
        f = rf.GridFunction(values)
        k = int(rng.integers(1, resolution + 1))
        base = rf.distance_to_range(f, k / resolution) if k < resolution else f.norm()
        for radius in (base, base * (1 + 2e-16), base * (1 - 2e-16), base * 1.1, base * 0.9):
            radius = radius if radius > 0.0 else 0.5
            report = rf.exclusion_onset(f, radius)
            assert repr(report) == repr(exclusion_onset_by_scan(f, radius))


def test_a_ball_of_the_norms_radius_meets_every_range():
    # the norm is the running sum's last distance, so no distance before it is
    # larger; a pairwise norm fell below the sequential sums on some grids whose
    # last cell is negligible, and the ball then missed a range
    rng = np.random.default_rng(5)
    for _ in range(2000):
        resolution = int(rng.integers(2, 600))
        values = rng.normal(size=resolution) * 10.0 ** rng.uniform(-3, 3, size=resolution)
        values[-1] = 0.0 if rng.random() < 0.5 else values[-1] * 1e-9
        f = rf.GridFunction(values)
        assert not rf.exclusion_onset(f, f.norm()).found


def test_exclusion_onset_without_witness_is_linear_in_the_resolution():
    start = time.perf_counter()
    report = rf.exclusion_onset(rf.constant_grid(1.0, 2**20), 2.0)
    assert time.perf_counter() - start < 2.0
    assert not report.found
