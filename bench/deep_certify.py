"""``deep-certify``: one certified approximation per op, same composition every
time.

- ``truncate_to_reversible`` on a power-tail state, at an ``eps`` placed so
  the minimal depth is a drawn ``depth`` of about 10^5 modes;
- ``iterate_to_reversible`` with the truncation preimage oracle, at an
  ``eps0`` whose first truncation lands near a drawn depth of 800 to 1200
  modes, where the iteration succeeds today;
- adaptive-Simpson ``duhamel_evolve`` on tabulated forcing.

Per-element work dominates: materializing the tail law mode by mode, large
array norms and distances, the zeta bisection and Simpson grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import retroflow as rf
from common import (
    check_coefficients,
    close,
    distance_to_power_law,
    fingerprint,
    heat_eigenvalues,
    linear_values,
    mp_power_tail_norm,
    mp_table_response,
    mpmath,
    require,
    rng_for,
)

NAME = "deep-certify"
ROUND = 8
EXPLICIT = 32  # explicit modes of the power-tail inputs
FORCED_MODES = 64
# With t = 1 and a final sample of magnitude 1, the adaptive rule settles on
# the same step count for these modes whatever the other samples are (2^15
# steps for 13-15, 2^16 for 19-22), so every op does the same quadrature work.
DRIVEN_MODES = (13, 14, 15, 19, 20, 21, 22)
T_FORCED = 1.0
TABLE_SAMPLES = 17  # breaks at multiples of t/16: on panel edges of every Simpson grid
TABLE_TIMES = T_FORCED * np.arange(TABLE_SAMPLES) / (TABLE_SAMPLES - 1)
QUAD_TOL = 1e-10
# The adaptive rule stops on the Richardson estimate of the returned value; the
# true error exceeds that estimate by about 0.2 % here, so the check allows 1 %.
QUAD_SLACK = 1.01
CHECK_SLICE = 8192  # modes per slice when checking a written-out law


@dataclass(frozen=True)
class PowerInput:
    signs: np.ndarray
    logs: np.ndarray
    power: float
    coeff: float
    depth: int  # the intended truncation depth
    eps: float


@dataclass(frozen=True)
class ForcedInput:
    signs: np.ndarray
    logs: np.ndarray
    tables: tuple  # one value array per driven mode


@dataclass(frozen=True)
class Inputs:
    trunc: PowerInput
    iterate: PowerInput
    forced: ForcedInput


def _power_input(rng, power_range, depth_range, eps_of) -> PowerInput:
    power = float(rng.uniform(*power_range))
    coeff = float(rng.uniform(0.5, 2.0))
    n = np.arange(1, EXPLICIT + 1, dtype=float)
    depth = int(rng.integers(*depth_range))
    return PowerInput(
        signs=rng.choice(np.array([-1, 1], dtype=np.int8), size=EXPLICIT),
        logs=math.log(coeff) - power * np.log(n) + np.log(rng.uniform(0.5, 1.5, EXPLICIT)),
        power=power,
        coeff=coeff,
        depth=depth,
        eps=eps_of(power, coeff, depth),
    )


def _eps_between(power, coeff, depth) -> float:
    # the tail norm beyond depth-1 exceeds eps and the one beyond depth does not,
    # so the minimal certified depth is exactly ``depth``
    above = mp_power_tail_norm(power, coeff, depth)
    below = mp_power_tail_norm(power, coeff, depth + 1)
    return float(mpmath().sqrt(above * below))


def _eps_for_oracle(power, coeff, depth) -> float:
    # the oracle's first truncation runs at eps0 / 4 (margin 1/2, first step 1/2)
    return 4.0 * float(mp_power_tail_norm(power, coeff, depth + 1))


def make_inputs(rng) -> Inputs:
    trunc = _power_input(rng, (1.9, 2.1), (98_000, 102_001), _eps_between)
    iterate = _power_input(rng, (2.25, 2.75), (800, 1201), _eps_for_oracle)
    tables = []
    for _ in DRIVEN_MODES:
        values = rng.uniform(-1.0, 1.0, TABLE_SAMPLES)
        values[-1] = rng.choice([-1.0, 1.0])
        tables.append(values)
    forced = ForcedInput(
        signs=rng.choice(np.array([-1, 1], dtype=np.int8), size=FORCED_MODES),
        logs=rng.uniform(-3.0, 1.0, FORCED_MODES),
        tables=tuple(tables),
    )
    return Inputs(trunc, iterate, forced)


def power_state(spectrum, inp: PowerInput):
    return rf.SpectralState(spectrum, inp.signs, inp.logs, rf.PowerTail(inp.power, inp.coeff))


def run_op(spectra, inp: Inputs) -> dict:
    explicit, forced_spectrum = spectra
    out = {"truncated": rf.truncate_to_reversible(power_state(explicit, inp.trunc), inp.trunc.eps)}
    out["iterated"] = rf.iterate_to_reversible(
        power_state(explicit, inp.iterate), inp.iterate.eps, rf.truncation_preimage_oracle())
    f = inp.forced
    x0 = rf.SpectralState(forced_spectrum, f.signs, f.logs)
    forcing = rf.Forcing(tuple(
        (m, rf.TableForcing(TABLE_TIMES, v)) for m, v in zip(DRIVEN_MODES, f.tables)))
    quad = rf.QuadratureConfig(steps=64, adaptive=True, tol=QUAD_TOL)
    out["forced"] = rf.duhamel_evolve(x0, forcing, T_FORCED, quad)
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _is_zero_tail(state) -> bool:
    return type(state.tail).__name__ == "ZeroTail"


def check_truncation(inp: PowerInput, state, cert):
    depth = state.num_modes
    require(_is_zero_tail(state), "truncation: result keeps a tail")
    dropped = mp_power_tail_norm(inp.power, inp.coeff, depth + 1)
    require(dropped <= inp.eps, f"truncation: dropped tail {float(dropped):.10g} exceeds eps")
    require(mp_power_tail_norm(inp.power, inp.coeff, depth) > inp.eps,
            f"truncation: depth {depth} is not minimal")
    require(depth == inp.depth, f"truncation: depth {depth}, expected {inp.depth}")
    # the law written out with a plus sign past the explicit modes, checked a
    # slice at a time so the check needs less memory than the op
    for lo in range(EXPLICIT, depth, CHECK_SLICE):
        hi = min(lo + CHECK_SLICE, depth)
        n = np.arange(lo + 1, hi + 1, dtype=float)
        check_coefficients(state.signs[lo:hi], state.log_mags[lo:hi], np.ones(hi - lo, np.int8),
                           math.log(inp.coeff) - inp.power * np.log(n), 1e-12, "truncation")
    require(np.array_equal(state.signs[:EXPLICIT], inp.signs)
            and np.array_equal(state.log_mags[:EXPLICIT], inp.logs),
            "truncation: explicit modes changed")
    require(cert.achieved_error_bound <= inp.eps, "truncation: certificate exceeds eps")
    require(cert.achieved_error_bound >= float(dropped) * (1 - 1e-12),
            "truncation: certificate below the true dropped norm")


def true_distance(inp: PowerInput, state) -> float:
    return distance_to_power_law(state.signs, state.log_mags, inp.signs, inp.logs, inp.power,
                                 inp.coeff)


def check_iteration(inp: PowerInput, state, cert):
    require(_is_zero_tail(state), "iteration: result keeps a tail")
    dist = true_distance(inp, state)
    require(cert.achieved_error_bound <= inp.eps * (1 + 1e-9), "iteration: certificate exceeds eps0")
    require(dist <= cert.achieved_error_bound,
            f"iteration: true distance {dist:.6g} exceeds the certificate "
            f"{cert.achieved_error_bound:.6g}")


def check_forced(f: ForcedInput, state):
    lam = heat_eigenvalues(FORCED_MODES)
    require(_is_zero_tail(state), "duhamel: result keeps a tail")
    unforced = np.ones(FORCED_MODES, dtype=bool)
    unforced[[m - 1 for m in DRIVEN_MODES]] = False
    check_coefficients(state.signs, state.log_mags, f.signs, f.logs + lam * T_FORCED, 1e-12,
                       "duhamel: unforced modes", unforced)
    got = linear_values(state.signs, state.log_mags)
    mp = mpmath()
    for m, values in zip(DRIVEN_MODES, f.tables):
        lam_m = float(lam[m - 1])
        drive = mp_table_response(lam_m, T_FORCED, TABLE_TIMES, values)
        hom_m = int(f.signs[m - 1]) * mp.exp(mp.mpf(float(f.logs[m - 1])) + lam_m * T_FORCED)
        close(got[m - 1], float(hom_m + drive), QUAD_SLACK * QUAD_TOL,
              f"duhamel: adaptive Simpson on mode {m}")


def check(inp: Inputs, out: dict):
    check_truncation(inp.trunc, *out["truncated"])
    check_iteration(inp.iterate, *out["iterated"])
    check_forced(inp.forced, out["forced"])


class Workload:
    name = NAME
    round_size = ROUND

    def __init__(self, seed: int):
        rng = rng_for(seed, 2)
        self.spectra = (rf.make_heat_spectrum(EXPLICIT), rf.make_heat_spectrum(FORCED_MODES))
        self.inputs = [make_inputs(rng) for _ in range(ROUND)]

    def run(self, i: int) -> dict:
        return run_op(self.spectra, self.inputs[i])

    def check(self, i: int, out: dict):
        check(self.inputs[i], out)

    digest = staticmethod(fingerprint)
