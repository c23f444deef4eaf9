"""``api-mix``: one bundle of library calls per op on small generated states.

Every op makes the same calls (construction, classification, both flows,
linear structure, norms and inner products, the extended group, the
generator, duality and forced flows with closed-form and tabulated forcing)
on its own inputs: a zero-tail, an exponential-tail and a power-tail state on
``MODES`` heat modes.  Per-call overhead dominates at this size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import retroflow as rf
from common import (
    ForcedModes,
    check_coefficients,
    close,
    fingerprint,
    heat_eigenvalues,
    linear_values,
    mp_exp_power_cross_tail,
    mp_explicit_inner,
    mp_log_norm,
    mpmath,
    require,
    rng_for,
)

NAME = "api-mix"
MODES = 256
ROUND = 16


@dataclass(frozen=True)
class Inputs:
    z_signs: np.ndarray
    z_logs: np.ndarray
    e_signs: np.ndarray
    e_logs: np.ndarray
    rate: float
    e_coeff: float
    p_signs: np.ndarray
    p_logs: np.ndarray
    power: float
    p_coeff: float
    t_fwd: float
    t_back_z: float
    t_back_e: float
    t_group: float
    basis_mode: int
    f_rate: float
    f_coeff: float
    forcing: ForcedModes


def _signs(rng, n, zero_share=0.0):
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    signs[rng.random(n) < zero_share] = 0
    return signs


def make_inputs(rng) -> Inputs:
    n = np.arange(1, MODES + 1, dtype=float)
    lam = heat_eigenvalues(MODES)
    # exp tail rates this small keep the tail visible at 1e-12 in the norm
    rate = float(rng.uniform(8e-6, 1.2e-5))
    e_coeff = float(rng.uniform(0.5, 2.0))
    power = float(rng.uniform(2.6, 3.0))  # > 5/2 so the generator image is normed
    p_coeff = float(rng.uniform(0.5, 2.0))
    return Inputs(
        z_signs=_signs(rng, MODES, zero_share=0.1),
        z_logs=rng.uniform(-4.0, 2.0, MODES),
        e_signs=_signs(rng, MODES),
        e_logs=math.log(e_coeff) + rate * lam + np.log(rng.uniform(0.5, 1.5, MODES)),
        rate=rate,
        e_coeff=e_coeff,
        p_signs=_signs(rng, MODES),
        p_logs=math.log(p_coeff) - power * np.log(n) + np.log(rng.uniform(0.5, 1.5, MODES)),
        power=power,
        p_coeff=p_coeff,
        t_fwd=float(rng.uniform(0.01, 0.1)),
        t_back_z=float(rng.uniform(0.1, 1.0)),
        t_back_e=rate * float(rng.uniform(0.2, 0.8)),
        t_group=float(rng.uniform(0.5, 1.0)),
        basis_mode=int(rng.integers(1, 33)),
        f_rate=float(rng.uniform(-1.0, -0.1)),
        f_coeff=float(rng.uniform(0.5, 2.0)),
        forcing=ForcedModes.draw(rng),
    )


def run_op(spectrum, inp: Inputs) -> dict:
    """The timed bundle.  Returns every result so the checks can see them."""
    xz = rf.SpectralState(spectrum, inp.z_signs, inp.z_logs)
    xe = rf.SpectralState(spectrum, inp.e_signs, inp.e_logs, rf.ExpTail(inp.rate, inp.e_coeff))
    xp = rf.SpectralState(spectrum, inp.p_signs, inp.p_logs,
                          rf.PowerTail(inp.power, inp.p_coeff))
    out = {"classes": [rf.classify(x) for x in (xz, xe, xp)]}

    out["fwd"] = [rf.evolve(x, inp.t_fwd) for x in (xz, xe, xp)]
    bz = rf.backward_evolve(xz, inp.t_back_z)
    be = rf.backward_evolve(xe, inp.t_back_e)
    out["back"] = [bz, be]
    out["roundtrip"] = [rf.evolve(bz, inp.t_back_z), rf.evolve(be, inp.t_back_e)]
    out["roundtrip_gap"] = [rf.relative_gap(out["roundtrip"][0], xz),
                            rf.relative_gap(out["roundtrip"][1], xe)]
    refused = []
    for x, t in ((xe, 1.5 * inp.rate), (xp, inp.t_fwd)):
        try:
            rf.backward_evolve(x, t)
            refused.append(False)
        except rf.HorizonExceededError:
            refused.append(True)
    out["refused"] = refused

    out["sum_ze"] = s = rf.add(xz, xe)
    out["diff"] = rf.subtract(s, xz)
    out["sum_ep"] = sum_ep = rf.add(xe, xp)
    out["log_norms"] = [rf.log_norm(x) for x in (xz, xe, xp, *out["fwd"])]
    ip_ze = rf.log_inner_product(xz, xe)
    ip_zp = rf.log_inner_product(xz, xp)
    out["ips"] = [ip_ze, ip_zp, rf.log_inner_product(xe, xp)]
    out["ip_linear"] = [rf.log_sum([ip_ze, ip_zp]), rf.log_inner_product(xz, sum_ep)]

    past = rf.canonicalize(rf.group_evolve(rf.lift(xe), -inp.t_group))
    out["past"] = past
    out["group_equal"] = rf.states_equal(rf.group_evolve(past, inp.t_group), rf.lift(xe))
    out["ext_norm"] = rf.log_extended_norm(past, inp.t_group + inp.t_fwd)

    out["gen"] = [rf.generator_action(x) for x in (xz, xe, xp)]

    functional = rf.Functional.from_exp_law(spectrum, inp.f_rate, inp.f_coeff)
    cls = rf.functional_to_extended(functional)
    out["pairing"] = rf.log_pairing(rf.SpectralState.basis(spectrum, inp.basis_mode), cls)

    f = inp.forcing
    m_const, m_exp, m_table = f.modes
    forcing = rf.Forcing.from_dict({
        m_const: rf.ConstantForcing(f.const_value),
        m_exp: rf.ExponentialForcing(f.exp_amp, f.exp_rate),
        m_table: rf.TableForcing(f.table_times, f.table_values),
    })
    out["forced"] = rf.duhamel_evolve(xz, forcing, f.t)
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _tail(state):
    tail = state.tail
    kind = type(tail).__name__
    if kind == "ExpTail":
        return "exp", (tail.rate, tail.coeff)
    if kind == "PowerTail":
        return "power", (tail.power, tail.coeff)
    return "zero", ()


def check_coeffs(state, signs, logs, tol: float, what: str):
    check_coefficients(state.signs, state.log_mags, signs, logs, tol, what)


def check_tail(state, kind: str, params: tuple, what: str, tol: float = 1e-12):
    got_kind, got = _tail(state)
    require(got_kind == kind, f"{what}: tail family {got_kind}, expected {kind}")
    for g, r in zip(got, params):
        close(g, r, tol, f"{what}: tail parameter")


def check_log_norm(value: float, state_signs, state_logs, kind, params, what: str):
    close(value, mp_log_norm(state_signs, state_logs, kind, params), 1e-12, f"{what}: log_norm")


def check_class(c, label: str, horizon: float, is_open: bool, what: str):
    require(c.label.value == label, f"{what}: class {c.label.value}, expected {label}")
    require(c.horizon.value == horizon, f"{what}: horizon {c.horizon.value}, expected {horizon}")
    require(c.horizon.open_at_endpoint == is_open, f"{what}: horizon openness is wrong")


def check_ip(amp, ref, scale: float, what: str):
    mp = mpmath()
    value = amp.sign * mp.exp(mp.mpf(amp.log_mag)) if amp.sign else mp.mpf(0)
    require(abs(value - ref) <= 1e-12 * scale,
            f"{what}: inner product {mp.nstr(value, 17)} vs reference {mp.nstr(ref, 17)}")


def check(inp: Inputs, out: dict):
    lam = heat_eigenvalues(MODES)
    n_tail = MODES + 1
    states = {
        "zero": (inp.z_signs, inp.z_logs, "zero", ()),
        "exp": (inp.e_signs, inp.e_logs, "exp", (inp.rate, inp.e_coeff)),
        "power": (inp.p_signs, inp.p_logs, "power", (inp.power, inp.p_coeff)),
    }

    cz, ce, cp = out["classes"]
    check_class(cz, "D", math.inf, False, "zero-tail state")
    check_class(ce, "Dt", inp.rate, True, "exp-tail state")
    check_class(cp, "Z", 0.0, True, "power-tail state")

    # forward flow: log_mag + lambda_n t, tails shifted in closed form
    fz, fe, fp = out["fwd"]
    for (name, (signs, logs, _, _)), f in zip(states.items(), out["fwd"]):
        check_coeffs(f, signs, logs + lam * inp.t_fwd, 1e-12, f"evolve({name})")
    check_tail(fz, "zero", (), "evolve(zero)")
    check_tail(fe, "exp", (inp.rate + inp.t_fwd, inp.e_coeff), "evolve(exp)")
    # a power tail maps to the exponential envelope taken at the first tail mode
    check_tail(fp, "exp", (inp.t_fwd, inp.p_coeff * n_tail ** -inp.power), "evolve(power)")

    bz, be = out["back"]
    check_coeffs(bz, inp.z_signs, inp.z_logs - lam * inp.t_back_z, 1e-12, "backward(zero)")
    check_coeffs(be, inp.e_signs, inp.e_logs - lam * inp.t_back_e, 1e-12, "backward(exp)")
    check_tail(be, "exp", (inp.rate - inp.t_back_e, inp.e_coeff), "backward(exp)")
    rz, re = out["roundtrip"]
    check_coeffs(rz, inp.z_signs, inp.z_logs, 1e-9, "backward-then-forward(zero)")
    check_coeffs(re, inp.e_signs, inp.e_logs, 1e-9, "backward-then-forward(exp)")
    check_tail(re, "exp", (inp.rate, inp.e_coeff), "backward-then-forward(exp)")
    for gap in out["roundtrip_gap"]:
        require(0.0 <= gap <= 1e-9, f"round-trip relative_gap {gap!r} exceeds 1e-9")
    require(out["refused"] == [True, True], "a backward step past the horizon was not refused")

    # linear structure against plain float sums of the desk-scale inputs
    z, e = linear_values(inp.z_signs, inp.z_logs), linear_values(inp.e_signs, inp.e_logs)
    for got_state, ref, scale, what in (
        (out["sum_ze"], z + e, np.abs(z) + np.abs(e), "add(zero, exp)"),
        (out["diff"], e, np.abs(z) + np.abs(e), "subtract(add(zero, exp), zero)"),
    ):
        got = linear_values(got_state.signs, got_state.log_mags)
        require(np.all(np.abs(got - ref) <= 1e-12 * scale), f"{what}: coefficients differ")
        check_tail(got_state, "exp", (inp.rate, inp.e_coeff), what)
    # exp + power: the envelope must dominate both laws past the truncation
    kind, (s_pow, s_coeff) = _tail(out["sum_ep"])
    require(kind == "power" and s_pow <= inp.power, "add(exp, power): envelope family")
    n = np.arange(n_tail, n_tail + 4 * MODES, dtype=float)
    true_sum = inp.e_coeff * np.exp(inp.rate * -(n * math.pi) ** 2) + inp.p_coeff * n ** -inp.power
    require(np.all(s_coeff * n ** -s_pow >= true_sum * (1 - 1e-12)),
            "add(exp, power): envelope does not dominate the summed laws")

    for value, (name, (signs, logs, kind, params)) in zip(out["log_norms"][:3], states.items()):
        check_log_norm(value, signs, logs, kind, params, name)
    for value, f, name in zip(out["log_norms"][3:], out["fwd"], states):
        kind, params = _tail(f)
        check_log_norm(value, f.signs, f.log_mags, kind, params, f"evolve({name})")

    norm = {k: math.exp(v) for k, v in zip(states, out["log_norms"][:3])}
    ip_ze_ref = mp_explicit_inner(inp.z_signs, inp.z_logs, inp.e_signs, inp.e_logs)
    ip_zp_ref = mp_explicit_inner(inp.z_signs, inp.z_logs, inp.p_signs, inp.p_logs)
    ip_ep_ref = mp_explicit_inner(inp.e_signs, inp.e_logs, inp.p_signs, inp.p_logs) + \
        mp_exp_power_cross_tail(inp.rate, inp.e_coeff, inp.power, inp.p_coeff, n_tail)
    ip_ze, ip_zp, ip_ep = out["ips"]
    check_ip(ip_ze, ip_ze_ref, norm["zero"] * norm["exp"], "<zero, exp>")
    check_ip(ip_zp, ip_zp_ref, norm["zero"] * norm["power"], "<zero, power>")
    check_ip(ip_ep, ip_ep_ref, norm["exp"] * norm["power"], "<exp, power>")
    scale = norm["zero"] * (norm["exp"] + norm["power"])
    for amp in out["ip_linear"]:
        check_ip(amp, ip_ze_ref + ip_zp_ref, scale, "<zero, exp + power>")

    past = out["past"]
    # the exp state's open horizon (rate << t_group) cannot absorb the offset
    require(past.offset == inp.t_group, f"group_evolve offset {past.offset!r}")
    check_coeffs(past.rep, inp.e_signs, inp.e_logs, 0.0, "group_evolve representative")
    require(out["group_equal"] is True, "group_evolve(-s) then (+s) is not the identity class")
    close(out["ext_norm"], out["log_norms"][4], 1e-12, "log_extended_norm past the offset")

    # generator: multiply mode n by lambda_n
    log_abs_lam = np.log(-lam)
    for (name, (signs, logs, _, _)), g in zip(states.items(), out["gen"]):
        check_coeffs(g, -signs, logs + log_abs_lam, 1e-12, f"generator({name})")
    check_tail(out["gen"][0], "zero", (), "generator(zero)")
    check_tail(out["gen"][2], "power", (inp.power - 2.0, inp.p_coeff * math.pi ** 2),
               "generator(power)")
    kind, (g_rate, g_coeff) = _tail(out["gen"][1])
    require(kind == "exp", "generator(exp): envelope family")
    lam_t = -(n * math.pi) ** 2
    image = inp.e_coeff * -lam_t * np.exp(inp.rate * lam_t)
    require(np.all(g_coeff * np.exp(g_rate * lam_t) >= image * (1 - 1e-12)),
            "generator(exp): envelope does not dominate lambda_n * law")

    # duality: <e_n, functional_to_extended(b)> = b_n = coeff exp(rate lambda_n)
    pairing = out["pairing"]
    require(pairing.sign == 1, "pairing sign")
    ref = math.log(inp.f_coeff) + inp.f_rate * lam[inp.basis_mode - 1]
    require(abs(pairing.log_mag - ref) <= 1e-9,
            f"pairing: log magnitude {pairing.log_mag!r}, closed form {ref!r} (relative 1e-9)")

    # forced flow: unforced modes follow the homogeneous flow
    f = inp.forcing
    forced = out["forced"]
    unforced = np.ones(MODES, dtype=bool)
    unforced[[m - 1 for m in f.modes]] = False
    check_coefficients(forced.signs, forced.log_mags, inp.z_signs, inp.z_logs + lam * f.t,
                       1e-12, "duhamel: unforced modes", unforced)
    check_tail(forced, "zero", (), "duhamel")
    x0 = linear_values(inp.z_signs, inp.z_logs)
    mp = mpmath()
    f.check(linear_values(forced.signs, forced.log_mags),
            lambda m: mp.mpf(x0[m - 1]) * mp.exp(mp.mpf(lam[m - 1]) * f.t))


class Workload:
    name = NAME
    round_size = ROUND

    def __init__(self, seed: int):
        rng = rng_for(seed, 1)
        self.spectrum = rf.make_heat_spectrum(MODES)
        self.inputs = [make_inputs(rng) for _ in range(ROUND)]

    def run(self, i: int) -> dict:
        return run_op(self.spectrum, self.inputs[i])

    def check(self, i: int, out: dict):
        check(self.inputs[i], out)

    digest = staticmethod(fingerprint)
