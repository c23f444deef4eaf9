"""Property-verification suites.

Every suite re-derives its expected values through an independent route
(brute-force partial sums, high-precision per-mode arithmetic, closed-form
solutions, orthogonal projections) and checks the library against them at
fixed tolerances.  The CLI ``verify`` verb and the acceptance tests both run
these functions, so a green run here is the package's acceptance gate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import density, duality, extended, inhomogeneous, reversibility, shift, spectral
from .errors import GeneratorDomainError, HorizonExceededError
from .logdomain import LOG_ZERO

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    tolerance: Optional[float] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tol = "" if self.tolerance is None else f" @ tol {self.tolerance:g}"
        return f"[{status}] {self.name}{tol}: {self.detail}"


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def _random_state(rng, spectrum, tail=spectral.ZERO_TAIL, amp=1.0):
    values = rng.normal(scale=amp, size=spectrum.num_modes)
    return spectral.SpectralState.from_values(spectrum, values, tail)


def _random_tail(rng, kind: str):
    if kind == "zero":
        return spectral.ZERO_TAIL
    if kind == "exp":
        return spectral.ExpTail(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 1.0)))
    return spectral.PowerTail(float(rng.uniform(0.8, 2.2)), float(rng.uniform(0.1, 1.0)))


def _random_extended(rng, spectrum, max_offset: float):
    kind = rng.choice(["zero", "exp", "power"])
    rep = _random_state(rng, spectrum, _random_tail(rng, str(kind)))
    offset = float(rng.uniform(0.0, max_offset)) if max_offset > 0.0 else 0.0
    return extended.ExtendedState(offset, rep)


# ---------------------------------------------------------------------------
# spectral core invariants
# ---------------------------------------------------------------------------

def check_spectral_invariants(
    modes: int = 16, samples: int = 200, tol: float = 1e-12, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Semigroup law, contraction, linearity, and agreement of the log-domain
    norm with naive double-precision summation wherever the latter exists."""
    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)
    results = []

    worst_semi = worst_lin = worst_norm = 0.0
    contraction_ok = True
    for _ in range(samples):
        x = _random_state(rng, spectrum, _random_tail(rng, str(rng.choice(["zero", "exp"]))))
        s, t = rng.uniform(0.0, 3.0, size=2)
        lhs = spectral.evolve(spectral.evolve(x, s), t)
        rhs = spectral.evolve(x, s + t)
        worst_semi = max(worst_semi, spectral.relative_gap(lhs, rhs))
        if spectral.log_norm(spectral.evolve(x, t)) > spectral.log_norm(x) + 1e-12:
            contraction_ok = False
        y = _random_state(rng, spectrum)
        a, b = rng.uniform(-3.0, 3.0, size=2)
        lin_lhs = spectral.evolve(spectral.add(spectral.scale(x, a), spectral.scale(y, b)), t)
        lin_rhs = spectral.add(
            spectral.scale(spectral.evolve(x, t), a), spectral.scale(spectral.evolve(y, t), b)
        )
        worst_lin = max(worst_lin, spectral.relative_gap(lin_lhs, lin_rhs))
        # naive norm: plain float squares, plus a plain-float tail law sum
        naive_sq = float(np.sum(x.coeff_values() ** 2))
        tail = x.tail
        if isinstance(tail, spectral.ExpTail):
            n = modes + 1
            while True:
                term = (tail.coeff * math.exp(tail.rate * -((n * math.pi) ** 2))) ** 2
                if term < naive_sq * 1e-18 + 1e-300:
                    break
                naive_sq += term
                n += 1
        naive = math.sqrt(naive_sq)
        worst_norm = max(worst_norm, abs(spectral.norm(x) - naive) / max(1.0, naive))

    results.append(CheckResult(
        "spectral.semigroup-law", worst_semi < tol,
        f"worst relative defect {worst_semi:.3e} over {samples} samples", tol))
    results.append(CheckResult(
        "spectral.contraction", contraction_ok, "no norm growth under the forward flow"))
    results.append(CheckResult(
        "spectral.linearity", worst_lin < tol,
        f"worst relative defect {worst_lin:.3e}", tol))
    results.append(CheckResult(
        "spectral.norm-naive-agreement", worst_norm < tol,
        f"worst relative gap to naive summation {worst_norm:.3e}", tol))

    # inclusion chain: zero-tail states are fully reversible, carry every
    # backward-depth norm, and embed with finite extended norms
    chain_ok = True
    for _ in range(20):
        x = _random_state(rng, spectrum)
        c = reversibility.classify(x)
        if c.label is not reversibility.ReversibilityClass.FULL:
            chain_ok = False
        for t_chain in (0.5, 1.0, 2.0):
            if reversibility.log_backward_norm(x, t_chain) == math.inf:
                chain_ok = False
        z = extended.lift(x)
        for t_chain in (0.0, 1.0, 5.0):
            if extended.log_extended_norm(z, t_chain) == math.inf:
                chain_ok = False
    results.append(CheckResult(
        "spectral.inclusion-chain", chain_ok,
        "zero-tail states: fully reversible, all backward-depth norms finite, embedded norms finite"))
    return results


# ---------------------------------------------------------------------------
# acceptance criterion 1: group law
# ---------------------------------------------------------------------------

def check_group_law(
    modes: int = 64, samples: int = 1000, tol: float = 1e-9, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Composition law of the extended group under random signed times."""
    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)
    start = time.perf_counter()
    failures = 0
    for _ in range(samples):
        x = _random_extended(rng, spectrum, max_offset=1.5)
        s, t = rng.uniform(-2.0, 2.0, size=2)
        lhs = extended.group_evolve(extended.group_evolve(x, s), t)
        rhs = extended.group_evolve(x, s + t)
        if not extended.states_equal(lhs, rhs, tol):
            failures += 1
    elapsed = time.perf_counter() - start
    return [CheckResult(
        "group.composition-law", failures == 0 and elapsed < 10.0,
        f"{samples} random (state, s, t) triples on {modes} modes, "
        f"{failures} failures, {elapsed:.2f} s", tol)]


def check_group_structure(
    modes: int = 32, samples: int = 100, tol: float = 1e-9, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Identity, inverses, and backward uniqueness of the extended group."""
    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)
    identity_ok = True
    inverse_fail = 0
    uniqueness_fail = 0
    for _ in range(samples):
        x = _random_extended(rng, spectrum, max_offset=1.0)
        if extended.group_evolve(x, 0.0) is not x:
            identity_ok = False
        s = float(rng.uniform(-2.0, 2.0))
        back = extended.group_evolve(extended.group_evolve(x, s), -s)
        if not extended.states_equal(back, x, tol):
            inverse_fail += 1
        # backward uniqueness on the extended space: equal forward images at
        # time |s| imply equal classes, testable because the inverse is total
        y = _random_extended(rng, spectrum, max_offset=1.0)
        t_fwd = abs(s) + 0.1
        if extended.states_equal(
            extended.group_evolve(x, t_fwd), extended.group_evolve(y, t_fwd), tol
        ) and not extended.states_equal(x, y, 1e-6):
            uniqueness_fail += 1
    return [
        CheckResult("group.identity", identity_ok, "zero time returns the state itself"),
        CheckResult("group.inverse", inverse_fail == 0,
                    f"{inverse_fail} failures over {samples} samples", tol),
        CheckResult("group.backward-uniqueness", uniqueness_fail == 0,
                    f"equal forward images never came from distinct classes "
                    f"({samples} samples)", tol),
    ]


# ---------------------------------------------------------------------------
# acceptance criterion 2: restriction to the ambient space
# ---------------------------------------------------------------------------

def check_restriction(
    modes: int = 32, samples: int = 50, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """On embedded states the group action coincides bitwise with the flow."""
    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)
    ok = True
    for _ in range(samples):
        x = _random_state(rng, spectrum, _random_tail(rng, str(rng.choice(["zero", "exp"]))))
        for t in (0.0, 0.1, 1.0, 5.0):
            lhs = extended.group_evolve(extended.lift(x), t)
            rhs = extended.lift(spectral.evolve(x, t))
            if lhs != rhs:
                ok = False
    return [CheckResult(
        "group.restriction", ok,
        f"group action equals the flow on lifted states, exactly in the log "
        f"domain, t in (0, 0.1, 1, 5), {samples} samples")]


# ---------------------------------------------------------------------------
# acceptance criterion 3: backward roundtrip through deep modes
# ---------------------------------------------------------------------------

def check_backward_roundtrip(
    modes: int = 32, samples: int = 60, tol: float = 1e-9, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Forward-after-backward returns the state, including the deepest mode,
    whose amplification is far beyond float range (log-domain certification)."""
    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)
    worst = 0.0
    deep_checked = False
    for _ in range(samples):
        values = rng.normal(size=modes)
        values[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)  # keep mode N live
        x = spectral.SpectralState.from_values(spectrum, values)
        t = float(rng.uniform(0.05, 1.0))
        back = reversibility.backward_evolve(x, t)
        worst = max(worst, spectral.relative_gap(spectral.evolve(back, t), x))
        if reversibility.amplification_log(x, 1.0) > 700.0:
            deep_checked = True
    amp_log = reversibility.amplification_log(
        spectral.SpectralState.basis(spectrum, modes), 1.0)
    return [CheckResult(
        "reversibility.backward-roundtrip", worst < tol and deep_checked,
        f"worst relative roundtrip error {worst:.3e} on {modes}-mode states; "
        f"deepest mode amplifies by exp({amp_log:.0f})", tol)]


# ---------------------------------------------------------------------------
# acceptance criterion 4: horizon against brute-force partial sums
# ---------------------------------------------------------------------------

def _brute_force_series(rate: float, coeff: float, t: float, blowup: float = 1e12):
    """Partial sums of the backward coefficient series for an exponential
    law, in plain floats: returns (converged, diverged_past_blowup)."""
    total = 0.0
    for n in range(1, 1_000_000):
        exponent = 2.0 * (t - rate) * (n * math.pi) ** 2 + 2.0 * math.log(coeff)
        term = math.exp(min(exponent, 700.0))
        total += term
        if total > blowup:
            return False, True
        if term < total * 1e-15 and n > 4:
            return True, False
    return False, False


def check_horizon_oracle(
    gammas=(0.1, 0.3, 1.0), seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """The symbolic horizon agrees with brute-force summation on both sides
    of the endpoint: convergence at 0.97 of the rate, certified blow-up past
    1e12 at 1.03 of the rate."""
    results = []
    spectrum = spectral.make_heat_spectrum(4)
    for gamma in gammas:
        state = spectral.SpectralState.zeros(spectrum, spectral.ExpTail(float(gamma), 1.0))
        h = reversibility.horizon(state)
        symbolic_ok = h.value == float(gamma) and h.open_at_endpoint
        conv, _ = _brute_force_series(float(gamma), 1.0, 0.97 * float(gamma))
        _, div = _brute_force_series(float(gamma), 1.0, 1.03 * float(gamma))
        label = reversibility.classify(state).label
        results.append(CheckResult(
            f"reversibility.horizon-oracle[rate={gamma}]",
            symbolic_ok and conv and div and label is reversibility.ReversibilityClass.PARTIAL,
            f"symbolic horizon {h.value} (open); brute force converges at "
            f"0.97*rate and exceeds 1e12 at 1.03*rate"))
    return results


# ---------------------------------------------------------------------------
# acceptance criterion 5: norm axioms on the intermediate spaces
# ---------------------------------------------------------------------------

def check_extended_norm_axioms(
    depths=(0.0, 0.5, 2.0), pairs: int = 1000, tol: float = 1e-12,
    modes: int = 16, seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Triangle inequality, absolute homogeneity, and definiteness of the
    backward-depth norms over random class pairs."""
    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)
    results = []
    zero_class = extended.lift(spectral.SpectralState.zeros(spectrum))
    for depth in depths:
        tri_worst = hom_worst = 0.0
        definite_ok = extended.extended_norm(zero_class, depth) == 0.0
        for _ in range(pairs):
            x = _random_extended(rng, spectrum, max_offset=depth)
            y = _random_extended(rng, spectrum, max_offset=depth)
            nx = extended.extended_norm(x, depth)
            ny = extended.extended_norm(y, depth)
            nxy = extended.extended_norm(extended.add_extended(x, y), depth)
            tri_worst = max(tri_worst, (nxy - nx - ny) / max(1.0, nxy))
            a = float(rng.uniform(-3.0, 3.0))
            nax = extended.extended_norm(extended.scale_extended(x, a), depth)
            hom_worst = max(hom_worst, abs(nax - abs(a) * nx) / max(1.0, nax))
            if nx == 0.0 and not extended.states_equal(x, zero_class, 1e-12):
                definite_ok = False
        results.append(CheckResult(
            f"extended.norm-axioms[depth={depth}]",
            tri_worst <= tol and hom_worst <= tol and definite_ok,
            f"triangle defect {tri_worst:.3e}, homogeneity defect {hom_worst:.3e}, "
            "zero norm only for the zero class", tol))
    return results


# ---------------------------------------------------------------------------
# acceptance criterion 6: seminorm separation and independent arithmetic
# ---------------------------------------------------------------------------

def check_seminorms(
    samples: int = 100, n_max: int = 5, tol: float = 1e-12,
    modes: int = 5, seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """The integer-time seminorm family separates points, and each value
    matches independent per-mode exponential arithmetic (50-digit floats)."""
    import mpmath as mp

    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)
    separation_ok = True
    worst = 0.0
    with mp.workdps(50):
        for _ in range(samples):
            values = rng.uniform(0.1, 10.0, size=modes) * rng.choice([-1.0, 1.0], size=modes)
            x = spectral.SpectralState.from_values(spectrum, values)
            ours = reversibility.log_frechet_seminorms(x, n_max)
            if min(ours) == LOG_ZERO:
                separation_ok = False
            for k, our_log in enumerate(ours):
                ref_sq = mp.fsum(
                    (mp.mpf(float(v)) ** 2) * mp.e ** (2 * (i + 1) ** 2 * mp.pi**2 * k)
                    for i, v in enumerate(values)
                )
                ref_log = float(mp.log(ref_sq) / 2)
                worst = max(worst, abs(math.expm1(our_log - ref_log)))
    zero_ok = all(
        v == 0.0
        for v in reversibility.frechet_seminorms(
            spectral.SpectralState.zeros(spectrum), n_max)
    )
    return [
        CheckResult("reversibility.seminorm-separation", separation_ok,
                    f"all seminorms positive on {samples} nonzero states (n <= {n_max})"),
        CheckResult("reversibility.seminorm-arithmetic", worst < tol,
                    f"worst relative gap to 50-digit per-mode arithmetic {worst:.3e}", tol),
        CheckResult("reversibility.seminorm-zero", zero_ok, "zero state has all-zero seminorms"),
    ]


# ---------------------------------------------------------------------------
# acceptance criterion 7: the density constructor
# ---------------------------------------------------------------------------

def check_density_constructor(
    samples: int = 20, targets=(0.1, 0.01), modes: int = 8, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """The preimage iteration lands within its budget, the certificate bound
    dominates the measured error, and the output is fully reversible."""
    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)
    oracle = density.truncation_preimage_oracle()
    results = []
    for eps0 in targets:
        worst_err = 0.0
        sound = True
        reversible = True
        for _ in range(samples):
            tail = spectral.PowerTail(float(rng.uniform(1.2, 2.5)), float(rng.uniform(0.2, 1.0)))
            x0 = _random_state(rng, spectrum, tail)
            out, cert = density.iterate_to_reversible(x0, float(eps0), oracle)
            gap = spectral.log_distance(out, x0)
            err = 0.0 if gap == LOG_ZERO else math.exp(gap)
            worst_err = max(worst_err, err)
            if not (err <= cert.achieved_error_bound <= eps0 * (1 + 1e-9)):
                sound = False
            if reversibility.classify(out).label is not reversibility.ReversibilityClass.FULL:
                reversible = False
        results.append(CheckResult(
            f"density.iteration[eps0={eps0}]",
            worst_err <= eps0 and sound and reversible,
            f"worst error {worst_err:.3e} <= {eps0}; certificates dominate "
            f"measured errors; outputs fully reversible ({samples} states)"))
    return results


# ---------------------------------------------------------------------------
# acceptance criterion 8: the forced flow
# ---------------------------------------------------------------------------

def check_duhamel(tol_closed: float = 1e-8, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Constant forcing against the scalar-ODE closed form, Simpson's
    fourth-order convergence on the sampled route, the affine composition
    law, and exact zero-depth consistency."""
    results = []
    spectrum = spectral.make_heat_spectrum(4)
    lam = float(spectrum.eigenvalues[0])
    x0 = spectral.SpectralState.zeros(spectrum)
    quad = inhomogeneous.QuadratureConfig(steps=64)

    # scalar ODE closed form: a' = lam a + 1, a(0) = 0 -> (1 - exp(lam t))/(-lam)
    forcing = inhomogeneous.Forcing.from_dict({1: inhomogeneous.ConstantForcing(1.0)})
    got = inhomogeneous.duhamel_evolve(x0, forcing, 1.0, quad).coeff(1).to_linear()
    expected = -math.expm1(lam) / (-lam)
    rel = abs(got - expected) / abs(expected)
    results.append(CheckResult(
        "inhomogeneous.constant-forcing-closed-form", rel < tol_closed,
        f"mode-1 response {got:.9g} vs ODE closed form {expected:.9g}, "
        f"relative error {rel:.3e} (64-step quadrature config)", tol_closed))

    # sampled route: the same constant as a two-point table goes through
    # Simpson; halving the step must cut the error at least eightfold
    table = inhomogeneous.TableForcing(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    val64, _ = inhomogeneous.mode_response(lam, table, 1.0, inhomogeneous.QuadratureConfig(steps=64))
    val128, _ = inhomogeneous.mode_response(lam, table, 1.0, inhomogeneous.QuadratureConfig(steps=128))
    err64 = abs(val64 - expected)
    err128 = abs(val128 - expected)
    ratio = err64 / err128 if err128 > 0 else math.inf
    results.append(CheckResult(
        "inhomogeneous.simpson-order", ratio >= 8.0,
        f"step halving cut the quadrature error by {ratio:.1f}x "
        f"({err64:.3e} -> {err128:.3e})"))

    # affine composition law with exponential forcing (closed forms throughout)
    rng = np.random.default_rng(seed)
    worst_comp = 0.0
    for _ in range(25):
        x = _random_state(rng, spectrum)
        f = inhomogeneous.Forcing.from_dict({
            1: inhomogeneous.ExponentialForcing(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),
            2: inhomogeneous.ConstantForcing(float(rng.uniform(-1, 1))),
        })
        s, t = rng.uniform(0.1, 1.0, size=2)
        one = inhomogeneous.duhamel_evolve(x, f, s + t, quad)
        two = inhomogeneous.duhamel_evolve(
            inhomogeneous.duhamel_evolve(x, f, s, quad), f.shifted(s), t, quad)
        worst_comp = max(worst_comp, spectral.relative_gap(one, two))
    results.append(CheckResult(
        "inhomogeneous.affine-composition", worst_comp < 1e-8,
        f"worst relative defect {worst_comp:.3e} over exponential/constant forcing", 1e-8))

    # zero-depth consistency is exact
    x = _random_state(rng, spectrum)
    exact = inhomogeneous.affine_norm(x, forcing, 0.0, quad) == spectral.norm(x)
    results.append(CheckResult(
        "inhomogeneous.zero-depth-consistency", exact,
        "affine norm at depth 0 equals the ambient norm exactly"))

    # roundtrip through the affine inverse
    worst_rt = 0.0
    for _ in range(25):
        x = _random_state(rng, spectrum)
        f = inhomogeneous.Forcing.from_dict({1: inhomogeneous.ConstantForcing(float(rng.uniform(-1, 1)))})
        t = float(rng.uniform(0.1, 0.5))
        back = inhomogeneous.affine_backward(inhomogeneous.duhamel_evolve(x, f, t, quad), f, t, quad)
        worst_rt = max(worst_rt, spectral.relative_gap(back, x))
    results.append(CheckResult(
        "inhomogeneous.affine-roundtrip", worst_rt < 1e-8,
        f"worst relative roundtrip error {worst_rt:.3e}", 1e-8))
    return results


# ---------------------------------------------------------------------------
# acceptance criterion 9: duality reconstruction
# ---------------------------------------------------------------------------

def check_duality_reconstruction(
    rates=(0.5, -0.1), max_mode: int = 16, tol: float = 1e-9,
    modes: int = 24, seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Functionals built from exponential coefficient laws are realized by
    classes whose pairings against basis states reproduce every coefficient."""
    spectrum = spectral.make_heat_spectrum(modes)
    results = []
    for rate in rates:
        functional = duality.Functional.from_exp_law(spectrum, float(rate))
        z = duality.functional_to_extended(functional)
        worst = 0.0
        sign_ok = True
        for mode in range(1, max_mode + 1):
            basis = spectral.SpectralState.basis(spectrum, mode)
            got = duality.log_pairing(basis, z)
            want = functional.coeff(mode)
            if got.sign != want.sign:
                sign_ok = False
            worst = max(worst, abs(math.expm1(got.log_mag - want.log_mag)))
        results.append(CheckResult(
            f"duality.reconstruction[rate={rate}]", sign_ok and worst < tol,
            f"pairing reproduces coefficients up to mode {max_mode}, "
            f"worst relative error {worst:.3e} (offset {z.offset:.3g})", tol))

    # bilinearity and non-degeneracy at desk scale
    rng = np.random.default_rng(seed)
    small = spectral.make_heat_spectrum(6)
    worst_bilin = 0.0
    nondegen_ok = True
    for _ in range(50):
        x = _random_state(rng, small)
        y = _random_state(rng, small)
        z = extended.lift(_random_state(rng, small))
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = duality.pairing(spectral.add(spectral.scale(x, a), spectral.scale(y, b)), z)
        rhs = a * duality.pairing(x, z) + b * duality.pairing(y, z)
        worst_bilin = max(worst_bilin, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        if spectral.log_norm(x) != LOG_ZERO:
            hits = [
                duality.pairing(x, extended.lift(spectral.SpectralState.basis(small, m)))
                for m in range(1, small.num_modes + 1)
            ]
            if max(abs(h) for h in hits) == 0.0:
                nondegen_ok = False
    results.append(CheckResult(
        "duality.bilinearity", worst_bilin < 1e-12,
        f"worst relative defect {worst_bilin:.3e}", 1e-12))
    results.append(CheckResult(
        "duality.non-degeneracy", nondegen_ok,
        "no nonzero state pairs to zero against every basis class"))
    return results


# ---------------------------------------------------------------------------
# acceptance criterion 10: the non-dense-range witness
# ---------------------------------------------------------------------------

def check_shift_witness(resolution: int = 1000, tol: float = 1e-12) -> list[CheckResult]:
    """Distance to the shift ranges is exactly sqrt(t) for the constant
    function; it is monotone and vanishes along the grid toward zero, so the
    onset of non-density is zero."""
    ones = shift.constant_grid(1.0, resolution)
    worst = 0.0
    monotone = True
    prev = 0.0
    for k in range(1, resolution):
        t = k / resolution
        d = shift.distance_to_range(ones, t)
        worst = max(worst, abs(d - math.sqrt(t)))
        if d < prev - 1e-15:
            monotone = False
        prev = d
    smallest = shift.distance_to_range(ones, 1.0 / resolution)
    results = [CheckResult(
        "shift.range-distance", worst < tol and monotone and smallest == math.sqrt(1.0 / resolution),
        f"distance equals sqrt(t) to {worst:.3e}, monotone, and is already "
        f"{smallest:.4f} at the first grid time (onset of non-density is 0)", tol)]

    # exhaustive range characterization on a small grid
    small_r = 4
    all_funcs = [
        shift.GridFunction(np.array(bits, dtype=float))
        for bits in np.ndindex(*(2,) * small_r)
    ]
    range_ok = True
    for k in range(1, small_r):
        t = k / small_r
        image = {tuple(shift.shift_evolve(f, t).values) for f in all_funcs}
        vanishing = {tuple(f.values) for f in all_funcs if not np.any(f.values[:k])}
        if image != vanishing:
            range_ok = False
    results.append(CheckResult(
        "shift.range-characterization", range_ok,
        f"exhaustive enumeration at resolution {small_r}: the time-t range is "
        "exactly the functions vanishing on (0, t)"))
    return results


# ---------------------------------------------------------------------------
# acceptance criterion 11: backward uniqueness, held and violated
# ---------------------------------------------------------------------------

def check_backward_uniqueness(
    modes: int = 16, samples: int = 200, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """On spectral models the flow is injective (per-mode inversion); the
    shift model violates it at time one, collapsing its reversible set."""
    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)
    injective_ok = True
    for _ in range(samples):
        x = _random_state(rng, spectrum)
        y = _random_state(rng, spectrum)
        if spectral.relative_gap(x, y) < 1e-6:
            continue
        t = float(rng.uniform(0.1, 2.0))
        if spectral.evolve(x, t) == spectral.evolve(y, t):
            injective_ok = False
        # per-mode inversion: dividing the image by the same nonzero factors
        # recovers the state
        back = reversibility.backward_evolve(spectral.evolve(x, t), t)
        if spectral.relative_gap(back, x) > 1e-9:
            injective_ok = False

    nilpotent_ok = True
    for _ in range(50):
        f = shift.GridFunction(rng.normal(size=8))
        if np.any(shift.shift_evolve(f, 1.0).values):
            nilpotent_ok = False
    # the unit-time range is {0}, so only the origin is fully reversible
    collapse_ok = nilpotent_ok
    return [
        CheckResult("uniqueness.spectral-injectivity", injective_ok,
                    f"distinct states keep distinct images and invert per mode "
                    f"({samples} samples)"),
        CheckResult("uniqueness.shift-violation", nilpotent_ok and collapse_ok,
                    "the unit-time shift is identically zero, so backward "
                    "uniqueness fails and the reversible set is the origin"),
    ]


# ---------------------------------------------------------------------------
# extra structural suites
# ---------------------------------------------------------------------------

def check_generator(modes: int = 8, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Finite differences of the flow converge to the generator action at
    first order in the step, and the domain condition rejects fat power tails."""
    rng = np.random.default_rng(seed)
    spectrum = spectral.make_heat_spectrum(modes)

    def fd_gap(x, h):
        fd = spectral.scale(spectral.subtract(spectral.evolve(x, h), x), 1.0 / h)
        gen = extended.apply_generator(extended.lift(x)).rep
        return spectral.relative_gap(fd, gen)

    h = 1e-6
    # first-order Taylor remainder: relative error about |lambda_N| h / 2
    bound = 0.75 * abs(float(spectrum.eigenvalues[-1])) * h
    worst = 0.0
    order_ok = True
    for _ in range(20):
        x = _random_state(rng, spectrum)
        gap = fd_gap(x, h)
        worst = max(worst, gap)
        ratio = fd_gap(x, 10.0 * h) / gap
        if not 5.0 < ratio < 20.0:
            order_ok = False
    domain_ok = False
    try:
        extended.apply_generator(
            extended.lift(spectral.SpectralState.zeros(spectrum, spectral.PowerTail(2.0, 1.0))))
    except GeneratorDomainError:
        domain_ok = True
    return [
        CheckResult("generator.finite-difference", worst < bound and order_ok,
                    f"worst relative gap {worst:.3e} at step {h:g} "
                    f"(bound {bound:.3e}); gap scales linearly in the step"),
        CheckResult("generator.domain-condition", domain_ok,
                    "fat power tails are rejected as outside the generator domain"),
    ]


def check_classification(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The three-way classification matches the tail analytics, and backward
    steps past the horizon fail with the horizon attached."""
    spectrum = spectral.make_heat_spectrum(6)
    rng = np.random.default_rng(seed)
    full = reversibility.classify(_random_state(rng, spectrum))
    part = reversibility.classify(
        spectral.SpectralState.zeros(spectrum, spectral.ExpTail(0.3, 1.0)))
    none = reversibility.classify(
        spectral.SpectralState.zeros(spectrum, spectral.PowerTail(1.0, 1.0)))
    labels_ok = (
        full.label is reversibility.ReversibilityClass.FULL
        and part.label is reversibility.ReversibilityClass.PARTIAL
        and part.horizon.value == 0.3
        and none.label is reversibility.ReversibilityClass.NONE
    )
    blocked = False
    try:
        reversibility.backward_evolve(
            spectral.SpectralState.zeros(spectrum, spectral.PowerTail(1.0, 1.0)), 0.01)
    except HorizonExceededError as err:
        blocked = err.horizon.value == 0.0
    return [
        CheckResult("reversibility.classification", labels_ok,
                    "zero tail is fully reversible, exponential tail reaches its "
                    "rate with an open endpoint, power tail admits no backward step"),
        CheckResult("reversibility.horizon-enforcement", blocked,
                    "backward steps past the horizon raise with the horizon attached"),
    ]


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "spectral": check_spectral_invariants,
    "group-law": check_group_law,
    "group-structure": check_group_structure,
    "restriction": check_restriction,
    "backward-roundtrip": check_backward_roundtrip,
    "horizon-oracle": check_horizon_oracle,
    "norm-axioms": check_extended_norm_axioms,
    "seminorms": check_seminorms,
    "density": check_density_constructor,
    "duhamel": check_duhamel,
    "duality": check_duality_reconstruction,
    "shift": check_shift_witness,
    "backward-uniqueness": check_backward_uniqueness,
    "generator": check_generator,
    "classification": check_classification,
}


def _takes(fn: Callable, key: str) -> bool:
    import inspect

    return key in inspect.signature(fn).parameters


def suite_takes(name: str, key: str) -> bool:
    """Whether :func:`run_suite` hands override ``key`` to suite ``name``;
    ``"all"`` hands each override to the suites that take it."""
    return name == "all" or (name in SUITES and _takes(SUITES[name], key))


def run_suite(name: str, **overrides) -> list[CheckResult]:
    """Run one named suite, or every suite for ``"all"``.

    ``"all"`` hands each override to the suites that take it; a named suite
    rejects an override it does not take instead of dropping it silently.
    Override names are the ``verify`` flags, so the error names the flag.
    """
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(**{k: v for k, v in overrides.items() if _takes(fn, k)}))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    for key in overrides:
        if not _takes(SUITES[name], key):
            raise ValueError(f"suite {name!r} does not take --{key}")
    return SUITES[name](**overrides)
