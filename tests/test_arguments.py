"""Every public entry point that takes a scalar checks it the one way
(:mod:`retroflow.errors`): a number is a finite real, a count is an integer
within its bounds, and a bool is neither.  A refusal is a ``ValueError`` that
names the parameter; an accepted value of any numeric type gives the same
result, bit for bit."""

import dataclasses
import math
import numbers
import re

import numpy as np
import pytest

import retroflow as rf
from retroflow import serialize, verification
from retroflow.errors import MAX_MODES, MAX_STEPS

SP = rf.make_heat_spectrum(3)
X = rf.SpectralState.from_values(SP, [1.0, -0.5, 0.25], rf.ExpTail(0.5, 1.0))
FULL = rf.SpectralState.from_values(SP, [1.0, -0.5, 0.25])
Z = rf.ExtendedState(0.25, X)
POWER = rf.SpectralState.zeros(SP, rf.PowerTail(1.5, 1.0))
FORCING = rf.Forcing.from_dict({1: rf.ConstantForcing(1.0),
                                2: rf.TableForcing([0.0, 2.0], [1.0, 3.0])})
GRID = rf.GridFunction(np.arange(1.0, 9.0))
GOOD_STATE = {"spectrum": {"kind": "heat", "modes": 1},
              "coeffs": {"encoding": "log", "values": [[1, 0.0]]}}


def digest(obj):
    """Every bit of a result: arrays by their bytes, numbers by the hex of their
    value as a float, and anything else by its ``repr``."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, numbers.Real) and not isinstance(obj, bool):
        return float(obj).hex()
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(digest(getattr(obj, f.name))
                                             for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(digest(v) for v in obj)
    return repr(obj)


def real(what, good, call, rule="", part=""):
    return pytest.param(what, "real", good, call, rule, part, id=f"{what}-real")


def count(what, good, call, rule="", part=""):
    return pytest.param(what, "count", good, call, rule, part, id=f"{what}-count")


NONNEGATIVE = "finite and nonnegative"
POSITIVE = "positive and finite"
POWER_RULE = "finite and exceed 1/2 for a square-summable tail, and its double finite for a norm"


def modes_from(low):
    return f"an integer from {low} to the budget of {MAX_MODES}"


# (the parameter's name as the refusal names it, real or count, a value the
# entry point accepts, the call, the site's wording of what the value must be
# if it has one, and the part a wire decoder names)
ROWS = [
    real("time", 1, lambda v: rf.evolve(X, v)),
    real("backward time", 1, lambda v: rf.backward_evolve(FULL, v)),
    real("backward time", 1, lambda v: rf.amplification_log(FULL, v)),
    real("backward time", 1, lambda v: rf.log_backward_norm(FULL, v)),
    real("time", -1, lambda v: rf.group_evolve(Z, v)),
    real("backward depth", 1, lambda v: rf.log_extended_norm(Z, v)),
    real("offset", 1, lambda v: rf.ExtendedState(v, X), NONNEGATIVE),
    real("a scale factor", -2, lambda v: rf.scale(X, v)),
    real("a scale factor", 2, lambda v: rf.scale_extended(Z, v)),
    real("tolerance", 1, lambda v: rf.states_equal(Z, rf.lift(X), v)),
    real("rate", 1, lambda v: rf.ExpTail(v, 1.0)),
    real("coeff", 2, lambda v: rf.ExpTail(1.0, v), NONNEGATIVE),
    real("power", 2, lambda v: rf.PowerTail(v, 1.0), POWER_RULE),
    real("coeff", 2, lambda v: rf.PowerTail(2.0, v), NONNEGATIVE),
    real("rate", -1, lambda v: rf.Functional.from_exp_law(SP, v)),
    real("coeff", 2, lambda v: rf.Functional.from_exp_law(SP, 0.5, v), NONNEGATIVE),
    real("growth factor", 2, lambda v: rf.GrowthBound(v, 0.0)),
    real("growth rate", 1, lambda v: rf.GrowthBound(1.0, v)),
    real("eps", 1, lambda v: rf.truncate_to_reversible(POWER, v), POSITIVE),
    real("eps0", 1, lambda v: rf.iterate_to_reversible(FULL, v, rf.truncation_preimage_oracle(),
                                                       max_iters=2), POSITIVE),
    real("ConstantForcing value", 2, lambda v: rf.ConstantForcing(v)),
    real("ExponentialForcing amplitude", 2, lambda v: rf.ExponentialForcing(v, 1.0)),
    real("ExponentialForcing rate", 2, lambda v: rf.ExponentialForcing(1.0, v)),
    real("tolerance", 1, lambda v: rf.QuadratureConfig(tol=v)),
    real("t", 1, lambda v: rf.forcing_integral(SP, FORCING, v), NONNEGATIVE),
    real("t", 1, lambda v: rf.duhamel_evolve(FULL, FORCING, v), NONNEGATIVE),
    real("t", 1, lambda v: rf.mode_response(-9.87, FORCING.get(2), v, rf.QuadratureConfig()),
         NONNEGATIVE),
    real("t", 1, lambda v: rf.affine_backward(FULL, FORCING, v), NONNEGATIVE),
    real("t", 1, lambda v: rf.log_affine_norm(FULL, FORCING, v), NONNEGATIVE),
    real("radius", 3, lambda v: rf.exclusion_onset(GRID, v)),
    real("t", 1, lambda v: rf.shift_evolve(GRID, v)),
    real("t", 0.375, lambda v: rf.distance_to_range(GRID, v)),
    real("value", 2, lambda v: rf.constant_grid(v, 4)),
    real("--tol", 1, lambda v: verification.run_suite("shift", tol=v), POSITIVE),
    real("log magnitude of a nonzero sign", 2, lambda v: serialize.state_from_dict(
        {**GOOD_STATE, "coeffs": {"encoding": "log", "values": [[1, v]]}}), part="state"),
    real("linear value", 2, lambda v: serialize.state_from_dict(
        {**GOOD_STATE, "coeffs": {"encoding": "linear", "values": [v]}}), part="state"),
    real("eigenvalue", -2, lambda v: serialize.spectrum_from_dict({"kind": "custom", "eigenvalues": [v]}),
         part="spectrum"),
    real("rate", 1, lambda v: serialize.tail_from_dict({"variant": "exp_decay", "rate": v, "coeff": 1.0}),
         part="tail"),
    real("offset", 1, lambda v: serialize.extended_from_dict({"offset": v, "rep": GOOD_STATE}),
         NONNEGATIVE, "extended class"),
    real("time", 2, lambda v: serialize.forcing_from_dict(
        {"modes": [{"n": 1, "kind": "table", "times": [0.0, v], "values": [1.0, 2.0]}]}), part="forcing"),
    count("num_modes", 3, lambda v: rf.make_heat_spectrum(v), modes_from(1)),
    count("num_modes", 3, lambda v: rf.make_heat_spectrum(2).extended(v), modes_from(2)),
    count("num_modes", 5, lambda v: rf.embed(X, v), modes_from(3)),
    count("mode", 2, lambda v: rf.SpectralState.basis(SP, v)),
    count("mode", 2, lambda v: X.coeff(v)),
    count("n_max", 2, lambda v: rf.log_frechet_seminorms(FULL, v)),
    count("n_max", 2, lambda v: rf.frechet_seminorms(FULL, v)),
    count("max_iters", 2, lambda v: rf.iterate_to_reversible(FULL, 0.1, rf.truncation_preimage_oracle(),
                                                             max_iters=v)),
    count("steps", 8, lambda v: rf.QuadratureConfig(steps=v),
          f"at most {MAX_STEPS} and a positive even integer"),
    count("mode indices", 2, lambda v: rf.Forcing(((v, rf.ConstantForcing(1.0)),)), "integers from 1"),
    count("resolution", 4, lambda v: rf.constant_grid(1.0, v)),
    count("--samples", 2, lambda v: verification.run_suite("spectral", samples=v, modes=4)),
    count("sign", 1, lambda v: serialize.state_from_dict(
        {**GOOD_STATE, "coeffs": {"encoding": "log", "values": [[v, 0.0]]}}), part="state"),
    count("num_modes", 2, lambda v: serialize.spectrum_from_dict({"kind": "heat", "modes": v}),
          modes_from(1), "spectrum"),
    count("mode n", 1, lambda v: serialize.forcing_from_dict(
        {"modes": [{"n": v, "kind": "const", "value": 1.0}]}), part="forcing"),
]


@pytest.mark.parametrize("what, kind, good, call, rule, part", ROWS)
def test_a_scalar_is_checked_the_one_way(what, kind, good, call, rule, part):
    bad = [True, "1", None, math.nan, math.inf, -math.inf]
    if kind == "count":
        bad.append(float(good))
    for value in bad:
        wrong_type = kind == "count" or not isinstance(value, float)
        must = rule or ("an integer" if kind == "count" else "a number" if wrong_type else "finite")
        message = f"{what} must be {must}, got {value!r}"
        if wrong_type and part:  # a decoder names the part whose field has the wrong type
            message = f"malformed {part}: ScalarTypeError: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    forms = [int(good), np.int64(good)] if kind == "count" else [float(good), np.float64(good)]
    if kind == "real" and good == int(good):
        forms += [int(good), np.int64(good)]
    results = [digest(call(value)) for value in forms]
    assert results == [results[0]] * len(forms)


@pytest.mark.parametrize("call, message", [
    # each gave an answer: mode N's coefficient, mode N - 1's, mode 1, 5 modes,
    # the state itself twice, a certificate of True iterations, two seminorms,
    # False, a certificate
    (lambda: X.coeff(0), "mode must be between 1 and 3, got 0"),
    (lambda: X.coeff(-1), "mode must be between 1 and 3, got -1"),
    (lambda: rf.SpectralState.basis(SP, True), "mode must be an integer, got True"),
    (lambda: rf.make_heat_spectrum(5.0), f"num_modes must be {modes_from(1)}, got 5.0"),
    (lambda: rf.embed(X, 3.0), f"num_modes must be {modes_from(3)}, got 3.0"),
    (lambda: rf.embed(rf.SpectralState.basis(rf.make_heat_spectrum(1), 1), True),
     f"num_modes must be {modes_from(1)}, got True"),
    (lambda: rf.iterate_to_reversible(FULL, 0.1, rf.truncation_preimage_oracle(), max_iters=True),
     "max_iters must be an integer, got True"),
    (lambda: rf.log_frechet_seminorms(FULL, True), "n_max must be an integer, got True"),
    (lambda: rf.states_equal(Z, Z, math.nan), "tolerance must be finite, got nan"),
    (lambda: rf.QuadratureConfig(tol=math.inf), "tolerance must be finite, got inf"),
    # an error of another kind
    (lambda: rf.SpectralState.basis(SP, 1.0), "mode must be an integer, got 1.0"),
    (lambda: rf.iterate_to_reversible(FULL, 0.1, rf.truncation_preimage_oracle(), max_iters=2.5),
     "max_iters must be an integer, got 2.5"),
    (lambda: rf.ExpTail("1", 1.0), "rate must be a number, got '1'"),
    (lambda: rf.evolve(X, "1"), "time must be a number, got '1'"),
    (lambda: rf.shift_evolve(GRID, math.inf), "t must be finite, got inf"),
    (lambda: rf.evolve(X, 10**400), "time must be finite, got inf"),
], ids=["coeff-0", "coeff-minus-1", "basis-true", "modes-5.0", "embed-same-3.0", "embed-same-true",
        "max-iters-true", "n-max-true",
        "states-equal-nan", "quadrature-tol-inf", "basis-1.0", "max-iters-2.5", "exp-tail-str",
        "evolve-str", "shift-evolve-inf", "evolve-huge-int"])
def test_a_wrong_answer_of_a_coerced_scalar_is_a_refusal(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
