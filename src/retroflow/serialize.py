"""JSON-compatible wire formats.

Log-encoded coefficients round-trip bit for bit: each entry is a
``[sign, log_mag]`` pair, with zero stored as ``[0, null]``.  The reader also
takes the linear encoding, plain values, which is never written.
"""

from __future__ import annotations

import functools
import json
import math
import numbers

import numpy as np

from .duality import Functional
from .extended import ExtendedState
from .inhomogeneous import (
    ConstantForcing,
    ExponentialForcing,
    Forcing,
    TableForcing,
)
from .logdomain import LOG_ZERO
from .reversibility import Classification
from .shift import GridFunction
from .spectral import (
    ExpTail,
    PowerTail,
    SpectralState,
    Spectrum,
    TailModel,
    ZERO_TAIL,
    make_heat_spectrum,
)


def _decodes(what: str):
    """Report a malformed ``what`` document as a ``ValueError`` naming it: a
    wrong type, or a missing key or entry, raises one of the errors below
    while decoding."""
    def wrap(decode):
        @functools.wraps(decode)
        def checked(d):
            try:
                return decode(d)
            except (TypeError, AttributeError, IndexError, KeyError) as err:
                raise ValueError(f"malformed {what}: {type(err).__name__}: {err}") from err
        return checked
    return wrap


def _integer(value, what: str) -> int:
    """An integer field; a bool or a float is refused, not coerced."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """A real field; a bool or a string is refused, not coerced."""
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _reals(values, what: str) -> np.ndarray:
    return np.array([_real(v, what) for v in values], dtype=float)


def spectrum_to_dict(spectrum: Spectrum) -> dict:
    if spectrum.kind == "heat":
        return {"kind": "heat", "modes": spectrum.num_modes}
    return {"kind": "custom", "eigenvalues": list(map(float, spectrum.eigenvalues))}


@_decodes("spectrum")
def spectrum_from_dict(d: dict) -> Spectrum:
    kind = d.get("kind")
    if kind == "heat":
        return make_heat_spectrum(_integer(d["modes"], "modes"))
    if kind == "custom":
        return Spectrum(_reals(d["eigenvalues"], "eigenvalue"), "custom")
    raise ValueError(f"unknown spectrum kind {kind!r}")


def tail_to_dict(tail: TailModel) -> dict:
    if not tail.coeff:
        return {"variant": "zero"}
    if tail.power:
        return {"variant": "power_decay", "power": tail.power, "coeff": tail.coeff}
    return {"variant": "exp_decay", "rate": tail.rate, "coeff": tail.coeff}


@_decodes("tail")
def tail_from_dict(d: dict) -> TailModel:
    variant = d.get("variant")
    if variant == "zero":
        return ZERO_TAIL
    if variant == "exp_decay":
        return ExpTail(_real(d["rate"], "rate"), _real(d["coeff"], "coeff"))
    if variant == "power_decay":
        return PowerTail(_real(d["power"], "power"), _real(d["coeff"], "coeff"))
    raise ValueError(f"unknown tail variant {variant!r}")


def _coefficients_from_dict(d: dict, cls: type) -> SpectralState:
    spectrum = spectrum_from_dict(d["spectrum"])
    tail = tail_from_dict(d.get("tail", {"variant": "zero"}))
    coeffs = d["coeffs"]
    encoding = coeffs.get("encoding", "linear")
    values = coeffs["values"]
    if encoding == "linear":
        return cls.from_values(spectrum, _reals(values, "linear value"), tail)
    if encoding == "log":
        signs = [_integer(pair[0], "sign") for pair in values]
        logs = [LOG_ZERO if sign == 0 else _real(pair[1], "log magnitude of a nonzero sign")
                for sign, pair in zip(signs, values)]
        return cls(spectrum, np.array(signs), np.array(logs), tail)
    raise ValueError(f"unknown coefficient encoding {encoding!r}")


def state_to_dict(state: SpectralState) -> dict:
    """A functional's tail is marked ``"may_grow": true``; a state's is not."""
    values = [[int(s), None if s == 0 else float(l)] for s, l in zip(state.signs, state.log_mags)]
    tail = tail_to_dict(state.tail)
    if isinstance(state, Functional):
        tail["may_grow"] = True
    return {"spectrum": spectrum_to_dict(state.spectrum),
            "coeffs": {"encoding": "log", "values": values}, "tail": tail}


@_decodes("state")
def state_from_dict(d: dict) -> SpectralState:
    return _coefficients_from_dict(d, SpectralState)


def extended_to_dict(state: ExtendedState) -> dict:
    return {"offset": state.offset, "rep": state_to_dict(state.rep)}


@_decodes("extended class")
def extended_from_dict(d: dict) -> ExtendedState:
    return ExtendedState(_real(d["offset"], "offset"), state_from_dict(d["rep"]))


@_decodes("functional")
def functional_from_dict(d: dict) -> Functional:
    return _coefficients_from_dict(d, Functional)


def classification_to_dict(c: Classification) -> dict:
    value = c.horizon.value
    return {
        "class": c.label.value,
        "horizon": "inf" if math.isinf(value) else value,
        "open": c.horizon.open_at_endpoint,
        "certificate": c.certificate,
    }


def forcing_to_dict(forcing: Forcing) -> dict:
    modes = []
    for mode, f in forcing.entries:
        if isinstance(f, ConstantForcing):
            modes.append({"n": mode, "kind": "const", "value": f.value})
        elif isinstance(f, ExponentialForcing):
            modes.append({"n": mode, "kind": "exp", "amplitude": f.amplitude, "rate": f.rate})
        else:
            modes.append(
                {
                    "n": mode,
                    "kind": "table",
                    "times": list(map(float, f.times)),
                    "values": list(map(float, f.values)),
                }
            )
    return {"modes": modes}


@_decodes("forcing")
def forcing_from_dict(d: dict) -> Forcing:
    entries = []
    for item in d.get("modes", []):
        kind = item.get("kind")
        if kind == "const":
            f = ConstantForcing(_real(item["value"], "value"))
        elif kind == "exp":
            amplitude = _real(item["amplitude"], "amplitude")
            f = ExponentialForcing(amplitude, _real(item["rate"], "rate"))
        elif kind == "table":
            f = TableForcing(_reals(item["times"], "time"), _reals(item["values"], "value"))
        else:
            raise ValueError(f"unknown forcing kind {kind!r}")
        entries.append((_integer(item["n"], "mode n"), f))
    return Forcing(tuple(entries))


def grid_to_dict(f: GridFunction) -> dict:
    return {"resolution": f.resolution, "values": list(map(float, f.values))}


@_decodes("grid function")
def grid_from_dict(d: dict) -> GridFunction:
    values = _reals(d["values"], "value")
    if "resolution" in d and _integer(d["resolution"], "resolution") != values.size:
        raise ValueError("resolution disagrees with the number of values")
    return GridFunction(values)


def save_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested past the parser's depth") from None
