"""JSON-compatible wire formats.

Log-encoded coefficients round-trip bit for bit: each entry is a
``[sign, log_mag]`` pair, with zero stored as ``[0, null]``.  The reader also
takes the linear encoding, plain values, which is never written.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .errors import ScalarTypeError, count, real
from .extended import ExtendedState
from .inhomogeneous import (
    ConstantForcing,
    ExponentialForcing,
    Forcing,
    TableForcing,
)
from .logdomain import LOG_ZERO
from .reversibility import Classification
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
    while decoding; a value a constructor refuses keeps its message."""
    def wrap(decode):
        @functools.wraps(decode)
        def checked(d):
            try:
                return decode(d)
            except (ScalarTypeError, TypeError, AttributeError, IndexError, KeyError) as err:
                raise ValueError(f"malformed {what}: {type(err).__name__}: {err}") from err
        return checked
    return wrap


def _reals(values, what: str) -> np.ndarray:
    return np.array([real(v, what) for v in values], dtype=float)


def number_to_json(value: float):
    """A float for JSON, whose grammar has no infinity: ``inf`` is written ``"inf"``."""
    return str(value) if math.isinf(value) else value


def spectrum_to_dict(spectrum: Spectrum) -> dict:
    if spectrum.kind == "heat":
        return {"kind": "heat", "modes": spectrum.num_modes}
    return {"kind": "custom", "eigenvalues": list(map(float, spectrum.eigenvalues))}


@_decodes("spectrum")
def spectrum_from_dict(d: dict) -> Spectrum:
    kind = d.get("kind")
    if kind == "heat":
        return make_heat_spectrum(d["modes"])
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
        return ExpTail(d["rate"], d["coeff"])
    if variant == "power_decay":
        return PowerTail(d["power"], d["coeff"])
    raise ValueError(f"unknown tail variant {variant!r}")


def state_to_dict(state: SpectralState) -> dict:
    try:  # a functional's law may grow
        SpectralState._check_decay(state.tail)
    except ValueError as err:
        raise ValueError(f"{err}; write the class functional_to_extended gives") from None
    values = [[int(s), None if s == 0 else float(l)] for s, l in zip(state.signs, state.log_mags)]
    return {"spectrum": spectrum_to_dict(state.spectrum),
            "coeffs": {"encoding": "log", "values": values}, "tail": tail_to_dict(state.tail)}


@_decodes("state")
def state_from_dict(d: dict) -> SpectralState:
    spectrum = spectrum_from_dict(d["spectrum"])
    tail = tail_from_dict(d.get("tail", {"variant": "zero"}))
    coeffs = d["coeffs"]
    encoding = coeffs.get("encoding", "linear")
    values = coeffs["values"]
    if encoding == "linear":
        return SpectralState.from_values(spectrum, _reals(values, "linear value"), tail)
    if encoding == "log":
        signs = [count(pair[0], "sign", -1, 1) for pair in values]
        logs = [LOG_ZERO if sign == 0 else real(pair[1], "log magnitude of a nonzero sign")
                for sign, pair in zip(signs, values)]
        return SpectralState(spectrum, np.array(signs), np.array(logs), tail)
    raise ValueError(f"unknown coefficient encoding {encoding!r}")


def extended_to_dict(state: ExtendedState) -> dict:
    return {"offset": state.offset, "rep": state_to_dict(state.rep)}


@_decodes("extended class")
def extended_from_dict(d: dict) -> ExtendedState:
    return ExtendedState(d["offset"], state_from_dict(d["rep"]))


def classification_to_dict(c: Classification) -> dict:
    value = c.horizon.value
    return {
        "class": c.label.value,
        "horizon": number_to_json(value),
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
            f = ConstantForcing(item["value"])
        elif kind == "exp":
            f = ExponentialForcing(item["amplitude"], item["rate"])
        elif kind == "table":
            f = TableForcing(_reals(item["times"], "time"), _reals(item["values"], "value"))
        else:
            raise ValueError(f"unknown forcing kind {kind!r}")
        entries.append((count(item["n"], "mode n", 1), f))
    return Forcing(tuple(entries))


def save_json(path, payload: dict):
    text = json.dumps(payload, indent=2, allow_nan=False)  # strict JSON: no NaN or Infinity
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested past the parser's depth") from None
