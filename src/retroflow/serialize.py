"""JSON-compatible wire formats.

Log-encoded coefficients round-trip bit for bit: each entry is a
``[sign, log_mag]`` pair, with zero stored as ``[0, null]``.  Linear encoding
is offered for desk-scale states only and refuses values outside float range.
"""

from __future__ import annotations

import json
import math

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
from .shift import ExclusionReport, GridFunction
from .spectral import (
    ExpTail,
    PowerTail,
    SpectralState,
    Spectrum,
    TailModel,
    ZERO_TAIL,
    make_heat_spectrum,
)
from .density import DensityCertificate


def spectrum_to_dict(spectrum: Spectrum) -> dict:
    if spectrum.kind == "heat":
        return {"kind": "heat", "modes": spectrum.num_modes}
    return {"kind": "custom", "eigenvalues": list(map(float, spectrum.eigenvalues))}


def spectrum_from_dict(d: dict) -> Spectrum:
    kind = d.get("kind")
    if kind == "heat":
        return make_heat_spectrum(int(d["modes"]))
    if kind == "custom":
        return Spectrum(np.asarray(d["eigenvalues"], dtype=float), "custom")
    raise ValueError(f"unknown spectrum kind {kind!r}")


def tail_to_dict(tail: TailModel, may_grow: bool = False) -> dict:
    if isinstance(tail, ExpTail):
        d = {"variant": "exp_decay", "rate": tail.rate, "coeff": tail.coeff}
    elif isinstance(tail, PowerTail):
        d = {"variant": "power_decay", "power": tail.power, "coeff": tail.coeff}
    else:
        d = {"variant": "zero"}
    if may_grow:
        d["may_grow"] = True
    return d


def tail_from_dict(d: dict) -> TailModel:
    variant = d.get("variant")
    if variant == "zero":
        return ZERO_TAIL
    if variant == "exp_decay":
        return ExpTail(float(d["rate"]), float(d["coeff"]))
    if variant == "power_decay":
        return PowerTail(float(d["power"]), float(d["coeff"]))
    raise ValueError(f"unknown tail variant {variant!r}")


def _coeffs_to_dict(signs, log_mags, encoding: str) -> dict:
    if encoding == "log":
        values = [
            [int(s), None if s == 0 else float(l)] for s, l in zip(signs, log_mags)
        ]
        return {"encoding": "log", "values": values}
    if encoding == "linear":
        out = []
        for s, l in zip(signs, log_mags):
            if s == 0:
                out.append(0.0)
                continue
            if l > 709.0:
                raise ValueError(
                    "coefficient exceeds float range; use the log encoding"
                )
            out.append(float(s) * math.exp(float(l)))
        return {"encoding": "linear", "values": out}
    raise ValueError(f"unknown coefficient encoding {encoding!r}")


def _coeffs_from_dict(d: dict):
    encoding = d.get("encoding", "linear")
    values = d["values"]
    if encoding == "linear":
        arr = np.asarray(values, dtype=float)
        signs = np.sign(arr).astype(np.int8)
        with np.errstate(divide="ignore"):
            logs = np.where(arr == 0.0, LOG_ZERO, np.log(np.abs(arr)))
        return signs, logs
    if encoding == "log":
        signs = np.array([int(pair[0]) for pair in values], dtype=np.int8)
        logs = np.array(
            [LOG_ZERO if pair[0] == 0 or pair[1] is None else float(pair[1]) for pair in values]
        )
        return signs, logs
    raise ValueError(f"unknown coefficient encoding {encoding!r}")


def state_to_dict(state: SpectralState, encoding: str = "log") -> dict:
    """A functional's tail is marked ``"may_grow": true``; a state's is not."""
    return {
        "spectrum": spectrum_to_dict(state.spectrum),
        "coeffs": _coeffs_to_dict(state.signs, state.log_mags, encoding),
        "tail": tail_to_dict(state.tail, may_grow=isinstance(state, Functional)),
    }


def _coefficients_from_dict(d: dict, cls: type) -> SpectralState:
    spectrum = spectrum_from_dict(d["spectrum"])
    signs, logs = _coeffs_from_dict(d["coeffs"])
    return cls(spectrum, signs, logs, tail_from_dict(d.get("tail", {"variant": "zero"})))


def state_from_dict(d: dict) -> SpectralState:
    return _coefficients_from_dict(d, SpectralState)


def extended_to_dict(state: ExtendedState, encoding: str = "log") -> dict:
    return {"offset": state.offset, "rep": state_to_dict(state.rep, encoding)}


def extended_from_dict(d: dict) -> ExtendedState:
    return ExtendedState(float(d["offset"]), state_from_dict(d["rep"]))


def functional_to_dict(functional: Functional, encoding: str = "log") -> dict:
    return state_to_dict(functional, encoding)


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


def forcing_from_dict(d: dict) -> Forcing:
    entries = []
    for item in d.get("modes", []):
        kind = item.get("kind")
        if kind == "const":
            f = ConstantForcing(float(item["value"]))
        elif kind == "exp":
            f = ExponentialForcing(float(item["amplitude"]), float(item["rate"]))
        elif kind == "table":
            f = TableForcing(np.asarray(item["times"], float), np.asarray(item["values"], float))
        else:
            raise ValueError(f"unknown forcing kind {kind!r}")
        entries.append((int(item["n"]), f))
    return Forcing(tuple(entries))


def grid_to_dict(f: GridFunction) -> dict:
    return {"resolution": f.resolution, "values": list(map(float, f.values))}


def grid_from_dict(d: dict) -> GridFunction:
    values = np.asarray(d["values"], dtype=float)
    if "resolution" in d and int(d["resolution"]) != values.size:
        raise ValueError("resolution disagrees with the number of values")
    return GridFunction(values)


def certificate_to_dict(cert: DensityCertificate) -> dict:
    return {
        "target_error": cert.target_error,
        "achieved_error_bound": cert.achieved_error_bound,
        "iterations": cert.iterations,
        "epsilon_schedule": list(cert.epsilon_schedule),
        "step_bounds": list(cert.step_bounds),
        "step_gaps": list(cert.step_gaps),
        "residual_bound": cert.residual_bound,
        "regime": cert.regime,
    }


def exclusion_report_to_dict(report: ExclusionReport) -> dict:
    return {
        "found": report.found,
        "radius": report.radius,
        "onset": report.onset,
        "distance_at_onset": report.distance_at_onset,
        "distance_before": report.distance_before,
    }


def save_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
