"""Wire formats: bit-for-bit round trips and the documented shapes."""

import json

import numpy as np
import pytest

import retroflow as rf
from retroflow import serialize


def sample_state():
    sp = rf.make_heat_spectrum(3)
    return rf.SpectralState.from_values(sp, [1.5, 0.0, -2.25], rf.ExpTail(0.4, 0.7))


def test_state_log_roundtrip_bit_for_bit():
    x = sample_state()
    deep = rf.backward_evolve(rf.SpectralState.basis(rf.make_heat_spectrum(20), 20), 1.0)
    for state in (x, deep):
        text = json.dumps(serialize.state_to_dict(state))
        back = serialize.state_from_dict(json.loads(text))
        assert back == state  # array_equal on signs and log magnitudes


def test_state_dict_shape():
    d = serialize.state_to_dict(sample_state())
    assert d["spectrum"] == {"kind": "heat", "modes": 3}
    assert d["coeffs"]["encoding"] == "log"
    assert d["coeffs"]["values"][1] == [0, None]  # zero coefficient
    assert d["tail"] == {"variant": "exp_decay", "rate": 0.4, "coeff": 0.7}


def test_state_linear_encoding():
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.5, -2.0])
    d = serialize.state_to_dict(x, encoding="linear")
    assert d["coeffs"]["values"] == [1.5, -2.0]
    assert serialize.state_from_dict(d) == x


def test_linear_encoding_refuses_overflow():
    big = rf.backward_evolve(rf.SpectralState.basis(rf.make_heat_spectrum(16), 16), 1.0)
    with pytest.raises(ValueError, match="log"):
        serialize.state_to_dict(big, encoding="linear")


def test_custom_spectrum_roundtrip():
    sp = rf.Spectrum(np.array([-0.5, -1.25, -4.0]))
    x = rf.SpectralState.from_values(sp, [1.0, 2.0, 3.0])
    back = serialize.state_from_dict(serialize.state_to_dict(x))
    assert back == x
    assert back.spectrum.kind == "custom"


def test_extended_roundtrip():
    z = rf.ExtendedState(0.75, sample_state())
    back = serialize.extended_from_dict(serialize.extended_to_dict(z))
    assert back == z


def test_functional_roundtrip_and_may_grow_flag():
    F = rf.Functional.from_exp_law(rf.make_heat_spectrum(4), -0.2)
    d = serialize.functional_to_dict(F)
    assert d["tail"]["may_grow"] is True
    back = serialize.functional_from_dict(d)
    assert isinstance(back, rf.Functional)
    assert back == F
    assert "may_grow" not in serialize.state_to_dict(rf.functional_to_extended(F).rep)["tail"]


def test_classification_dict():
    c = rf.classify(rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0)))
    d = serialize.classification_to_dict(c)
    assert d["class"] == "Z"
    assert d["horizon"] == 0.0
    assert d["open"] is True
    assert isinstance(d["certificate"], str)
    full = rf.classify(rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1, 2]))
    assert serialize.classification_to_dict(full)["horizon"] == "inf"
    assert serialize.classification_to_dict(full)["class"] == "D"


def test_forcing_roundtrip():
    f = rf.Forcing.from_dict({
        1: rf.ConstantForcing(2.0),
        2: rf.ExponentialForcing(0.5, -1.0),
        3: rf.TableForcing(np.array([0.0, 1.0]), np.array([1.0, 3.0])),
    })
    back = serialize.forcing_from_dict(serialize.forcing_to_dict(f))
    assert back.get(1) == f.get(1)
    assert back.get(2) == f.get(2)
    assert back.get(3) == f.get(3)


def test_grid_roundtrip_and_resolution_check():
    g = rf.GridFunction(np.array([1.0, 0.0, -2.0]))
    back = serialize.grid_from_dict(serialize.grid_to_dict(g))
    assert back == g
    with pytest.raises(ValueError, match="resolution"):
        serialize.grid_from_dict({"resolution": 5, "values": [1.0, 2.0]})


def test_certificate_dict_carries_full_schedule():
    x0 = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 1.0])
    _, cert = rf.iterate_to_reversible(x0, 0.25, rf.truncation_preimage_oracle(), max_iters=4)
    d = serialize.certificate_to_dict(cert)
    assert len(d["epsilon_schedule"]) == 4
    assert len(d["step_bounds"]) == 4
    assert d["achieved_error_bound"] <= d["target_error"]
    assert d["regime"] == "linear"


def test_unknown_variants_rejected():
    with pytest.raises(ValueError):
        serialize.tail_from_dict({"variant": "cauchy"})
    with pytest.raises(ValueError):
        serialize.spectrum_from_dict({"kind": "banded"})
    with pytest.raises(ValueError):
        serialize.forcing_from_dict({"modes": [{"n": 1, "kind": "noise"}]})


def test_save_and_load_files(tmp_path):
    path = tmp_path / "state.json"
    x = sample_state()
    serialize.save_json(path, serialize.state_to_dict(x))
    assert serialize.state_from_dict(serialize.load_json(path)) == x
