"""Wire formats: bit-for-bit round trips and the documented shapes."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_a_state_on_a_public_heat_spectrum_roundtrips_bit_for_bit():
    # the wire keeps a heat spectrum as its size, which is all a heat spectrum is
    law = rf.make_heat_spectrum(5).eigenvalues.copy()
    x = rf.SpectralState.from_values(rf.Spectrum(law, "heat"), [1.5, 0.0, -2.25, 3e-200, 7.0],
                                     rf.PowerTail(1.5, 0.25))
    back = serialize.state_from_dict(json.loads(json.dumps(serialize.state_to_dict(x))))
    assert back == x and back.spectrum == x.spectrum
    assert back.signs.tobytes() == x.signs.tobytes()
    assert back.log_mags.tobytes() == x.log_mags.tobytes()
    assert x == rf.SpectralState.from_values(rf.make_heat_spectrum(5), x.coeff_values(), x.tail)


def test_state_dict_shape():
    d = serialize.state_to_dict(sample_state())
    assert d["spectrum"] == {"kind": "heat", "modes": 3}
    assert d["coeffs"]["encoding"] == "log"
    assert d["coeffs"]["values"][1] == [0, None]  # zero coefficient
    assert d["tail"] == {"variant": "exp_decay", "rate": 0.4, "coeff": 0.7}


def test_state_linear_encoding():
    # the linear encoding is read, never written
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.5, -2.0])
    d = {**serialize.state_to_dict(x), "coeffs": {"encoding": "linear", "values": [1.5, -2.0]}}
    assert serialize.state_from_dict(d) == x


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
    d = serialize.state_to_dict(F)
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
    d = asdict(cert)
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


GOOD_STATE = {
    "spectrum": {"kind": "heat", "modes": 2},
    "coeffs": {"encoding": "log", "values": [[1, 0.0], [-1, 0.5]]},
    "tail": {"variant": "zero"},
}


@pytest.mark.parametrize("doc, what", [
    ({**GOOD_STATE, "coeffs": {"encoding": "log", "values": 5}}, "state"),
    ([1, 2], "state"),
    ({**GOOD_STATE, "spectrum": 5}, "spectrum"),
    ({**GOOD_STATE, "spectrum": {"kind": "heat", "modes": None}}, "spectrum"),
    ({**GOOD_STATE, "tail": 3}, "tail"),
    ({**GOOD_STATE, "coeffs": {"encoding": "log", "values": [[1], [1, 0.5]]}}, "state"),
    ({"spectrum": {"kind": "heat", "modes": 2}}, "state"),
    # wrong types are refused, not coerced
    ({**GOOD_STATE, "coeffs": {"encoding": "log", "values": [[0.5, 0.0], [1, 0.5]]}}, "state"),
    ({**GOOD_STATE, "coeffs": {"encoding": "log", "values": [[True, 0.0], [1, 0.5]]}}, "state"),
    ({**GOOD_STATE, "coeffs": {"encoding": "log", "values": [[1, None], [1, 0.5]]}}, "state"),
    ({**GOOD_STATE, "coeffs": {"encoding": "log", "values": [[1, True], [1, 0.5]]}}, "state"),
    ({**GOOD_STATE, "coeffs": {"encoding": "linear", "values": [True, 1.0]}}, "state"),
    ({**GOOD_STATE, "coeffs": {"encoding": "linear", "values": ["1.5", 1.0]}}, "state"),
    ({**GOOD_STATE, "spectrum": {"kind": "heat", "modes": 2.7}}, "spectrum"),
    ({**GOOD_STATE, "spectrum": {"kind": "heat", "modes": True}}, "spectrum"),
    ({**GOOD_STATE, "tail": {"variant": "exp_decay", "rate": "0.5", "coeff": 1.0}}, "tail"),
    ({**GOOD_STATE, "tail": {"variant": "power_decay", "power": 2.0, "coeff": True}}, "tail"),
])
def test_malformed_state_is_a_value_error_naming_the_part(doc, what):
    with pytest.raises(ValueError, match=f"malformed {what}"):
        serialize.state_from_dict(doc)


def test_malformed_documents_of_every_decoder_are_value_errors():
    with pytest.raises(ValueError, match="malformed extended class"):
        serialize.extended_from_dict({"rep": GOOD_STATE})
    with pytest.raises(ValueError, match="malformed functional"):
        serialize.functional_from_dict(None)
    with pytest.raises(ValueError, match="malformed forcing"):
        serialize.forcing_from_dict({"modes": 7})
    with pytest.raises(ValueError, match="malformed grid function"):
        serialize.grid_from_dict({"values": [1.0], "resolution": None})
    with pytest.raises(ValueError, match="malformed forcing.*mode n"):
        serialize.forcing_from_dict({"modes": [{"n": 1.5, "kind": "const", "value": 1.0}]})
    with pytest.raises(ValueError, match="malformed forcing.*value"):
        serialize.forcing_from_dict({"modes": [{"n": 1, "kind": "const", "value": True}]})
    with pytest.raises(ValueError, match="malformed grid function.*resolution"):
        serialize.grid_from_dict({"values": [1.0], "resolution": True})
    with pytest.raises(ValueError, match="malformed extended class.*offset"):
        serialize.extended_from_dict({"offset": False, "rep": GOOD_STATE})
    # a malformed part keeps the name of the part
    with pytest.raises(ValueError, match="malformed tail"):
        serialize.extended_from_dict({"offset": 0.0, "rep": {**GOOD_STATE, "tail": 3}})


def test_linear_nan_coefficient_rejected():
    doc = {**GOOD_STATE, "coeffs": {"encoding": "linear", "values": [float("nan"), 1.0]}}
    with pytest.raises(ValueError, match="finite"):
        serialize.state_from_dict(doc)


# --- the round trip, as a property --------------------------------------------------

@st.composite
def tails(draw, may_grow=False):
    coeff = draw(st.floats(1e-3, 1e3))
    rates = st.floats(-5.0, 5.0) if may_grow else st.floats(1e-6, 10.0)
    return draw(st.sampled_from([
        rf.ZERO_TAIL, rf.ExpTail(draw(rates), coeff), rf.PowerTail(draw(st.floats(0.75, 50.0)), coeff)]))


@st.composite
def coefficients(draw, cls, tail):
    """A ``cls`` on a heat spectrum, or on a custom one where the tail is zero."""
    n = draw(st.integers(1, 12))
    spectrum = rf.make_heat_spectrum(n)
    if not tail.coeff and draw(st.booleans()):
        spectrum = rf.Spectrum(-np.cumsum(draw(st.lists(st.floats(0.5, 100.0), min_size=n,
                                                         max_size=n))))
    signs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    logs = draw(st.lists(st.floats(-700.0, 700.0), min_size=n, max_size=n))
    return cls(spectrum, np.array(signs), np.array(logs), tail)


@st.composite
def states(draw):
    """States as built, and unread: deepened, truncated, or flowed either way."""
    x = draw(coefficients(rf.SpectralState, draw(tails())))
    how = draw(st.sampled_from(["built", "embedded", "truncated", "forward", "backward"]))
    share = draw(st.floats(0.0, 0.9))
    if how == "embedded" and x.spectrum.kind == "heat":
        return rf.embed(x, x.num_modes + draw(st.integers(1, 50)))
    if how == "truncated":
        return rf.truncate_to_reversible(x, max(0.5 * rf.tail_norm(x), 1e-300))[0]
    if how == "forward":
        return rf.evolve(x, share)
    if how == "backward":
        return rf.backward_evolve(x, share * min(1.0, rf.horizon(x).value))
    return x


@st.composite
def forcings(draw):
    entries = {}
    for mode in draw(st.sets(st.integers(1, 8), max_size=4)):
        kind = draw(st.sampled_from(["const", "exp", "table"]))
        if kind == "const":
            entries[mode] = rf.ConstantForcing(draw(st.floats(-1e6, 1e6)))
        elif kind == "exp":
            entries[mode] = rf.ExponentialForcing(draw(st.floats(-1e6, 1e6)),
                                                  draw(st.floats(-50.0, 50.0)))
        else:
            gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=6))
            values = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(gaps), max_size=len(gaps)))
            entries[mode] = rf.TableForcing(np.cumsum(gaps) - gaps[0], np.array(values))
    return rf.Forcing.from_dict(entries)


WIRE = {
    rf.SpectralState: (serialize.state_to_dict, serialize.state_from_dict),
    rf.Functional: (serialize.state_to_dict, serialize.functional_from_dict),
    rf.ExtendedState: (serialize.extended_to_dict, serialize.extended_from_dict),
    rf.Forcing: (serialize.forcing_to_dict, serialize.forcing_from_dict),
}


def bits(obj):
    """Everything an object holds, its classes and every float as its bytes."""
    if isinstance(obj, rf.SpectralState):
        tail = obj.tail
        return (type(obj), obj.spectrum, obj.signs.tobytes(), obj.log_mags.tobytes(), type(tail),
                [float(v).hex() for v in (tail.coeff, tail.power, tail.rate)])
    if isinstance(obj, rf.ExtendedState):
        return obj.offset.hex(), bits(obj.rep)
    if isinstance(obj, rf.TableForcing):
        return obj.times.tobytes(), obj.values.tobytes()
    if isinstance(obj, rf.Forcing):
        return [(mode, type(f), bits(f)) for mode, f in obj.entries]
    return [float(v).hex() for v in vars(obj).values()]  # a closed-form forcing


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    states(),
    tails(may_grow=True).flatmap(lambda tail: coefficients(rf.Functional, tail)),
    st.builds(rf.ExtendedState, st.floats(0.0, 10.0), states()),
    forcings(),
))
def test_every_wire_document_reads_back_bit_for_bit(obj):
    write, read = WIRE[type(obj)]
    doc = json.loads(json.dumps(write(obj)))
    assert bits(read(doc)) == bits(obj)
    if isinstance(obj, rf.Functional):
        assert doc["tail"]["may_grow"] is True
