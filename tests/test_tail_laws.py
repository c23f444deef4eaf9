"""One law per tail: every rule that depends on a tail law reads its
``(coeff, power, rate)`` and gives the value the per-class rules gave."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import retroflow as rf
from retroflow.logdomain import LOG_ZERO, log_tail_sum
from retroflow.spectral import _tail_cross_log

SPECTRUM = rf.make_heat_spectrum(4)
LOGS = np.log([0.9, 0.5, 0.25, 0.125])
SIGNS = np.array([1, -1, 1, 1], dtype=np.int8)

# tail, horizon (None: refused), representable time, state accepted,
# functional_to_extended offset
LAWS = [
    (rf.ZeroTail(), math.inf, math.inf, True, 0.0),
    (rf.ExpTail(0.3, 2.0), 0.3, 0.3, True, 0.0),
    (rf.ExpTail(0.0, 2.0), 0.0, 0.0, False, 1.0),
    (rf.ExpTail(-0.1, 2.0), None, -0.1, False, 1.1),
    (rf.ExpTail(-2.0, 2.0), None, -2.0, False, 4.0),
    (rf.PowerTail(1.5, 2.0), 0.0, 0.0, True, 0.0),
]


@pytest.mark.parametrize("tail, reach, shift, accepted, offset", LAWS)
def test_each_law_gives_its_horizon_shift_acceptance_and_offset(
        tail, reach, shift, accepted, offset):
    functional = rf.Functional(SPECTRUM, SIGNS, LOGS, tail)
    if reach is None:
        with pytest.raises(ValueError, match="negative"):
            rf.horizon(functional)
    else:
        assert rf.horizon(functional) == rf.Horizon(reach)
    assert rf.representable_time(functional) == shift
    if accepted:
        assert rf.SpectralState(SPECTRUM, SIGNS, LOGS, tail).tail == tail
    else:
        with pytest.raises(ValueError, match="must decay"):
            rf.SpectralState(SPECTRUM, SIGNS, LOGS, tail)
    assert rf.functional_to_extended(functional).offset == offset


def per_class_cross_log(a, b, start):
    """The cross term as the rule read the tail classes before the laws
    carried ``(coeff, power, rate)``: the reference."""
    if isinstance(a, rf.ZeroTail) or isinstance(b, rf.ZeroTail):
        return LOG_ZERO
    rates = [t.rate for t in (a, b) if isinstance(t, rf.ExpTail)]
    rate = sum(rates)
    if rates and rate <= 0.0:
        raise ValueError("cross term of a growing tail has no finite value")
    power = sum(t.power for t in (a, b) if isinstance(t, rf.PowerTail))
    return math.log(a.coeff) + math.log(b.coeff) + log_tail_sum(power, rate * math.pi**2, start)


TAILS = [rf.ZeroTail(), rf.ExpTail(0.3, 2.0), rf.ExpTail(0.0, 1.5), rf.ExpTail(-0.1, 0.5),
         rf.ExpTail(0.2, 3.0), rf.PowerTail(0.6, 1.0), rf.PowerTail(1.5, 0.25)]


@pytest.mark.parametrize("a, b", itertools.product(TAILS, repeat=2))
def test_cross_term_of_every_pair_equals_the_per_class_rule(a, b):
    for start in (1, 5, 1000):
        try:
            expected = per_class_cross_log(a, b, start)
        except ValueError:
            with pytest.raises(ValueError, match="growing tail"):
                _tail_cross_log(a, b, start)
        else:
            assert _tail_cross_log(a, b, start) == expected


@pytest.mark.parametrize("a, b", [
    (rf.ExpTail(0.0, 1.0), rf.PowerTail(1.5, 1.0)),
    (rf.ExpTail(-0.1, 1.0), rf.ExpTail(0.1, 1.0)),
])
def test_a_cross_term_without_decay_raises(a, b):
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="growing tail"):
            _tail_cross_log(x, y, 5)


@pytest.mark.parametrize("a, b", [
    (rf.PowerTail(0.6, 1.0), rf.PowerTail(0.6, 1.0)),
    (rf.ExpTail(-0.1, 1.0), rf.ExpTail(0.2, 1.0)),
])
def test_a_cross_term_that_converges_is_finite(a, b):
    assert math.isfinite(_tail_cross_log(a, b, 5))


def test_backward_flow_is_the_forward_arithmetic_with_the_sign_flipped():
    spectrum = rf.make_heat_spectrum(40)
    rng = np.random.default_rng(7)
    logs = rng.uniform(-30.0, 5.0, 40)
    signs = rng.choice(np.array([-1, 0, 1], dtype=np.int8), 40)
    x = rf.SpectralState(spectrum, signs, logs, rf.ExpTail(0.75, 1.25))
    for t in (1e-9, 0.1, 0.3, 0.7499):
        back = rf.backward_evolve(x, t)
        np.testing.assert_array_equal(back.log_mags, x.log_mags - spectrum.eigenvalues * t)
        np.testing.assert_array_equal(back.signs, x.signs)
        assert back.tail == rf.ExpTail(0.75 - t, 1.25)


SRC = Path(rf.__file__).resolve().parent
TAIL_CLASSES = {"ZeroTail", "ExpTail", "PowerTail"}


def tail_class_checks(path):
    """Lines of ``isinstance`` calls whose class argument names a tail class."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
            if names & TAIL_CLASSES:
                lines.append(node.lineno)
    return lines


def test_the_guard_sees_a_tail_class_check(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("if isinstance(t, (spectral.ExpTail, int)):\n    pass\n")
    assert tail_class_checks(probe) == [1]


@pytest.mark.parametrize("module", ["reversibility.py", "duality.py", "density.py", "extended.py"])
def test_the_reach_rule_reads_the_law_not_the_tail_class(module):
    assert tail_class_checks(SRC / module) == []
