"""One law per tail: every rule that depends on a tail law reads its
``(coeff, power, rate)`` and gives the value the per-class rules gave."""

import ast
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import retroflow as rf
from retroflow.logdomain import LOG_ZERO, exp_or_inf, log_tail_sum
from retroflow.spectral import (_log_sup_power_vs_gauss, _tail_cross_log, combine_tails_add,
                                combine_tails_sub)

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


def constructor_check_lines():
    """The lines of ``SpectralState._check``, which guards a tail from outside."""
    tree = ast.parse((SRC / "spectral.py").read_text())
    state = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SpectralState")
    check = next(n for n in state.body if isinstance(n, ast.FunctionDef) and n.name == "_check")
    return range(check.lineno, check.end_lineno + 1)


# verification.py is the gate's independent oracle, and reads the classes on purpose
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "verification.py"))
def test_the_reach_rule_reads_the_law_not_the_tail_class(module):
    checks = tail_class_checks(SRC / module)
    if module == "spectral.py":
        assert len(checks) == 1 and checks[0] in constructor_check_lines()
    else:
        assert checks == []


# --- the class-based combination and flow rules, as the reference -----------------

def per_class_add(spectrum, a, b):
    """``combine_tails_add`` as it read the tail classes."""
    a = a if a.coeff else rf.ZERO_TAIL
    b = b if b.coeff else rf.ZERO_TAIL
    if isinstance(a, rf.ZeroTail):
        return b
    if isinstance(b, rf.ZeroTail):
        return a
    if isinstance(a, rf.ExpTail) and isinstance(b, rf.ExpTail):
        return rf.ExpTail(min(a.rate, b.rate), a.coeff + b.coeff)
    if isinstance(a, rf.PowerTail) and isinstance(b, rf.PowerTail):
        return rf.PowerTail(min(a.power, b.power), a.coeff + b.coeff)
    exp_t = a if isinstance(a, rf.ExpTail) else b
    pow_t = b if isinstance(a, rf.ExpTail) else a
    sup = _log_sup_power_vs_gauss(pow_t.power, exp_t.rate, spectrum.num_modes + 1)
    return rf.PowerTail(pow_t.power, pow_t.coeff + exp_t.coeff * exp_or_inf(sup))


def per_class_sub(spectrum, a, b):
    """``combine_tails_sub`` as it read the tail classes."""
    def normalized(tail):
        return tail if tail.coeff else rf.ZERO_TAIL

    a, b = normalized(a), normalized(b)
    if a == b:
        return rf.ZERO_TAIL
    if isinstance(a, rf.ExpTail) and isinstance(b, rf.ExpTail):
        gap, base = abs(a.rate - b.rate), min(a.rate, b.rate)
        if base <= 0.0:
            raise ValueError("cannot difference growing tails")
        if gap == 0.0:
            return rf.ExpTail(a.rate, abs(a.coeff - b.coeff))
        slack = max(a.coeff, b.coeff) * gap * 2.0 / (base * math.e) + abs(a.coeff - b.coeff)
        added = a.coeff + b.coeff
        if added * math.exp(0.5 * base * spectrum.eigenvalue(spectrum.num_modes + 1)) <= slack:
            return rf.ExpTail(base, added)
        return normalized(rf.ExpTail(base / 2.0, slack))
    if isinstance(a, rf.PowerTail) and isinstance(b, rf.PowerTail):
        gap, base = abs(a.power - b.power), min(a.power, b.power)
        if gap == 0.0:
            return normalized(rf.PowerTail(a.power, abs(a.coeff - b.coeff)))
        eps = (base - 0.5) / 2.0
        slack = max(a.coeff, b.coeff) * gap / (math.e * eps)
        return normalized(rf.PowerTail(base - eps, slack + abs(a.coeff - b.coeff)))
    return per_class_add(spectrum, a, b)


def per_class_flow_tail(spectrum, tail, t):
    """The tail of a forward flow by ``t`` as ``evolve`` read the tail classes."""
    if isinstance(tail, rf.ZeroTail):
        return tail
    if isinstance(tail, rf.ExpTail):
        return rf.ExpTail(tail.rate + t, tail.coeff)
    if t < 1e-6:
        first = spectrum.eigenvalue(spectrum.num_modes + 1)
        return rf.PowerTail(tail.power, tail.coeff * math.exp(first * t))
    return rf.ExpTail(t, tail.coeff * (spectrum.num_modes + 1) ** (-tail.power))


def law_bits(tail):
    return type(tail), [float(v).hex() for v in (tail.coeff, tail.power, tail.rate)]


SPECTRA = [rf.make_heat_spectrum(n) for n in (1, 4, 64)]


@pytest.mark.parametrize("a, b", itertools.product(TAILS, repeat=2))
def test_combining_two_laws_equals_the_per_class_rule(a, b):
    for spectrum in SPECTRA:
        for rule, reference in ((combine_tails_add, per_class_add),
                                (combine_tails_sub, per_class_sub)):
            try:
                want = reference(spectrum, a, b)
            except (ValueError, ZeroDivisionError) as err:  # a growing or flat law
                with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                    rule(spectrum, a, b)
            else:
                assert law_bits(rule(spectrum, a, b)) == law_bits(want)


@pytest.mark.parametrize("tail", [t for t in TAILS if t.rate > 0.0 or t.power])
def test_a_flowed_law_equals_the_per_class_rule(tail):
    for spectrum in SPECTRA:
        for t in (1e-9, 5e-7, 1e-6, 0.1, 3.0):
            got = rf.evolve(rf.SpectralState.zeros(spectrum, tail), t).tail
            assert law_bits(got) == law_bits(per_class_flow_tail(spectrum, tail, t))
