"""One home for how a state is built: only ``spectral.py`` makes a state
without its constructor, and a heat spectrum is one thing, its law.  One
home for that law too: only ``spectral.py`` reads ``pi`` for it.  One home
for argument checks and budgets: only ``errors.py`` imports ``numbers`` or
sets a budget.  And no hidden knobs: no module reads the environment, so a
call's arguments and a verb's flags are all that set its behaviour."""

import ast
from pathlib import Path

import pytest

import retroflow as rf
from retroflow.spectral import Spectrum

SRC = Path(rf.__file__).resolve().parent


def raw_builds(path):
    """Lines that call ``object.__new__`` or reach an object's ``__dict__``,
    directly or through ``vars``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "__new__"
              and isinstance(node.value, ast.Name) and node.value.id == "object"):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_a_raw_build(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("s = object.__new__(SpectralState)\ns.__dict__.update(tail=t)\nvars(s)\n")
    assert raw_builds(probe) == [1, 2, 3]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "spectral.py"))
def test_only_the_spectral_module_builds_a_state_by_hand(module):
    assert raw_builds(SRC / module) == []


def pi_reads(path):
    """Lines that read a ``pi`` attribute (``math.pi``, ``np.pi``) or import ``pi``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr == "pi"
                  or isinstance(node, ast.ImportFrom) and any(a.name == "pi" for a in node.names))


def test_the_guard_sees_a_pi_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = n * math.pi\nfrom numpy import pi\ny = np.pi ** 2\n")
    assert pi_reads(probe) == [1, 2, 3]


# logdomain's erfc and Gamma constants and verification's independent oracles
# carry pi of their own; the heat law is spectral's alone
PI_READERS = {"spectral.py", "logdomain.py", "verification.py"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name not in PI_READERS))
def test_only_the_spectral_module_knows_the_heat_law(module):
    assert pi_reads(SRC / module) == []


def environment_reads(path):
    """Lines that read ``os.environ`` or ``os.getenv``, or import either."""
    names = ("environ", "getenv")
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in names
                  or isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names))


def test_the_guard_sees_an_environment_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("tol = os.environ.get('TOL')\nfrom os import getenv\nseed = os.getenv('SEED')\n")
    assert environment_reads(probe) == [1, 2, 3]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_reads_the_environment(module):
    assert environment_reads(SRC / module) == []


BUDGETS = ("MAX_MODES", "MAX_STEPS", "MAX_SAMPLES")


def own_checks(path):
    """Lines that import ``numbers`` or assign a budget."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(n, ast.Name) and n.id in BUDGETS
                   for target in targets for n in ast.walk(target)):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_a_check_of_its_own(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numbers\nfrom numbers import Real\nMAX_STEPS = 1 << 20\n"
                     "MAX_MODES: int = 5\nMAX_SAMPLES, k = 9, 1\nfrom .errors import MAX_MODES\n")
    assert own_checks(probe) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "errors.py"))
def test_only_the_errors_module_checks_a_scalar_or_sets_a_budget(module):
    assert own_checks(SRC / module) == []


def test_a_heat_spectrum_has_no_second_kind():
    public = Spectrum(rf.make_heat_spectrum(6).eigenvalues.copy(), "heat")
    for spectrum in (Spectrum, rf.make_heat_spectrum(6), rf.make_heat_spectrum(2).extended(6), public):
        assert not hasattr(spectrum, "_law")
    assert public == rf.make_heat_spectrum(6)
