"""The narrative demos and the README quickstart run against the current API."""

import math
import re
import runpy
from pathlib import Path

import pytest

import retroflow as rf
from retroflow.spectral import log_distance

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs_and_its_certificate_holds():
    readme = (ROOT / "README.md").read_text()
    quickstart = readme.split("## Quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", quickstart, re.S).group(1)
    ns = {}
    exec(compile(code, "README.md quickstart", "exec"), ns)
    # the first truncation writes out 1.6e5 modes; their backward logs near
    # 2.5e11 round by about 3e-5 relative, which once failed the oracle check
    true_error = math.exp(log_distance(ns["out"], ns["z"]))
    assert true_error <= ns["cert"].achieved_error_bound <= 0.01
    assert rf.classify(ns["out"]).label is rf.ReversibilityClass.FULL
