"""End-to-end CLI behaviour: verbs, formats, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retroflow as rf
from retroflow import inhomogeneous, serialize, verification
from retroflow.cli import main
from retroflow.inhomogeneous import mode_response

PI2 = math.pi**2


@pytest.fixture
def state_file(tmp_path):
    sp = rf.make_heat_spectrum(4)
    x = rf.SpectralState.from_values(sp, [1.0, -0.5, 0.25, 0.125])
    path = tmp_path / "state.json"
    serialize.save_json(path, serialize.state_to_dict(x))
    return path


@pytest.fixture
def power_state_file(tmp_path):
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0))
    path = tmp_path / "power.json"
    serialize.save_json(path, serialize.state_to_dict(x))
    return path


def test_classify_outputs_wire_format(power_state_file, capsys):
    assert main(["classify", "--in", str(power_state_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "Z"
    assert payload["horizon"] == 0.0
    assert payload["open"] is True


def test_horizon_verb(state_file, capsys):
    assert main(["horizon", "--in", str(state_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"value": "inf", "open": False}


def test_evolve_writes_output(state_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["evolve", "--in", str(state_file), "--t", "0.5", "--out", str(out)]) == 0
    state = serialize.state_from_dict(serialize.load_json(out))
    assert state.coeff(1).to_linear() == pytest.approx(math.exp(-PI2 / 2), rel=1e-12)


def test_backward_reports_amplification(state_file, tmp_path, capsys):
    out = tmp_path / "back.json"
    assert main(["backward", "--in", str(state_file), "--t", "1.0", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "amplification" in err
    state = serialize.state_from_dict(serialize.load_json(out))
    assert state.log_mags[3] == pytest.approx(math.log(0.125) + 16 * PI2, rel=1e-12)


def test_backward_past_horizon_exits_3(power_state_file, capsys):
    assert main(["backward", "--in", str(power_state_file), "--t", "0.1"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "HorizonExceededError"


def test_group_evolve_negative_time(tmp_path, capsys):
    z = rf.lift(rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0)))
    path = tmp_path / "class.json"
    serialize.save_json(path, serialize.extended_to_dict(z))
    assert main(["group-evolve", "--in", str(path), "--s", "-0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["offset"] == pytest.approx(0.5)


def test_pair_verb(tmp_path, capsys):
    sp = rf.make_heat_spectrum(3)
    x = rf.SpectralState.basis(sp, 1)
    z = rf.lift(rf.SpectralState.basis(sp, 1))
    xp, zp = tmp_path / "x.json", tmp_path / "z.json"
    serialize.save_json(xp, serialize.state_to_dict(x))
    serialize.save_json(zp, serialize.extended_to_dict(z))
    assert main(["pair", "--x", str(xp), "--z", str(zp)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pairing"] == pytest.approx(1.0)
    assert payload["sign"] == 1


def test_pair_requires_reversible_state(power_state_file, tmp_path, capsys):
    z = rf.lift(rf.SpectralState.basis(rf.make_heat_spectrum(2), 1))
    zp = tmp_path / "z.json"
    serialize.save_json(zp, serialize.extended_to_dict(z))
    assert main(["pair", "--x", str(power_state_file), "--z", str(zp)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NotFullyReversibleError"


def test_duhamel_verb(tmp_path, capsys):
    sp = rf.make_heat_spectrum(2)
    x0 = rf.SpectralState.zeros(sp)
    f = rf.Forcing.from_dict({1: rf.ConstantForcing(1.0)})
    xp, fp = tmp_path / "x.json", tmp_path / "f.json"
    serialize.save_json(xp, serialize.state_to_dict(x0))
    serialize.save_json(fp, serialize.forcing_to_dict(f))
    out = tmp_path / "out.json"
    code = main(["duhamel", "--in", str(xp), "--forcing", str(fp),
                 "--t", "1.0", "--steps", "64", "--out", str(out)])
    assert code == 0
    state = serialize.state_from_dict(serialize.load_json(out))
    assert state.coeff(1).to_linear() == pytest.approx(0.10131594298788986, rel=1e-8)


def _forced_files(tmp_path):
    """A 24-mode state driven by tables on modes 13 and 22, a constant on
    mode 1 and a table on mode 30, past the truncation."""
    rng = np.random.default_rng(8)
    x0 = rf.SpectralState.from_values(rf.make_heat_spectrum(24), rng.normal(size=24))
    times = np.arange(17) / 16
    f = rf.Forcing.from_dict({
        1: rf.ConstantForcing(0.5),
        13: rf.TableForcing(times, rng.uniform(-1.0, 1.0, 17)),
        22: rf.TableForcing(times, rng.uniform(-1.0, 1.0, 17)),
        30: rf.TableForcing(times, rng.uniform(-1.0, 1.0, 17)),
    })
    xp, fp = tmp_path / "x.json", tmp_path / "f.json"
    serialize.save_json(xp, serialize.state_to_dict(x0))
    serialize.save_json(fp, serialize.forcing_to_dict(f))
    return x0, f, xp, fp


def test_duhamel_verb_runs_each_table_quadrature_once(tmp_path, capsys, monkeypatch):
    x0, f, xp, fp = _forced_files(tmp_path)
    quad = rf.QuadratureConfig(steps=8, adaptive=True, tol=1e-10)
    moved = rf.duhamel_evolve(x0, f, 1.0, quad)
    # the worst estimate as a separate per-mode pass computes it
    worst = max([0.0] + [
        mode_response(float(x0.spectrum.eigenvalues[m - 1]), f.get(m), 1.0, quad)[1]
        for m in (1, 13, 22)])
    assert worst > 0.0
    calls, passes = [], []
    nested, kernel = inhomogeneous.simpson_integrate, inhomogeneous._level_sums
    monkeypatch.setattr(inhomogeneous, "simpson_integrate",
                        lambda *args: calls.append(args) or nested(*args))
    monkeypatch.setattr(inhomogeneous, "_level_sums", lambda *args: passes.append(args) or kernel(*args))
    argv = ["duhamel", "--in", str(xp), "--forcing", str(fp), "--t", "1.0",
            "--steps", "8", "--adaptive", "--quad-tol", "1e-10"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    # one kernel call holds both table modes in range, and each goes through
    # the rule once
    assert len(calls) == 2 and len(passes) == 1
    assert list(passes[0][0]) == x0.spectrum.eigenvalues[[12, 21]].tolist()
    assert out == json.dumps(serialize.state_to_dict(moved), indent=2) + "\n"
    assert err == f"worst quadrature error estimate: {worst:.3e}\n"
    want = tmp_path / "want.json"
    serialize.save_json(want, serialize.state_to_dict(moved))
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert (tmp_path / "out.json").read_bytes() == want.read_bytes()
    assert capsys.readouterr() == ("", err)
    assert len(calls) == 4 and len(passes) == 2


def test_duhamel_runs_at_the_step_ceiling(tmp_path, capsys):
    # the closed-form level sums cost O(table segments): the 2^20-step grid
    # and its adaptive refinement are as cheap as a coarse one
    _, _, xp, fp = _forced_files(tmp_path)
    assert main(["duhamel", "--in", str(xp), "--forcing", str(fp), "--t", "1.0",
                 "--steps", "1048576", "--adaptive"]) == 0
    assert capsys.readouterr().err.startswith("worst quadrature error estimate:")


def test_duhamel_refuses_more_steps_than_the_quadrature_allows(tmp_path, capsys):
    # 2**40 nodes would not fit in memory; the config refuses the count first
    _, _, xp, fp = _forced_files(tmp_path)
    assert main(["duhamel", "--in", str(xp), "--forcing", str(fp), "--t", "1.0",
                 "--steps", str(2**40)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: steps must be at most") and "Traceback" not in err


def test_duhamel_refuses_a_non_finite_table_sample(state_file, tmp_path, capsys):
    fp = tmp_path / "f.json"
    fp.write_text('{"modes": [{"n": 2, "kind": "table", "times": [0.0, 0.5, 1.0], '
                  '"values": [1.0, NaN, 1.0]}]}')
    assert main(["duhamel", "--in", str(state_file), "--forcing", str(fp), "--t", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err


def test_duhamel_refuses_a_forced_value_past_float_range(state_file, tmp_path, capsys):
    # e^{800} overflows; it was an OverflowError traceback with exit 1
    fp = tmp_path / "f.json"
    serialize.save_json(fp, serialize.forcing_to_dict(rf.Forcing.from_dict(
        {1: rf.ExponentialForcing(1.0, 800.0)})))
    assert main(["duhamel", "--in", str(state_file), "--forcing", str(fp), "--t", "1.0"]) == 2
    assert capsys.readouterr().err == "error: coefficient values must be finite\n"


def test_duhamel_refuses_an_infinite_time_before_the_quadrature(state_file, tmp_path, capsys):
    fp = tmp_path / "f.json"
    serialize.save_json(fp, serialize.forcing_to_dict(rf.Forcing.from_dict(
        {1: rf.TableForcing(np.array([0.0, 1.0]), np.array([1.0, 2.0]))})))
    assert main(["duhamel", "--in", str(state_file), "--forcing", str(fp), "--t", "inf"]) == 2
    assert capsys.readouterr().err == "error: t must be finite and nonnegative, got inf\n"


def test_a_spectrum_past_the_mode_budget_exits_2(tmp_path, capsys):
    # refused before 800 GB of eigenvalues are allocated
    path = tmp_path / "big.json"
    path.write_text('{"spectrum": {"kind": "heat", "modes": 100000000000}, '
                    '"coeffs": {"encoding": "log", "values": []}}')
    assert main(["classify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["shift-demo", "--resolution", "10000000000"],
                                  ["trajectory", "--t-min", "0", "--t-max", "1",
                                   "--steps", "1000000000"]], ids=["shift-demo", "trajectory"])
def test_a_size_past_the_step_budget_exits_2(argv, state_file, tmp_path, capsys):
    # refused before the grid or the time list is allocated
    if argv[0] == "trajectory":
        argv = argv + ["--in", str(state_file), "--out", str(tmp_path / "traj.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(inhomogeneous.MAX_STEPS) in err


def test_an_infinite_tail_power_exits_2(tmp_path, capsys):
    # once accepted, and evolved into a zero tail
    path = tmp_path / "inf.json"
    path.write_text('{"spectrum": {"kind": "heat", "modes": 2}, '
                    '"coeffs": {"encoding": "log", "values": []}, '
                    '"tail": {"variant": "power_decay", "power": Infinity, "coeff": 1.0}}')
    assert main(["evolve", "--in", str(path), "--t", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: power must be finite")


def test_density_verb(tmp_path, capsys):
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.5, 0.5))
    xp = tmp_path / "x.json"
    serialize.save_json(xp, serialize.state_to_dict(x))
    out = tmp_path / "out.json"
    assert main(["density", "--in", str(xp), "--eps", "0.1", "--out", str(out)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["achieved_error_bound"] <= 0.1
    result = serialize.state_from_dict(serialize.load_json(out))
    assert rf.classify(result).label is rf.ReversibilityClass.FULL


def test_density_certifies_deep_iterations(tmp_path, capsys):
    # 41 steps back: the iterates' logs reach 41 * 4 pi^2, whose roundoff
    # used to exceed the last step's budget
    xp = tmp_path / "x.json"
    serialize.save_json(xp, serialize.state_to_dict(
        rf.SpectralState.from_values(rf.make_heat_spectrum(2), [1.0, 2.0])))
    assert main(["density", "--in", str(xp), "--eps", "0.01", "--max-iters", "41"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["iterations"] == 41 and set(cert["step_gaps"][1:]) == {0.0}


def test_density_refuses_more_iterations_than_positive_budgets(tmp_path, capsys):
    # eps_k = 0.1 * 2**-(k+1) underflows to 0 after 1071 steps: refused up front
    zp = tmp_path / "z.json"
    zero = rf.SpectralState.zeros(rf.make_heat_spectrum(4))
    serialize.save_json(zp, serialize.state_to_dict(zero))
    assert main(["density", "--in", str(zp), "--eps", "0.1", "--max-iters", "2000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_iters 2000 passes step 1071,") and "eps must" not in err


def test_shift_demo(capsys):
    assert main(["shift-demo", "--resolution", "100", "--radius", "0.4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exclusion"]["found"] is True
    assert payload["exclusion"]["onset"] == pytest.approx(0.17)


def test_trajectory_csv(state_file, tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["trajectory", "--in", str(state_file), "--t-min", "-0.5",
                 "--t-max", "0.5", "--steps", "5", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["t", "offset", "norm", "log_norm"]
    assert len(rows) == 6
    times = [float(r[0]) for r in rows[1:]]
    assert times[0] == -0.5 and times[-1] == 0.5
    norms = [float(r[2]) for r in rows[1:]]
    assert all(b < a for a, b in zip(norms, norms[1:]))  # strictly decaying


def test_trajectory_extended_allows_negative_times(tmp_path):
    z = rf.lift(rf.SpectralState.zeros(rf.make_heat_spectrum(2), rf.PowerTail(1.0, 1.0)))
    zp = tmp_path / "z.json"
    serialize.save_json(zp, serialize.extended_to_dict(z))
    out = tmp_path / "traj.csv"
    code = main(["trajectory", "--in", str(zp), "--t-min", "-1", "--t-max", "1",
                 "--steps", "3", "--out", str(out), "--extended"])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][1]) == pytest.approx(1.0)  # offset column at t = -1


def test_trajectory_two_steps_are_exact_endpoints(state_file, tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["trajectory", "--in", str(state_file), "--t-min", "0.0",
                 "--t-max", "2.0", "--steps", "2", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert [float(r[0]) for r in rows[1:]] == [0.0, 2.0]


def test_trajectory_rejects_single_step(state_file, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--in", str(state_file), "--t-min", "0.0",
                 "--t-max", "1.0", "--steps", "1", "--out", str(out)]) == 2


def test_trajectory_past_horizon_exits_3(power_state_file, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["trajectory", "--in", str(power_state_file), "--t-min", "-1",
                 "--t-max", "0", "--steps", "3", "--out", str(out)])
    assert code == 3


def test_density_scan_cap_exits_3(tmp_path, capsys):
    # the tail norm of n**-0.6 past depth m falls like m**-0.1: the depth scan
    # for eps 0.01 passes its 50M-mode cap, a domain failure, not a crash
    x = rf.SpectralState.zeros(rf.make_heat_spectrum(32), rf.PowerTail(0.6, 1.0))
    xp = tmp_path / "x.json"
    serialize.save_json(xp, serialize.state_to_dict(x))
    assert main(["density", "--in", str(xp), "--eps", "0.01"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NotConvergedError"


def test_cli_import_loads_no_scipy():
    src = str(Path(rf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # scipy is not a dependency; mpmath, a test oracle, would cost every verb ~30 ms
    # and only the verify verb needs the verification suites
    probe = ("import sys, retroflow.cli; print('scipy' in sys.modules, 'mpmath' in sys.modules,"
             " 'retroflow.verification' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False False False"


@pytest.mark.parametrize("verb, code, stderr", [
    ("backward", 2, "error: the backward image at time 1e+306 overflows: nonzero coefficients "
                    "need finite log magnitudes\n"),
    ("evolve", 0, ""),
])
def test_a_step_near_float_range_prints_no_numpy_warning(tmp_path, verb, code, stderr):
    # lambda_n * t leaves float range from mode 5 on; the verbs run in a child
    # interpreter with numpy's default warning filters
    x = rf.SpectralState.from_values(rf.make_heat_spectrum(6), np.ones(6))
    xp, out = tmp_path / "ones.json", tmp_path / "out.json"
    serialize.save_json(xp, serialize.state_to_dict(x))
    src = str(Path(rf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "retroflow.cli", verb, "--in", str(xp),
                          "--t", "1e306", "--out", str(out)], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (code, stderr)
    if code == 0:
        damped = serialize.state_from_dict(serialize.load_json(out))
        assert damped.signs.tolist() == [1, 1, 1, 1, 0, 0]


def test_parse_failure_exits_2():
    assert main(["evolve", "--in", "missing.json"]) == 2  # --t absent


def test_missing_file_exits_2(capsys):
    assert main(["classify", "--in", "no-such-file.json"]) == 2


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--in", str(bad)]) == 2


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "classification"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_verify_respects_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("RETROFLOW_TOL", "1e-6")
    assert main(["verify", "--suite", "restriction"]) == 0


def test_csv_format_output(state_file, capsys):
    assert main(["horizon", "--in", str(state_file), "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split(",")[0] == "value"


@pytest.mark.parametrize("verb", ["evolve", "backward"])
def test_state_verbs_honour_format_with_out(verb, state_file, tmp_path, capsys):
    args = [verb, "--in", str(state_file), "--t", "0.5"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text() == printed
    table = tmp_path / "out.csv"
    assert main(args + ["--format", "csv", "--out", str(table)]) == 0
    with table.open() as fh:
        header, row = csv.reader(fh)
    assert header[:2] == ["spectrum.kind", "spectrum.modes"] and row[:2] == ["heat", "4"]


@pytest.mark.parametrize("suite, flag, value", [("shift", "--modes", "3"),
                                                ("restriction", "--tol", "1e-6")])
def test_verify_rejects_a_flag_the_suite_does_not_take(suite, flag, value, capsys):
    assert main(["verify", "--suite", suite, flag, value]) == 2
    assert flag in capsys.readouterr().err


_GOOD = {
    "spectrum": {"kind": "heat", "modes": 2},
    "coeffs": {"encoding": "log", "values": [[1, 0.0], [1, 0.5]]},
    "tail": {"variant": "zero"},
}


@pytest.mark.parametrize("doc", [
    {**_GOOD, "coeffs": {"encoding": "log", "values": 5}},
    [1, 2],
    {**_GOOD, "spectrum": 5},
    {**_GOOD, "spectrum": {"kind": "heat", "modes": None}},
    {**_GOOD, "tail": 3},
    {**_GOOD, "coeffs": {"encoding": "log", "values": [[1], [1, 0.5]]}},
    {**_GOOD, "coeffs": {"encoding": "linear", "values": [float("nan"), 1.0]}},
    {**_GOOD, "coeffs": {"encoding": "log", "values": [[0.5, 0.0], [1, 0.5]]}},
    {**_GOOD, "spectrum": {"kind": "heat", "modes": 2.7}},
    {**_GOOD, "coeffs": {"encoding": "linear", "values": [True, 1.0]}},
], ids=["values-5", "top-level-list", "spectrum-5", "modes-null", "tail-3",
        "entry-not-a-pair", "linear-nan", "sign-half", "modes-2.7", "linear-true"])
def test_malformed_state_file_exits_2(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_malformed_forcing_file_exits_2(state_file, tmp_path, capsys):
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps({"modes": 7}))
    assert main(["duhamel", "--in", str(state_file), "--forcing", str(fp), "--t", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("doc, part", [
    ({"modes": [{"n": 1.5, "kind": "const", "value": 1.0}]}, "mode n must be an integer"),
    ({"modes": [{"n": 1, "kind": "exp", "amplitude": 1.0, "rate": True}]}, "rate must be a number"),
])
def test_coerced_forcing_fields_exit_2(doc, part, state_file, tmp_path, capsys):
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps(doc))
    assert main(["duhamel", "--in", str(state_file), "--forcing", str(fp), "--t", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed forcing") and part in err


@pytest.mark.parametrize("doc, part", [
    ({**_GOOD, "coeffs": {"encoding": "log", "values": [[0.5, 0.0], [1, 0.5]]}}, "sign"),
    ({**_GOOD, "spectrum": {"kind": "heat", "modes": 2.7}}, "modes"),
    ({**_GOOD, "coeffs": {"encoding": "linear", "values": [True, 1.0]}}, "linear value"),
])
def test_coerced_state_fields_are_named(doc, part, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--in", str(path)]) == 2
    assert f"{part} must be" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_verify_rejects_a_tolerance_that_is_not_positive(tol, capsys):
    assert main(["verify", "--suite", "shift", "--tol", tol]) == 2
    assert "--tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["spectral", "all"])
@pytest.mark.parametrize("samples", ["-3", "0", str(verification.MAX_SAMPLES + 1), str(10**12)])
def test_verify_refuses_a_sample_count_out_of_range_before_any_suite_runs(suite, samples, capsys):
    # -3 ran no samples and printed "5/5 checks passed"; 10^12 had no limit
    assert main(["verify", "--suite", suite, "--samples", samples]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --samples must be between 1 and {verification.MAX_SAMPLES}, "
                   f"got {int(samples)}\n")


def test_pair_reads_each_file_once(tmp_path, capsys, monkeypatch):
    sp = rf.make_heat_spectrum(3)
    x = rf.SpectralState.from_values(sp, [1.0, -0.5, 0.25])
    z = rf.ExtendedState(0.4, rf.SpectralState.from_values(sp, [0.5, 1.0, -2.0], rf.ExpTail(0.1, 1.0)))
    xp, zp = tmp_path / "x.json", tmp_path / "z.json"
    serialize.save_json(xp, serialize.state_to_dict(x))
    serialize.save_json(zp, serialize.extended_to_dict(z))
    reads = []
    load_json = serialize.load_json
    monkeypatch.setattr(serialize, "load_json", lambda path: reads.append(path) or load_json(path))
    assert main(["pair", "--x", str(xp), "--z", str(zp)]) == 0
    assert len(reads) == 2
    value, zc = rf.log_pairing(x, z), rf.canonicalize(z)
    want = {"pairing": value.to_linear(), "sign": value.sign, "log_mag": value.log_mag,
            "offset": zc.offset}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def test_duhamel_refuses_a_table_whose_slope_overflows(state_file, tmp_path, capsys):
    # numpy's overflow warnings used to precede "coefficient values must be finite"
    fp = tmp_path / "f.json"
    fp.write_text('{"modes": [{"n": 1, "kind": "table", "times": [0, 1e-300, 1], '
                  '"values": [0, 1e300, 0]}]}')
    assert main(["duhamel", "--in", str(state_file), "--forcing", str(fp), "--t", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: table slope from (0.0, 0.0) to (1e-300, 1e+300) overflows\n"
