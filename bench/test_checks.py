"""The benchmark's checks accept the program's outputs and reject perturbed ones.

Run from the repository root with ``python3 -m pytest bench``.
"""

import dataclasses
import json

import numpy as np
import pytest

import api_mix
import cli_verbs
import deep_certify
import retroflow as rf
import run
import tracing
from common import CheckError, distance_to_power_law


def nudged(state, index: int, delta: float):
    """``state`` with one coefficient's log magnitude moved by ``delta``."""
    logs = np.array(state.log_mags)
    logs[index] += delta
    return dataclasses.replace(state, log_mags=logs)


# ---------------------------------------------------------------------------
# api-mix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def api():
    workload = api_mix.Workload(seed=1)
    return workload, workload.run(0)


def rejects(workload, out: dict, **changes):
    with pytest.raises(CheckError):
        workload.check(0, dict(out, **changes))


def test_api_mix_accepts_the_program(api):
    workload, out = api
    workload.check(0, out)


def test_api_mix_rejects_a_coefficient_off_by_1e6(api):
    workload, out = api
    fz, fe, fp = out["fwd"]
    rejects(workload, out, fwd=[fz, nudged(fe, 7, 1e-6), fp])


def test_api_mix_rejects_a_round_trip_off_by_1e8(api):
    workload, out = api
    rz, re = out["roundtrip"]
    rejects(workload, out, roundtrip=[nudged(rz, 0, 1e-8), re])


def test_api_mix_rejects_a_wrong_class(api):
    workload, out = api
    cz, ce, cp = out["classes"]
    rejects(workload, out, classes=[cz, cp, cp])


def test_api_mix_rejects_a_log_norm_off_by_1e9(api):
    workload, out = api
    norms = list(out["log_norms"])
    norms[2] += 1e-9
    rejects(workload, out, log_norms=norms)


def test_api_mix_rejects_a_perturbed_inner_product(api):
    workload, out = api
    ips = list(out["ips"])
    ips[2] = dataclasses.replace(ips[2], log_mag=ips[2].log_mag + 1e-6)
    rejects(workload, out, ips=ips)


def test_api_mix_rejects_a_wrong_generator_tail(api):
    workload, out = api
    gz, ge, gp = out["gen"]
    wrong = dataclasses.replace(gp, tail=rf.PowerTail(gp.tail.power + 0.1, gp.tail.coeff))
    rejects(workload, out, gen=[gz, ge, wrong])


def test_api_mix_rejects_a_perturbed_pairing(api):
    workload, out = api
    pairing = out["pairing"]
    rejects(workload, out, pairing=dataclasses.replace(pairing, log_mag=pairing.log_mag + 1e-6))


def test_api_mix_rejects_a_backward_step_past_the_horizon(api):
    workload, out = api
    rejects(workload, out, refused=[True, False])


def test_api_mix_rejects_a_perturbed_forced_mode(api):
    workload, out = api
    m_const = workload.inputs[0].forcing.modes[0]
    rejects(workload, out, forced=nudged(out["forced"], m_const - 1, 1e-6))


# ---------------------------------------------------------------------------
# deep-certify
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deep():
    workload = deep_certify.Workload(seed=1)
    return workload, workload.run(0)


def test_deep_certify_accepts_the_program(deep):
    workload, out = deep
    workload.check(0, out)


def test_deep_certify_rejects_a_certificate_below_the_dropped_tail(deep):
    workload, out = deep
    state, cert = out["truncated"]
    low = dataclasses.replace(cert, achieved_error_bound=cert.achieved_error_bound * 0.99)
    rejects(workload, out, truncated=(state, low))


def test_deep_certify_rejects_a_truncation_one_mode_short(deep):
    workload, out = deep
    state, cert = out["truncated"]
    short = rf.SpectralState(rf.make_heat_spectrum(state.num_modes - 1), state.signs[:-1],
                             state.log_mags[:-1])
    rejects(workload, out, truncated=(short, cert))


def test_deep_certify_rejects_a_written_out_mode_off_by_1e6(deep):
    workload, out = deep
    state, cert = out["truncated"]
    rejects(workload, out, truncated=(nudged(state, state.num_modes // 2, 1e-6), cert))


def test_deep_certify_rejects_a_certificate_below_the_true_error(deep):
    workload, out = deep
    state, cert = out["iterated"]
    true = deep_certify.true_distance(workload.inputs[0].iterate, state)
    low = dataclasses.replace(cert, achieved_error_bound=true / 2)
    rejects(workload, out, iterated=(state, low))


def test_deep_certify_rejects_an_iterate_that_keeps_a_tail(deep):
    workload, out = deep
    state, cert = out["iterated"]
    tailed = dataclasses.replace(state, tail=rf.PowerTail(2.0, 1e-30))
    rejects(workload, out, iterated=(tailed, cert))


def test_deep_certify_rejects_a_quadrature_result_off_by_1e6(deep):
    workload, out = deep
    mode = deep_certify.DRIVEN_MODES[0]
    rejects(workload, out, forced=nudged(out["forced"], mode - 1, 1e-6))


# ---------------------------------------------------------------------------
# cli-verbs (replayed in-process, as the traced run does)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    workload = cli_verbs.Workload(1, tmp_path_factory.mktemp("cli"), inprocess=True)
    return workload, {verb: workload.run(i) for i, verb in enumerate(cli_verbs.VERBS)}


def cli_rejects(workload, verb, out):
    with pytest.raises(CheckError):
        workload.check(cli_verbs.VERBS.index(verb), out)


def test_cli_verbs_accept_the_program(cli):
    workload, outs = cli
    for i, verb in enumerate(cli_verbs.VERBS):
        workload.check(i, outs[verb])


def test_cli_verbs_reject_a_nonzero_exit(cli):
    workload, outs = cli
    cli_rejects(workload, "horizon", dataclasses.replace(outs["horizon"], code=3))


def test_cli_verbs_reject_a_wrong_class(cli):
    workload, outs = cli
    d = json.loads(outs["classify"].stdout)
    d["class"] = "Dt"
    cli_rejects(workload, "classify", dataclasses.replace(outs["classify"], stdout=json.dumps(d)))


def test_cli_verbs_reject_an_evolved_coefficient_off_by_1e6(cli, tmp_path):
    workload, outs = cli
    d = json.loads(outs["evolve"].out_path.read_text())
    d["coeffs"]["values"][5][1] += 1e-6
    path = tmp_path / "evolve.out"
    path.write_text(json.dumps(d))
    cli_rejects(workload, "evolve", dataclasses.replace(outs["evolve"], out_path=path))


def test_cli_verbs_reject_a_pairing_off_by_1e6(cli):
    workload, outs = cli
    d = json.loads(outs["pair"].stdout)
    d["log_mag"] += 1e-6
    cli_rejects(workload, "pair", dataclasses.replace(outs["pair"], stdout=json.dumps(d)))


def test_cli_verbs_reject_a_certificate_below_the_true_error(cli):
    workload, outs = cli
    signs, logs, _ = cli_verbs._decode_state(json.loads(outs["density"].out_path.read_text()))
    fx = workload.fixtures
    cert = json.loads(outs["density"].stdout)
    cert["achieved_error_bound"] = distance_to_power_law(signs, logs, fx.p_signs, fx.p_logs,
                                                         fx.power, fx.p_coeff) / 2
    cli_rejects(workload, "density", dataclasses.replace(outs["density"], stdout=json.dumps(cert)))


def test_cli_verbs_reject_a_late_exclusion_onset(cli):
    workload, outs = cli
    d = json.loads(outs["shift-demo"].stdout)
    d["exclusion"]["onset"] += 1.0 / workload.fixtures.resolution
    cli_rejects(workload, "shift-demo", dataclasses.replace(outs["shift-demo"], stdout=json.dumps(d)))


def test_cli_verbs_reject_a_missing_trajectory_row(cli, tmp_path):
    workload, outs = cli
    lines = outs["trajectory"].out_path.read_text().splitlines()
    path = tmp_path / "trajectory.out"
    path.write_text("\n".join(lines[:-1]) + "\n")
    cli_rejects(workload, "trajectory", dataclasses.replace(outs["trajectory"], out_path=path))


def test_cli_verbs_reject_a_failed_verification(cli):
    workload, outs = cli
    failed = outs["verify"].stdout.replace("[PASS]", "[FAIL]", 1)
    cli_rejects(workload, "verify", dataclasses.replace(outs["verify"], stdout=failed))


# ---------------------------------------------------------------------------
# the timed phase
# ---------------------------------------------------------------------------

class ScriptedWorkload:
    """Returns the given outputs in turn; each op advances a fake clock by 1 s."""

    round_size = 2

    def __init__(self, outputs, clock):
        self.outputs, self.clock, self.checked = iter(outputs), clock, []

    def run(self, i):
        self.clock[0] += 1.0
        return next(self.outputs)

    def check(self, i, out):
        self.checked.append((i, out))
        if out == "bad":
            raise CheckError("bad output")

    digest = staticmethod(lambda out: out)


def test_phase_checks_each_first_output_and_compares_repeats_by_digest(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    workload = ScriptedWorkload(["a", "bad", "a", "b"], clock)
    phase = run.Phase(workload, seconds=3.0)  # two rounds of two ops
    assert workload.checked == [(0, "a"), (1, "bad")]
    assert phase.latencies == [1.0] * 4 and not phase.failures
    assert phase.errors == ["op 1: bad output", "1 ops did not reproduce their first output"]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_attributes_nested_calls_and_restores_the_program(api):
    workload, _ = api
    before = (rf.log_norm, rf.spectral.subtract, rf.SpectralState.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.run(0)
    finally:
        tracer.uninstall()
    assert (rf.log_norm, rf.spectral.subtract, rf.SpectralState.__init__) == before
    per_op = tracer.per_op(1)
    # relative_gap reaches subtract and log_norm through spectral's own globals
    assert per_op["spectral.relative_gap.calls"] == 2
    assert per_op["spectral.subtract.calls"] >= 2
    assert per_op["spectral.log_norm.power.calls"] == 1
    assert all(per_op[f"{name}.self_ms"] >= 0.0 for name in tracing.span_names())


def test_importtime_split_counts_each_dependency_once_from_outside():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |     scipy._lib",
        "import time:        40 |         45 |   scipy.special",
        "import time:        50 |        125 | retroflow",
        "import time:         7 |          7 | retroflow.cli",
    ])
    entries = tracing._parse_importtime(stderr)
    assert tracing._rooted_cumulative(entries, "retroflow") == 132
    assert tracing._rooted_cumulative(entries, "scipy") == 45
    assert tracing._rooted_cumulative(entries, "numpy") == 30
