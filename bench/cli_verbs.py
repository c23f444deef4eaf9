"""``cli-verbs``: one fresh ``python -m retroflow.cli`` process per op, cycling
over every verb in a fixed order.

Fixture files are written at set-up straight from the generated numbers (not
through the program's serializer); every state fixture is log-encoded with
``MODES`` modes.  Interpreter start-up and ``import retroflow`` dominate each
op, so this is where import and dependency work shows.  The traced run
replays the same argv lists in-process through ``retroflow.cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    ForcedModes,
    check_coefficients,
    child_env,
    close,
    distance_to_power_law,
    heat_eigenvalues,
    linear_values,
    mp_power_tail_norm,
    mpmath,
    require,
    rng_for,
)

NAME = "cli-verbs"
MODES = 1024
VERBS = ("classify", "horizon", "evolve", "backward", "group-evolve", "pair", "duhamel",
         "density", "shift-demo", "trajectory", "verify")
VERIFY_SUITE = "classification"
TRAJECTORY_LEAD = 8  # coefficient columns the trajectory CSV carries


@dataclass
class Output:
    code: int
    stdout: str
    out_path: Path | None
    max_rss_kb: int = 0


def _log_state(signs, logs, tail: dict) -> dict:
    values = [[int(s), None if s == 0 else float(l)] for s, l in zip(signs, logs)]
    return {"spectrum": {"kind": "heat", "modes": len(values)},
            "coeffs": {"encoding": "log", "values": values}, "tail": tail}


class Fixtures:
    """The generated numbers behind every fixture file, and the argv of each verb."""

    def __init__(self, seed: int, workdir: Path):
        rng = rng_for(seed, 3)
        self.dir = workdir
        lam = heat_eigenvalues(MODES)
        n = np.arange(1, MODES + 1, dtype=float)

        def signs():
            return rng.choice(np.array([-1, 1], dtype=np.int8), size=MODES)

        def noise():
            return np.log(rng.uniform(0.5, 1.5, MODES))

        self.rate, self.e_coeff = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 2.0))
        self.e_signs, self.e_logs = signs(), math.log(self.e_coeff) + self.rate * lam + noise()
        self.power, self.p_coeff = float(rng.uniform(1.8, 2.2)), float(rng.uniform(0.5, 2.0))
        self.p_signs, self.p_logs = signs(), math.log(self.p_coeff) - self.power * np.log(n) + noise()
        # density: eps0 / 4 puts the oracle's first truncation near this depth
        self.density_eps = 4.0 * float(
            mp_power_tail_norm(self.power, self.p_coeff, int(rng.integers(1200, 2501)) + 1))
        self.t_fwd = float(rng.uniform(0.01, 0.1))
        self.t_back = self.rate * float(rng.uniform(0.2, 0.8))
        # extended class: offset, representative on the exp-tail fixture
        self.offset = float(rng.uniform(0.2, 0.5))
        self.s = self.offset + float(rng.uniform(0.05, 0.2))  # past the offset
        # functional b_n = coeff exp(rate lambda_n), realized at offset o
        self.f_rate, self.f_coeff = float(rng.uniform(-1.0, -0.1)), float(rng.uniform(0.5, 2.0))
        self.f_offset = -self.f_rate + max(1.0, -self.f_rate)
        self.basis_mode = int(rng.integers(1, 33))
        self.forcing = ForcedModes.draw(rng)
        self.resolution = int(rng.integers(400, 2001))
        self.radius = float(rng.uniform(0.2, 0.6))
        self.traj_back = self.rate * float(rng.uniform(0.2, 0.8))
        self.traj_fwd = float(rng.uniform(0.05, 0.5))
        self.traj_steps = int(rng.integers(16, 65))

    def path(self, name: str) -> Path:
        return self.dir / name

    def write(self):
        lam = heat_eigenvalues(MODES)
        exp_tail = {"variant": "exp_decay", "rate": self.rate, "coeff": self.e_coeff}
        basis_signs = np.zeros(MODES, dtype=np.int8)
        basis_signs[self.basis_mode - 1] = 1
        f_logs = math.log(self.f_coeff) + (self.f_rate + self.f_offset) * lam
        f = self.forcing
        m_const, m_exp, m_table = f.modes
        files = {
            "exp.json": _log_state(self.e_signs, self.e_logs, exp_tail),
            "power.json": _log_state(self.p_signs, self.p_logs, {
                "variant": "power_decay", "power": self.power, "coeff": self.p_coeff}),
            "basis.json": _log_state(basis_signs, np.zeros(MODES), {"variant": "zero"}),
            "class.json": {"offset": self.offset, "rep": _log_state(self.e_signs, self.e_logs,
                                                                    exp_tail)},
            "functional.json": {"offset": self.f_offset, "rep": _log_state(
                np.ones(MODES, dtype=np.int8), f_logs, {
                    "variant": "exp_decay", "rate": self.f_rate + self.f_offset,
                    "coeff": self.f_coeff})},
            "forcing.json": {"modes": [
                {"n": m_const, "kind": "const", "value": f.const_value},
                {"n": m_exp, "kind": "exp", "amplitude": f.exp_amp, "rate": f.exp_rate},
                {"n": m_table, "kind": "table", "times": f.table_times.tolist(),
                 "values": f.table_values.tolist()},
            ]},
        }
        for name, payload in files.items():
            self.path(name).write_text(json.dumps(payload, indent=2) + "\n")

    def argv(self, verb: str) -> tuple[list, Path | None]:
        p = self.path
        out = p(f"{verb}.out")
        table = {
            "classify": (["classify", "--in", p("power.json")], None),
            "horizon": (["horizon", "--in", p("exp.json")], None),
            "evolve": (["evolve", "--in", p("exp.json"), "--t", self.t_fwd, "--out", out], out),
            "backward": (["backward", "--in", p("exp.json"), "--t", self.t_back], None),
            "group-evolve": (["group-evolve", "--in", p("class.json"), "--s", self.s], None),
            "pair": (["pair", "--x", p("basis.json"), "--z", p("functional.json")], None),
            "duhamel": (["duhamel", "--in", p("exp.json"), "--forcing", p("forcing.json"),
                         "--t", self.forcing.t, "--out", out], out),
            "density": (["density", "--in", p("power.json"), "--eps", self.density_eps,
                         "--out", out], out),
            "shift-demo": (["shift-demo", "--resolution", self.resolution,
                            "--radius", self.radius], None),
            "trajectory": (["trajectory", "--in", p("exp.json"), "--out", out,
                            "--t-min", -self.traj_back, "--t-max", self.traj_fwd,
                            "--steps", self.traj_steps], out),
            "verify": (["verify", "--suite", VERIFY_SUITE], None),
        }
        args, out_path = table[verb]
        return [repr(a) if isinstance(a, float) else str(a) for a in args], out_path


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _decode_state(d: dict):
    require(d["coeffs"]["encoding"] == "log", "state output is not log-encoded")
    pairs = d["coeffs"]["values"]
    signs = np.array([p[0] for p in pairs], dtype=np.int8)
    logs = np.array([-math.inf if p[0] == 0 else p[1] for p in pairs], dtype=float)
    return signs, logs, d["tail"]


def _check_tail(got: dict, tail: dict, what: str):
    require(got["variant"] == tail["variant"], f"{what}: tail variant {got['variant']}")
    for key, value in tail.items():
        if key != "variant":
            close(got[key], value, 1e-12, f"{what}: tail {key}")


def _check_state(d: dict, signs, logs, tail: dict, what: str):
    got_signs, got_logs, got_tail = _decode_state(d)
    check_coefficients(got_signs, got_logs, signs, logs, 1e-12, what)
    _check_tail(got_tail, tail, what)


def check(fx: Fixtures, verb: str, out: Output):
    require(out.code == 0, f"{verb}: exit code {out.code}")
    lam = heat_eigenvalues(MODES)
    exp_tail = {"variant": "exp_decay", "rate": fx.rate, "coeff": fx.e_coeff}
    if verb in ("evolve", "duhamel", "density", "trajectory"):
        require(out.out_path is not None and out.out_path.is_file(), f"{verb}: no output file")
    if verb == "classify":
        d = json.loads(out.stdout)
        require((d["class"], d["horizon"], d["open"]) == ("Z", 0.0, True),
                f"classify: {d['class']} / {d['horizon']} for a power tail")
    elif verb == "horizon":
        d = json.loads(out.stdout)
        require(d["value"] == fx.rate and d["open"] is True, f"horizon: {d}")
    elif verb == "evolve":
        d = json.loads(out.out_path.read_text())
        _check_state(d, fx.e_signs, fx.e_logs + lam * fx.t_fwd,
                     dict(exp_tail, rate=fx.rate + fx.t_fwd), "evolve")
    elif verb == "backward":
        _check_state(json.loads(out.stdout), fx.e_signs, fx.e_logs - lam * fx.t_back,
                     dict(exp_tail, rate=fx.rate - fx.t_back), "backward")
    elif verb == "group-evolve":
        d = json.loads(out.stdout)
        step = fx.s - fx.offset
        require(d["offset"] == 0.0, f"group-evolve: offset {d['offset']} after passing it")
        _check_state(d["rep"], fx.e_signs, fx.e_logs + lam * step,
                     dict(exp_tail, rate=fx.rate + step), "group-evolve")
    elif verb == "pair":
        d = json.loads(out.stdout)
        ref = math.log(fx.f_coeff) + fx.f_rate * lam[fx.basis_mode - 1]
        require(d["sign"] == 1, "pair: sign")
        require(abs(d["log_mag"] - ref) <= 1e-9,
                f"pair: log magnitude {d['log_mag']!r}, closed form {ref!r} (relative 1e-9)")
    elif verb == "duhamel":
        check_duhamel(fx, json.loads(out.out_path.read_text()))
    elif verb == "density":
        cert = json.loads(out.stdout)
        signs, logs, tail = _decode_state(json.loads(out.out_path.read_text()))
        require(tail["variant"] == "zero", "density: output keeps a tail")
        bound = cert["achieved_error_bound"]
        require(bound <= fx.density_eps * (1 + 1e-9), "density: certificate exceeds eps")
        dist = distance_to_power_law(signs, logs, fx.p_signs, fx.p_logs, fx.power, fx.p_coeff)
        require(dist <= bound, f"density: true distance {dist:.6g} exceeds the certificate {bound:.6g}")
    elif verb == "shift-demo":
        check_shift(fx, json.loads(out.stdout))
    elif verb == "trajectory":
        check_trajectory(fx, out.out_path)
    elif verb == "verify":
        lines = out.stdout.strip().splitlines()
        require(lines and all(l.startswith("[PASS]") for l in lines[:-1]), "verify: a check failed")
        done, total = lines[-1].split()[0].split("/")
        require(done == total and int(total) == len(lines) - 1, f"verify: {lines[-1]}")


def check_duhamel(fx: Fixtures, d: dict):
    lam = heat_eigenvalues(MODES)
    f = fx.forcing
    signs, logs, tail = _decode_state(d)
    _check_tail(tail, {"variant": "exp_decay", "rate": fx.rate + f.t, "coeff": fx.e_coeff},
                "duhamel")
    unforced = np.ones(MODES, dtype=bool)
    unforced[[m - 1 for m in f.modes]] = False
    check_coefficients(signs, logs, fx.e_signs, fx.e_logs + lam * f.t, 1e-12,
                       "duhamel: unforced modes", unforced)
    mp = mpmath()
    f.check(linear_values(signs, logs), lambda m: int(fx.e_signs[m - 1]) * mp.exp(
        mp.mpf(float(fx.e_logs[m - 1])) + lam[m - 1] * f.t))


def check_shift(fx: Fixtures, d: dict):
    res = fx.resolution
    require(d["resolution"] == res, "shift-demo: resolution")
    for key, dist in d["distances"].items():
        t = float(key)
        k = round(t * res)
        close(dist, math.sqrt(k / res), 1e-12, f"shift-demo: distance at t = {key}")
    onset = next(k for k in range(1, res) if math.sqrt(k / res) > fx.radius)
    ex = d["exclusion"]
    require(ex["found"] is True, "shift-demo: no exclusion onset found")
    close(ex["onset"], onset / res, 1e-15, "shift-demo: onset")
    close(ex["distance_at_onset"], math.sqrt(onset / res), 1e-12, "shift-demo: distance at onset")


def check_trajectory(fx: Fixtures, path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    lead = range(1, TRAJECTORY_LEAD + 1)
    header = (["t", "offset", "norm", "log_norm"] + [f"a{k}" for k in lead]
              + [f"a{k}_sign" for k in lead] + [f"a{k}_log" for k in lead])
    require(rows and rows[0] == header, "trajectory: header")
    require(len(rows) - 1 == fx.traj_steps, f"trajectory: {len(rows) - 1} rows, "
                                            f"expected {fx.traj_steps}")
    lam = heat_eigenvalues(TRAJECTORY_LEAD)
    for row in rows[1:]:
        t = float(row[0])
        require(float(row[1]) == 0.0, "trajectory: an ambient trajectory has offset 0")
        signs = np.array([int(v) for v in row[-2 * TRAJECTORY_LEAD:-TRAJECTORY_LEAD]])
        logs = np.array([float(v) for v in row[-TRAJECTORY_LEAD:]])
        check_coefficients(signs, logs, fx.e_signs[:TRAJECTORY_LEAD],
                           fx.e_logs[:TRAJECTORY_LEAD] + lam * t, 1e-12, f"trajectory at t = {t}")


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

class Workload:
    name = NAME
    round_size = len(VERBS)

    def __init__(self, seed: int, workdir: Path, inprocess: bool = False):
        self.fixtures = Fixtures(seed, workdir)
        self.fixtures.write()
        self.inprocess = inprocess
        self.env = child_env()
        if inprocess:
            # looked up at each call, so a tracer installed later sees it
            from retroflow import cli
            self._cli = cli

    def run(self, i: int) -> Output:
        argv, out_path = self.fixtures.argv(VERBS[i])
        if out_path is not None and out_path.exists():
            out_path.unlink()
        if self.inprocess:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self._cli.main(argv)
            return Output(code, stdout.getvalue(), out_path)
        return self._spawn(argv, out_path)

    def _spawn(self, argv, out_path) -> Output:
        stdout_path = self.fixtures.path("stdout.txt")
        with open(stdout_path, "w") as out, open(self.fixtures.path("stderr.txt"), "w") as err:
            proc = subprocess.Popen([sys.executable, "-m", "retroflow.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.fixtures.dir, env=self.env)
        # wait4 reports this child's own peak RSS; Popen.wait would discard it
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Output(proc.returncode, stdout_path.read_text(), out_path, usage.ru_maxrss)

    def check(self, i: int, out: Output):
        check(self.fixtures, VERBS[i], out)

    @staticmethod
    def digest(out: Output):
        """Exit code, standard output and the output file's bytes; the next
        round rewrites the file, so its digest is taken before then."""
        data = None
        if out.out_path is not None and out.out_path.is_file():
            data = hashlib.sha1(out.out_path.read_bytes()).hexdigest()
        return out.code, out.stdout, data
