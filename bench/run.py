"""Benchmark of retroflow, end to end and layer by layer.

Run from the repository root (the program is imported from ``src``, not
installed):

    python3 bench/run.py --workload api-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload cli-verbs --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --quick            # every workload once, with its checks
    python3 bench/run.py --compare base.jsonl new.jsonl

A run repeats whole rounds of the workload's generated ops until ``--seconds``
have passed, checking each op's first output, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
spans and counters (see README.md).  ``--out FILE`` also appends the result,
tagged with workload and seed, to a JSON-lines file for ``--compare``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from common import (BENCH_DIR, REPO_ROOT, SCRATCH_DIR, CheckError, child_env, percentile,
                    use_source_tree)

WORKLOADS = {"api-mix": "api_mix", "deep-certify": "deep_certify", "cli-verbs": "cli_verbs"}
SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
E2E_UNITS = {"setup_s": "s", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def build(name: str, seed: int, workdir: Path, inprocess: bool = False):
    mod = importlib.import_module(WORKLOADS[name])
    if name == "cli-verbs":
        return mod.Workload(seed, workdir, inprocess=inprocess)
    return mod.Workload(seed)


class Phase:
    """Rounds of ops until ``seconds`` have passed (at least one round).

    The first output of each op is checked as soon as the op returns, and only
    its digest is kept; every later run of the op must reproduce that digest
    bit for bit.  Per-op latency covers the op alone, not this bookkeeping.
    With a ``tracer``, every second round runs traced and its latencies go to
    ``traced_latencies``, so both halves see the same machine conditions."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.latencies, self.traced_latencies, self.failures, self.errors = [], [], [], []
        self.max_child_rss_kb = 0
        digests, mismatches = {}, 0
        start = perf_counter()
        rounds = 0
        while rounds == 0 or perf_counter() - start < seconds:
            traced = tracer is not None and rounds % 2 == 1
            latencies = self.traced_latencies if traced else self.latencies
            if traced:
                tracer.install()
            for i in range(workload.round_size):
                t0 = perf_counter()
                try:
                    out = workload.run(i)
                except Exception:  # an op that raises counts as failed
                    latencies.append(perf_counter() - t0)
                    self.failures.append(traceback.format_exc(limit=3))
                    continue
                latencies.append(perf_counter() - t0)
                self.max_child_rss_kb = max(self.max_child_rss_kb, getattr(out, "max_rss_kb", 0))
                digest = workload.digest(out)
                if i not in digests:
                    self._check(workload, i, out)
                    digests[i] = digest
                elif digest != digests[i]:
                    mismatches += 1
                del out  # no output outlives its op, so memory peaks are the op's own
            if traced:
                tracer.uninstall()
            rounds += 1
        if mismatches:
            self.errors.append(f"{mismatches} ops did not reproduce their first output")

    def _check(self, workload, i, out):
        try:
            workload.check(i, out)
        except CheckError as err:
            self.errors.append(f"op {i}: {err}")

    @property
    def ms(self) -> list[float]:
        return [1e3 * x for x in self.latencies]

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.traced_latencies)


def warm_up(workload):
    """One untimed op; a failure shows again, and is counted, in the timed phase."""
    try:
        workload.run(0)
    except Exception:
        pass


def setup_probe(name: str, seed: int):
    """Set up as a run does (import, inputs, fixtures, one warm-up op) in this
    fresh interpreter, then exit; the parent times the whole process."""
    with tempfile.TemporaryDirectory(dir=SCRATCH_DIR) as tmp:
        warm_up(build(name, seed, Path(tmp)))


def time_setup(name: str, seed: int, probes: int) -> float:
    samples = []
    for _ in range(probes):
        start = perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
                        "--workload", name, "--seed", str(seed)], env=child_env(), check=True)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def measure(name: str, seed: int, seconds: float, trace: bool, probes: int) -> dict:
    with tempfile.TemporaryDirectory(dir=SCRATCH_DIR) as tmp:
        if trace:
            return measure_traced(name, seed, seconds, Path(tmp))
        setup_s = time_setup(name, seed, probes) if probes else math.nan
        workload = build(name, seed, Path(tmp))
        warm_up(workload)
        phase = Phase(workload, seconds)
        if phase.max_child_rss_kb:
            peak_kb = phase.max_child_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": setup_s,
            "op_p90_ms": percentile(phase.ms, 90),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        return result(phase, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()})


def measure_traced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced and traced rounds alternate on the same ops; the CLI verbs are
    replayed in-process through ``retroflow.cli.main``."""
    import tracing

    workload = build(name, seed, workdir, inprocess=True)
    warm_up(workload)
    tracer = tracing.Tracer()
    phase = Phase(workload, seconds, tracer)
    values = tracer.per_op(len(phase.traced_latencies))
    values.update(dict.fromkeys(tracing.IMPORT_METRICS, 0.0))
    if name == "cli-verbs":
        values.update(tracing.import_split())
    p50_plain = statistics.median(phase.ms)
    p50_traced = 1e3 * statistics.median(phase.traced_latencies)
    values.update(zip(tracing.OVERHEAD_METRICS, (p50_plain, p50_traced, p50_traced / p50_plain)))
    units = tracing.metric_units()
    return result(phase, {k: (values[k], units[k]) for k in units})


def result(phase: Phase, metrics: dict) -> dict:
    for message in phase.failures + phase.errors:
        sys.stderr.write(message.rstrip() + "\n")
    return {
        "correct": not phase.errors,
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def quick() -> int:
    """One round of every workload with its checks, untimed set-up."""
    status = 0
    for name in WORKLOADS:
        start = perf_counter()
        res = measure(name, 1, 0.0, trace=False, probes=0)
        ok = res["correct"] and res["failed"] == 0
        status |= not ok
        print(f"{name}: {res['attempted']} ops, {res['failed']} failed, checks "
              f"{'passed' if res['correct'] else 'FAILED'}, "
              f"p90 {res['metrics']['op_p90_ms']['value']:.2f} ms, "
              f"{perf_counter() - start:.1f} s")
    return status


def compare(base_path: str, new_path: str) -> int:
    """Per workload and metric: the median of each file's runs and new / base."""

    def load(path):
        runs = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                key = rec["workload"] + (" (traced)" if rec["trace"] else "")
                runs.setdefault(key, []).append(rec["result"]["metrics"])
        return runs

    better = {}
    spec = REPO_ROOT / "BENCHMARK.json"
    if spec.is_file():
        doc = json.loads(spec.read_text())
        better = {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}
    base, new = load(base_path), load(new_path)
    print(f"base: {base_path}\nnew:  {new_path}")
    for workload in sorted(set(base) & set(new)):
        print(f"\n{workload} ({len(base[workload])} base runs, {len(new[workload])} new runs)")
        print(f"  {'metric':44} {'unit':>6} {'base median':>14} {'new median':>14} "
              f"{'new/base':>9}  better")
        names = [n for n in base[workload][0] if n in new[workload][0]]
        for metric in names:
            b = statistics.median(r[metric]["value"] for r in base[workload])
            n = statistics.median(r[metric]["value"] for r in new[workload])
            ratio = n / b if b else math.nan
            unit = base[workload][0][metric]["unit"]
            print(f"  {metric:44} {unit:>6} {b:14.6g} {n:14.6g} {ratio:9.4f}  "
                  f"{better.get(metric, '')}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSON-lines file")
    parser.add_argument("--quick", action="store_true",
                        help="one round of every workload with its checks")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="medians and ratios of two --out files")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    use_source_tree()
    SCRATCH_DIR.mkdir(exist_ok=True)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), SETUP_PROBES)
    for metric, m in res["metrics"].items():
        print(f"{args.workload} {metric} = {m['value']:.6g} {m['unit']}")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "result": res}) + "\n")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
