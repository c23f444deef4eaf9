"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse/validation failure,
3 domain error (horizon exceeded, not reversible, outside a backward space).
``RETROFLOW_TOL`` overrides the default tolerance where one applies.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import serialize, verification
from .density import iterate_to_reversible, truncation_preimage_oracle
from .duality import log_pairing
from .errors import DomainError
from .extended import ExtendedState, canonicalize, group_evolve, lift
from .inhomogeneous import MAX_STEPS, QuadratureConfig, duhamel_evolve
from .reversibility import amplification_log, backward_evolve, classify, horizon
from .shift import constant_grid, distance_to_range, exclusion_onset
from .spectral import SpectralState, evolve, exp_or_inf, log_norm


def _default_tol(fallback: float = 1e-9) -> float:
    raw = os.environ.get("RETROFLOW_TOL")
    if raw is None:
        return fallback
    try:
        value = float(raw)
    except ValueError as err:
        raise ValueError(f"RETROFLOW_TOL must be a float, got {raw!r}") from err
    if value <= 0:
        raise ValueError("RETROFLOW_TOL must be positive")
    return value


def _emit(payload: dict, out_path, fmt: str):
    if fmt == "json":
        if out_path:
            serialize.save_json(out_path, payload)
        else:
            sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return
    # flat CSV: one header row, one value row
    flat = _flatten(payload)
    rows = [list(flat.keys()), list(flat.values())]
    if out_path:
        with open(out_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def _flatten(payload: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            out[name] = json.dumps(value)
        else:
            out[name] = value
    return out


def _load_state(path) -> SpectralState:
    return serialize.state_from_dict(serialize.load_json(path))


def _load_extended(path) -> ExtendedState:
    return serialize.extended_from_dict(serialize.load_json(path))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroflow",
        description="Spectral semigroup states: classification, backward "
        "evolution, the extended group, forcing, duality, and verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def io_flags(p, needs_out=False):
        p.add_argument("--in", dest="input", required=True, help="input JSON file")
        p.add_argument("--out", dest="output", required=needs_out, help="output file")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("classify", help="reversibility class and horizon of a state")
    io_flags(p)

    p = sub.add_parser("horizon", help="backward horizon of a state")
    io_flags(p)

    p = sub.add_parser("evolve", help="forward evolution of a state")
    io_flags(p)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("backward", help="backward evolution within the horizon")
    io_flags(p)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("group-evolve", help="group action on an extended class")
    io_flags(p)
    p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("pair", help="duality pairing of a state with a class")
    p.add_argument("--x", required=True, help="fully reversible state (JSON)")
    p.add_argument("--z", required=True, help="extended class (JSON)")
    p.add_argument("--out", dest="output")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("duhamel", help="forced (affine) evolution")
    io_flags(p)
    p.add_argument("--forcing", required=True, help="forcing JSON file")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--quad-tol", type=float, default=1e-10)

    p = sub.add_parser("density", help="reversible approximation with certificate")
    io_flags(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--max-iters", type=int, default=12)

    p = sub.add_parser("shift-demo", help="non-dense-range witness on the shift model")
    p.add_argument("--resolution", type=int, default=1000)
    p.add_argument("--radius", type=float, default=0.4)
    p.add_argument("--out", dest="output")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("trajectory", help="CSV norm/coefficient trajectory")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--extended", action="store_true",
                   help="treat the input as an extended class (negative times always legal)")

    p = sub.add_parser("verify", help="run property-verification suites")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all' (see retroflow.verification.SUITES)")
    p.add_argument("--modes", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)

    return parser


def _run_trajectory(args) -> int:
    if not 2 <= args.steps <= MAX_STEPS:
        raise ValueError(f"steps must be between 2 and {MAX_STEPS}")
    times = np.linspace(args.t_min, args.t_max, args.steps)
    if args.extended:
        start = _load_extended(args.input)
        points = [canonicalize(group_evolve(start, float(t))) for t in times]
    else:
        state = _load_state(args.input)
        points = []
        for t in times:
            t = float(t)
            moved = evolve(state, t) if t >= 0 else backward_evolve(state, -t)
            points.append(lift(moved))
    lead = 8
    header = ["t", "offset", "norm", "log_norm"]
    header += [f"a{k}" for k in range(1, lead + 1)]
    header += [f"a{k}_sign" for k in range(1, lead + 1)]
    header += [f"a{k}_log" for k in range(1, lead + 1)]
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, point in zip(times, points):
            rep = point.rep
            ln = log_norm(rep)
            row = [float(t), point.offset, exp_or_inf(ln), ln]
            vals, signs, logs = [], [], []
            for k in range(1, lead + 1):
                if k <= rep.num_modes:
                    c = rep.coeff(k)
                    vals.append(c.to_linear())
                    signs.append(c.sign)
                    logs.append(c.log_mag)
                else:
                    vals.append(0.0)
                    signs.append(0)
                    logs.append(-math.inf)
            writer.writerow(row + vals + signs + logs)
    return 0


def _dispatch(args) -> int:
    if args.verb == "classify":
        c = classify(_load_state(args.input))
        _emit(serialize.classification_to_dict(c), args.output, args.format)
        return 0

    if args.verb == "horizon":
        h = horizon(_load_state(args.input))
        payload = {"value": "inf" if math.isinf(h.value) else h.value,
                   "open": h.open_at_endpoint}
        _emit(payload, args.output, args.format)
        return 0

    if args.verb == "evolve":
        state = evolve(_load_state(args.input), args.t)
        _emit(serialize.state_to_dict(state), args.output, args.format)
        return 0

    if args.verb == "backward":
        state = _load_state(args.input)
        moved = backward_evolve(state, args.t)
        _emit(serialize.state_to_dict(moved), args.output, args.format)
        amp = amplification_log(state, args.t)
        sys.stderr.write(
            f"amplification of the deepest mode: exp({amp:.6g}) "
            f"(log10 {amp / math.log(10):.6g})\n")
        return 0

    if args.verb == "group-evolve":
        moved = canonicalize(group_evolve(_load_extended(args.input), args.s))
        _emit(serialize.extended_to_dict(moved), args.output, args.format)
        return 0

    if args.verb == "pair":
        x = _load_state(args.x)
        z = canonicalize(_load_extended(args.z))
        value = log_pairing(x, z)
        payload = {
            "pairing": value.to_linear(),
            "sign": value.sign,
            "log_mag": None if value.sign == 0 else value.log_mag,
            "offset": z.offset,
        }
        _emit(payload, args.output, args.format)
        return 0

    if args.verb == "duhamel":
        quad = QuadratureConfig(steps=args.steps, adaptive=args.adaptive, tol=args.quad_tol)
        state = _load_state(args.input)
        forcing = serialize.forcing_from_dict(serialize.load_json(args.forcing))
        estimates = []
        moved = duhamel_evolve(state, forcing, args.t, quad, estimates=estimates)
        _emit(serialize.state_to_dict(moved), args.output, args.format)
        est = max([0.0, *estimates])
        sys.stderr.write(f"worst quadrature error estimate: {est:.3e}\n")
        return 0

    if args.verb == "density":
        state = _load_state(args.input)
        out, cert = iterate_to_reversible(
            state, args.eps, truncation_preimage_oracle(), max_iters=args.max_iters)
        if args.output:
            serialize.save_json(args.output, serialize.state_to_dict(out))
        _emit(serialize.certificate_to_dict(cert), None, args.format)
        return 0

    if args.verb == "shift-demo":
        if args.resolution > MAX_STEPS:
            raise ValueError(f"resolution must be at most {MAX_STEPS}")
        ones = constant_grid(1.0, args.resolution)
        grid = [k / args.resolution for k in (1, 2, 5, 10, args.resolution // 4,
                                              args.resolution // 2) if 0 < k < args.resolution]
        payload = {
            "resolution": args.resolution,
            "distances": {str(t): distance_to_range(ones, t) for t in grid},
            "exclusion": serialize.exclusion_report_to_dict(
                exclusion_onset(ones, args.radius)),
        }
        _emit(payload, args.output, args.format)
        return 0

    if args.verb == "trajectory":
        return _run_trajectory(args)

    if args.verb == "verify":
        overrides = {}
        for key in ("modes", "samples", "tol", "seed"):
            value = getattr(args, key)
            if value is not None:
                overrides[key] = value
        # the environment's tolerance applies only where a tolerance applies
        if ("tol" not in overrides and os.environ.get("RETROFLOW_TOL")
                and verification.suite_takes(args.suite, "tol")):
            overrides["tol"] = _default_tol()
        results = verification.run_suite(args.suite, **overrides)
        failures = 0
        for result in results:
            print(result.line())
            failures += 0 if result.passed else 1
        print(f"{len(results) - failures}/{len(results)} checks passed")
        return 0 if failures == 0 else 1

    raise ValueError(f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else 0
    try:
        return _dispatch(args)
    except DomainError as err:
        sys.stderr.write(json.dumps({"error": type(err).__name__, "message": str(err)}) + "\n")
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
