"""Per-layer tracing from the benchmark's side of the API.

A :class:`Tracer` wraps each listed public function of ``retroflow`` and
installs the wrapper in every ``retroflow`` module namespace that binds the
function (modules import each other's functions by name), so nested calls are
attributed to the layer that owns them.  Each span records its duration; a
function's self time is its spans minus the wrapped child spans inside them.
Nothing inside the program changes, and uninstalling restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from common import child_env

# layer (module under retroflow) -> wrapped public callables
TARGETS = {
    "spectral": ("SpectralState.__init__", "evolve", "add", "subtract", "log_inner_product",
                 "log_norm", "embed", "relative_gap"),
    "logdomain": ("log_add", "log_sum"),
    "reversibility": ("classify", "horizon", "backward_evolve"),
    "extended": ("canonicalize", "group_evolve", "states_equal", "log_extended_norm",
                 "generator_action"),
    "duality": ("functional_to_extended", "log_pairing"),
    "density": ("truncate_to_reversible", "iterate_to_reversible"),
    "inhomogeneous": ("duhamel_evolve", "forcing_integral", "simpson_integrate"),
    "shift": ("exclusion_onset", "distance_to_range"),
    "serialize": ("load_json", "save_json", "state_from_dict", "state_to_dict",
                  "extended_from_dict", "forcing_from_dict"),
    "cli": ("main",),
    "verification": ("run_suite",),
}
# log_norm is reported per tail family of its argument
TAIL_FAMILY = {"ZeroTail": "zero", "ExpTail": "exp", "PowerTail": "power"}


def span_names() -> list[str]:
    names = []
    for layer, funcs in TARGETS.items():
        for f in funcs:
            if f == "log_norm":
                names += [f"{layer}.log_norm.{fam}" for fam in TAIL_FAMILY.values()]
            else:
                names.append(f"{layer}.{f}")
    return names


COUNTERS = ("spectral.embed.modes", "density.depth", "density.iterations",
            "serialize.bytes_read", "serialize.bytes_written")
IMPORT_METRICS = ("cli.import.retroflow_ms", "cli.import.scipy_ms", "cli.import.numpy_ms")
OVERHEAD_METRICS = ("trace.untraced_op_p50_ms", "trace.traced_op_p50_ms", "trace.overhead_ratio")
IMPORT_REPEATS = 3  # fresh interpreters per import split; each metric is their median


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update({name: "count" for name in COUNTERS})
    units["serialize.bytes_read"] = units["serialize.bytes_written"] = "B"
    units.update({name: "ms" for name in IMPORT_METRICS})
    units.update(dict(zip(OVERHEAD_METRICS, ("ms", "ms", "ratio"))))
    return units


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._child = [0.0]  # wrapped time spent inside the span on top
        self._density_open = 0
        self._restore = []

    def _span(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name(args) if callable(name) else name
            tracer._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = tracer._child.pop()
                tracer._child[-1] += elapsed
                tracer.calls[key] += 1
                tracer.self_s[key] += elapsed - child
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # counters -----------------------------------------------------------------

    def _count_embed(self, args, result):
        self.counts["spectral.embed.modes"] += result.num_modes - args[0].num_modes

    def _density(self, fn, name):
        """Depth and iterations count only calls made from outside the density
        layer (the oracle truncates again inside the iteration)."""
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._density_open += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self._density_open -= 1
            if self._density_open == 0:
                state, cert = result
                self.counts["density.depth"] += state.num_modes
                if name.endswith("iterate_to_reversible"):
                    self.counts["density.iterations"] += cert.iterations
            return result

        return wrapper

    def _bytes_read(self, fn, name):
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            self.counts["serialize.bytes_read"] += os.path.getsize(path)
            return inner(path, *args, **kwargs)

        return wrapper

    def _count_written(self, args, result):
        self.counts["serialize.bytes_written"] += os.path.getsize(args[0])

    # installation -------------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"retroflow.{layer}") for layer in TARGETS}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "retroflow" or n.startswith("retroflow.")]
        for layer, funcs in TARGETS.items():
            mod = modules[layer]
            for func in funcs:
                name = f"{layer}.{func}"
                if func == "SpectralState.__init__":
                    cls = mod.SpectralState
                    self._restore.append((cls, "__init__", cls.__init__))
                    cls.__init__ = self._span(name, cls.__init__)
                    continue
                orig = getattr(mod, func)
                if func == "log_norm":
                    wrapped = self._span(
                        lambda args: f"spectral.log_norm.{TAIL_FAMILY[type(args[0].tail).__name__]}",
                        orig)
                elif func == "embed":
                    wrapped = self._span(name, orig, self._count_embed)
                elif layer == "density":
                    wrapped = self._density(orig, name)
                elif func == "load_json":
                    wrapped = self._bytes_read(orig, name)
                elif func == "save_json":
                    wrapped = self._span(name, orig, self._count_written)
                else:
                    wrapped = self._span(name, orig)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._restore.append((ns, attr, orig))
                            setattr(ns, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def per_op(self, ops: int) -> dict[str, float]:
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name] / ops
        for name in COUNTERS:
            out[name] = self.counts[name] / ops
        return out


def _parse_importtime(stderr: str) -> list[tuple[int, str, int, int]]:
    """``(nesting level, module, self us, cumulative us)`` per imported module,
    in the order ``-X importtime`` prints them (children before parents)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        own, cumulative, raw = line[len("import time:"):].split("|")
        if own.strip().isdigit():  # skips the header line
            level = (len(raw) - len(raw.lstrip()) - 1) // 2
            entries.append((level, raw.strip(), int(own), int(cumulative)))
    return entries


def _rooted_cumulative(entries, root: str) -> int:
    """Cumulative import time of every ``root`` subtree entered from outside
    ``root`` (what dropping the dependency would save)."""
    total, stack = 0, []  # stack of (level, module) of later-printed ancestors
    for level, module, _, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if module.split(".")[0] == root and parent.split(".")[0] != root:
            total += cumulative
        stack.append((level, module))
    return total


def import_split() -> dict[str, float]:
    """Split ``import retroflow.cli`` in a fresh interpreter with
    ``-X importtime``: the whole import, and the parts spent importing scipy
    and numpy.  Medians over ``IMPORT_REPEATS`` interpreters."""
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import retroflow.cli"],
                              env=child_env(), capture_output=True, text=True, check=True)
        entries = _parse_importtime(proc.stderr)
        for name, root in zip(IMPORT_METRICS, ("retroflow", "scipy", "numpy")):
            samples[name].append(_rooted_cumulative(entries, root) / 1e3)
    return {name: statistics.median(values) for name, values in samples.items()}
