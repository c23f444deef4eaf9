"""Shared pieces of the benchmark: paths and child environments, statistics,
output fingerprints, and the checks' independent (mpmath / closed-form)
reference values.

Nothing here imports ``retroflow``; the reference values are computed from
the generated inputs alone, so a check never compares the program with
itself.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import math
import os
import statistics
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
# per-run fixture directories live here and are removed when a run ends
SCRATCH_DIR = BENCH_DIR / "_scratch"


@functools.cache
def mpmath():
    """mpmath at 30 digits, imported on first use.  The program imports
    mpmath only inside verification, so a workload whose inputs need no
    mpmath leaves it out of ``setup_s``."""
    import mpmath as mp

    mp.mp.dps = 30
    return mp


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def close(value: float, ref: float, tol: float, what: str):
    """``|value - ref| <= tol * max(1, |ref|)``."""
    require(
        abs(value - ref) <= tol * max(1.0, abs(ref)),
        f"{what}: {value!r} differs from the reference {ref!r} by more than {tol:g} (relative)",
    )


def check_coefficients(signs, log_mags, ref_signs, ref_logs, tol: float, what: str,
                       mask=None):
    """Signs equal and live log magnitudes within ``tol * max(1, |ref|)``, on
    the modes selected by ``mask`` (all by default)."""
    ref_signs = np.asarray(ref_signs)
    sel = np.ones(ref_signs.shape, dtype=bool) if mask is None else mask
    require(np.array_equal(np.asarray(signs)[sel], ref_signs[sel]), f"{what}: signs differ")
    live = sel & (ref_signs != 0)
    got, ref = np.asarray(log_mags, dtype=float)[live], np.asarray(ref_logs, dtype=float)[live]
    err = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)), initial=0.0)
    require(err <= tol, f"{what}: log magnitude off by {err:.3g} (tol {tol:g})")


def use_source_tree():
    """Import ``retroflow`` from this checkout's ``src`` directory, never from an
    installed copy; exit with code 2 when the source tree is absent."""
    if not (SRC_DIR / "retroflow" / "__init__.py").is_file():
        sys.stderr.write(f"error: no retroflow source tree under {SRC_DIR}\n")
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def child_env() -> dict:
    """Environment for the interpreters the benchmark starts: ``retroflow`` from
    this checkout, with bytecode caching on as in an installed package (the
    first child after a source change writes the cache)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """The generator of one workload's inputs; any integer seed is accepted."""
    return np.random.default_rng([seed & (2**64 - 1), stream])


def heat_eigenvalues(num_modes: int) -> np.ndarray:
    n = np.arange(1, num_modes + 1, dtype=float)
    return -((n * math.pi) ** 2)


def linear_values(signs, log_mags) -> np.ndarray:
    """Linear coefficient values of sign/log arrays (desk-scale states)."""
    signs = np.asarray(signs)
    logs = np.where(signs == 0, 0.0, np.asarray(log_mags, dtype=float))
    return np.where(signs == 0, 0.0, signs * np.exp(logs))


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method, linear interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fingerprint(obj):
    """Hashable digest of an output, exact to the last bit.  Rounds of a run
    repeat the same inputs, so every later run of an op must reproduce the
    fingerprint of its checked first output."""
    if isinstance(obj, np.ndarray):
        # hashes the array's own buffer (no copy) when it is contiguous
        data = np.ascontiguousarray(obj).data
        return (obj.dtype.str, obj.shape, hashlib.sha1(data).hexdigest())
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return tuple((k, fingerprint(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    return repr(obj)


# ---------------------------------------------------------------------------
# independent reference values
# ---------------------------------------------------------------------------

def mp_log_sq_sum(signs, log_mags):
    """log of ``sum a_n**2`` over the explicit coefficients (``-inf`` if none)."""
    mp = mpmath()
    live = [2 * mp.mpf(float(l)) for s, l in zip(signs, log_mags) if s != 0]
    if not live:
        return mp.mpf("-inf")
    top = max(live)
    return top + mp.log(mp.fsum(mp.exp(v - top) for v in live))


def mp_exp_law_log_sq_tail(rate: float, coeff: float, start: int):
    """log of ``sum_{n >= start} (coeff * exp(-rate (n pi)^2))**2``, summed termwise."""
    mp = mpmath()
    a = 2 * mp.mpf(rate) * mp.pi ** 2
    head = -a * start ** 2
    total, n = mp.mpf(0), start
    while True:
        term = mp.exp(-a * n * n - head)
        total += term
        if term < mp.mpf(10) ** -28 * total:
            break
        n += 1
    return 2 * mp.log(coeff) + head + mp.log(total)


def mp_power_law_log_sq_tail(power: float, coeff: float, start: int):
    """log of ``sum_{n >= start} (coeff * n**-power)**2`` via the Hurwitz zeta."""
    mp = mpmath()
    return 2 * mp.log(coeff) + mp.log(mp.zeta(2 * mp.mpf(power), start))


def mp_power_tail_norm(power: float, coeff: float, start: int):
    """Norm of the power law restricted to modes ``n >= start``."""
    mp = mpmath()
    return mp.exp(mp_power_law_log_sq_tail(power, coeff, start) / 2)


def mp_log_norm(signs, log_mags, tail_kind: str, tail_params: tuple) -> float:
    """log of the ambient norm of explicit coefficients plus a tail law
    (``"zero"``, ``"exp"`` with ``(rate, coeff)`` or ``"power"`` with
    ``(power, coeff)``) beyond the last explicit mode."""
    mp = mpmath()
    parts = [mp_log_sq_sum(signs, log_mags)]
    start = len(signs) + 1
    if tail_kind == "exp":
        parts.append(mp_exp_law_log_sq_tail(*tail_params, start))
    elif tail_kind == "power":
        parts.append(mp_power_law_log_sq_tail(*tail_params, start))
    live = [p for p in parts if p != mp.mpf("-inf")]
    if not live:
        return -math.inf
    top = max(live)
    return float((top + mp.log(mp.fsum(mp.exp(p - top) for p in live))) / 2)


def mp_explicit_inner(signs_x, logs_x, signs_y, logs_y):
    """``sum x_n y_n`` over the explicit modes."""
    mp = mpmath()
    return mp.fsum(
        int(sx) * int(sy) * mp.exp(mp.mpf(float(lx)) + mp.mpf(float(ly)))
        for sx, lx, sy, ly in zip(signs_x, logs_x, signs_y, logs_y) if sx and sy)


def mp_exp_power_cross_tail(rate: float, c_exp: float, power: float, c_pow: float,
                            start: int):
    """``sum_{n >= start} c_exp exp(-rate (n pi)^2) * c_pow n**-power``, termwise."""
    mp = mpmath()
    a = mp.mpf(rate) * mp.pi ** 2
    total, n = mp.mpf(0), start
    while True:
        term = mp.exp(-a * n * n) * mp.mpf(n) ** (-mp.mpf(power))
        total += term
        if term < mp.mpf(10) ** -28 * total:
            break
        n += 1
    return mp.mpf(c_exp) * mp.mpf(c_pow) * total


def mp_kernel_times_linear(lam: float, t: float, s0: float, s1: float, v0: float,
                           v1: float):
    """Exact ``int_{s0}^{s1} exp(lam (t - s)) g(s) ds`` for the linear ``g`` with
    ``g(s0) = v0`` and ``g(s1) = v1``."""
    mp = mpmath()
    lam, t, s0, s1 = mp.mpf(lam), mp.mpf(t), mp.mpf(s0), mp.mpf(s1)
    slope = (mp.mpf(v1) - mp.mpf(v0)) / (s1 - s0)

    def antiderivative(s):
        # d/ds of exp(lam (t-s)) * (-(g(s))/lam - slope/lam^2) = exp(lam (t-s)) g(s)
        g = mp.mpf(v0) + slope * (s - s0)
        return mp.exp(lam * (t - s)) * (-g / lam - slope / lam ** 2)

    return antiderivative(s1) - antiderivative(s0)


def mp_table_response(lam: float, t: float, times, values):
    """Exact damping-kernel integral of a piecewise-linear table over ``[0, t]``
    (the table's last sample sits at ``t``)."""
    mp = mpmath()
    return mp.fsum(
        mp_kernel_times_linear(lam, t, times[k], times[k + 1], values[k], values[k + 1])
        for k in range(len(times) - 1))


def simpson_error_bound(lam: float, t: float, times, values, steps: int) -> float:
    """Rigorous composite-Simpson error bound ``t h^4 max|f''''| / 180`` for
    ``f(s) = exp(lam (t - s)) g(s)`` with piecewise-linear ``g`` whose breaks
    lie on panel edges (``h = t / steps``)."""
    g_max = max(abs(float(v)) for v in values)
    slopes = np.diff(np.asarray(values, float)) / np.diff(np.asarray(times, float))
    dg_max = float(np.max(np.abs(slopes)))
    lam = abs(lam)
    # f'''' = exp(lam (t-s)) (lam^4 g - 4 lam^3 g') with the kernel at most 1
    f4 = lam ** 4 * g_max + 4.0 * lam ** 3 * dg_max
    h = t / steps
    return t * h ** 4 * f4 / 180.0


def distance_to_power_law(signs, log_mags, ref_signs, ref_logs, power: float,
                          coeff: float) -> float:
    """Distance from a zero-tail state to one whose explicit coefficients
    ``ref`` continue as the law ``coeff * n**-power``: explicit differences in
    float, the law's remainder past the state's depth from the zeta."""
    mp = mpmath()
    depth, explicit = len(signs), len(ref_signs)
    require(depth >= explicit, "the result is shallower than its input")
    n = np.arange(explicit + 1, depth + 1, dtype=float)
    ref = np.concatenate([linear_values(ref_signs, ref_logs), coeff * n ** -power])
    diff = linear_values(signs, log_mags) - ref
    remainder = mp_power_tail_norm(power, coeff, depth + 1) ** 2
    return float(mp.sqrt(mp.fsum(map(mp.mpf, (diff * diff).tolist())) + remainder))


@dataclasses.dataclass(frozen=True)
class ForcedModes:
    """Constant, exponential and tabulated forcing on heat modes 1-3 (in drawn
    order) over ``[0, t]``.  The 9-sample table breaks at multiples of t/8, on
    panel edges of the default 64-step Simpson rule."""

    t: float
    modes: tuple  # (constant, exponential, table)
    const_value: float
    exp_amp: float
    exp_rate: float
    table_values: np.ndarray

    @classmethod
    def draw(cls, rng) -> "ForcedModes":
        return cls(
            t=float(rng.uniform(0.05, 0.2)),
            modes=tuple(int(m) for m in rng.permutation(3) + 1),
            const_value=float(rng.uniform(-2.0, 2.0)),
            exp_amp=float(rng.uniform(-2.0, 2.0)),
            exp_rate=float(rng.uniform(-3.0, 3.0)),
            table_values=rng.uniform(-1.0, 1.0, 9),
        )

    @property
    def table_times(self) -> np.ndarray:
        return self.t * np.arange(9) / 8

    def check(self, got: np.ndarray, hom):
        """``got``: linear values of the forced state; ``hom(m)``: mode ``m``'s
        unforced value at ``t``.  Constant and exponential forcing must match
        the scalar-ODE closed form to 1e-8, the table the exact integral
        within the Simpson error bound."""
        mp = mpmath()
        t = self.t
        m_const, m_exp, m_table = self.modes
        lc, le, lt = (mp.mpf(float(heat_eigenvalues(3)[m - 1])) for m in self.modes)
        close(got[m_const - 1], float(hom(m_const) + self.const_value * mp.expm1(lc * t) / lc),
              1e-8, "duhamel constant forcing")
        mu = mp.mpf(self.exp_rate)
        close(got[m_exp - 1], float(hom(m_exp) + self.exp_amp * (mp.exp(mu * t) - mp.exp(le * t))
                                    / (mu - le)), 1e-8, "duhamel exponential forcing")
        ref = float(hom(m_table) + mp_table_response(float(lt), t, self.table_times,
                                                     self.table_values))
        bound = simpson_error_bound(float(lt), t, self.table_times, self.table_values, steps=64)
        require(abs(got[m_table - 1] - ref) <= bound + 1e-13 * max(1.0, abs(ref)),
                "duhamel table forcing misses the exact integral by more than the Simpson bound")
