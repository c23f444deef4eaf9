"""Reference implementations the tests compare the library against: exact
sums in mpmath, and ``embed`` as first written."""

import math

import numpy as np

import retroflow as rf


def mp_log_tail_sum(p, c, m, dps=40):
    """log of ``sum_{n >= m} n**-p exp(-c n**2)`` in mpmath: the terms one by
    one while ``p / n`` is large or they fall fast, then ``mpmath.sumem`` with
    the integral from ``mpmath.gammainc``.  ``mpmath.nsum`` is off by factors
    up to 19 on these slowly decaying sums, and ``sumem`` starts only where
    ``n > 10 p``: from ``n = 4 p`` it misses by 4e-12 at ``p = 58.7``.
    ``c = 0`` is ``mpmath.zeta``, which loses about ``p log10(m)`` digits to
    cancellation, so it runs with that many more."""
    import mpmath as mp

    if c == 0:
        with mp.workdps(dps + int(p * math.log10(m))):
            return mp.log(mp.zeta(p, m))
    with mp.workdps(dps):
        p, c = mp.mpf(p), mp.mpf(c)

        def f(n):
            return mp.power(n, -p) * mp.exp(-c * n * n)

        first, total, n = f(m), mp.mpf(0), m
        while n < 10 * p + 40 or 2 * c * n > 0.25:
            term = f(n)
            total += term
            n += 1
            if term < first * mp.mpf(10) ** -(dps + 5):
                return mp.log(total)
        integral = c ** ((p - 1) / 2) * mp.gammainc((1 - p) / 2, c * n * n) / 2
        return mp.log(total + mp.sumem(f, [n, mp.inf], integral=integral))


def embed_reference(state, num_modes):
    """``embed`` as first vectorised, then the normalisation of a library
    result: a ``np.full`` of ``-inf`` overwritten by the law, with the
    eigenvalue array for an exponential law.  Returns the signs and logs."""
    signs = np.zeros(num_modes, dtype=np.int8)
    logs = np.full(num_modes, -math.inf)
    old, tail = state.num_modes, state.tail
    signs[:old], logs[:old] = state.signs, state.log_mags
    with np.errstate(over="ignore"):
        if isinstance(tail, rf.ExpTail):
            eigenvalues = -((np.arange(1, num_modes + 1, dtype=float) * math.pi) ** 2)
            logs[old:] = math.log(tail.coeff) + tail.rate * eigenvalues[old:]
        elif isinstance(tail, rf.PowerTail):
            n = np.arange(old + 1, num_modes + 1, dtype=float)
            logs[old:] = math.log(tail.coeff) - tail.power * np.log(n)
    if not isinstance(tail, rf.ZeroTail):
        signs[old:] = 1
    zero = (signs == 0) | (logs == -math.inf)
    return np.where(zero, np.int8(0), signs), np.where(zero, -math.inf, logs)


def mp_simpson_table(lam, times, values, t, steps, dps=30):
    """The composite Simpson sum for ``exp(lam (t - s)) f(s)`` over ``[0, t]``
    on the exact nodes ``i t / steps``, in mpmath: ``f`` interpolates the
    table linearly and clamps outside it, as ``np.interp`` does.  The sum is
    taken term by term, with no closed form, so it shares nothing with the
    library's segment sums but the rule."""
    import mpmath as mp

    with mp.workdps(dps):
        xs = [mp.mpf(float(v)) for v in times]
        ys = [mp.mpf(float(v)) for v in values]
        lam, t = mp.mpf(float(lam)), mp.mpf(float(t))
        total, k = mp.mpf(0), 0
        for i in range(steps + 1):
            s = t * i / steps
            while k + 2 < len(xs) and s >= xs[k + 1]:
                k += 1
            if s <= xs[0]:
                f = ys[0]
            elif s >= xs[-1]:
                f = ys[-1]
            else:
                f = ys[k] + (ys[k + 1] - ys[k]) * (s - xs[k]) / (xs[k + 1] - xs[k])
            weight = 1 if i in (0, steps) else (4 if i % 2 else 2)
            total += weight * mp.exp(lam * (t - s)) * f
        return total * t / steps / 3
