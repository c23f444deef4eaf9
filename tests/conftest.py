from hypothesis import settings

# deterministic property tests: examples derive from the test body, so runs
# are reproducible across machines and invocations
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def mp_log_tail_sum(p, c, m, dps=40):
    """log of ``sum_{n >= m} n**-p exp(-c n**2)`` in mpmath: the terms one by
    one while ``p / n`` is large or they fall fast, then ``mpmath.sumem`` with
    the integral from ``mpmath.gammainc``.  ``mpmath.nsum`` is off by factors
    up to 19 on these slowly decaying sums, and ``sumem`` starts only where
    ``n > 10 p``: from ``n = 4 p`` it misses by 4e-12 at ``p = 58.7``."""
    import mpmath as mp

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
