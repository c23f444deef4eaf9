"""Reference implementations the tests compare the library against: exact
sums in mpmath, and ``embed`` and the table kernel as first written."""

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


# Taylor coefficients of phi'(x), phi(x) = expm1(x) / x, through x^17
_SLOPE_TAYLOR = np.array([(j + 1) / math.factorial(j + 2) for j in range(18)])
_CELLS = 1 << 13


def reference_level_sums(lams, tables, t, progressions):
    """The table kernel's level sums as first written, for differential
    tests: the phi' series on every pair, one ``np.interp`` call per piece
    for the anchors, and an ``np.add.at`` into zeros for every batch.  Its
    segment knots and slopes are computed here from ``times`` and
    ``values``, as the table once stored them."""
    room = _CELLS // progressions.shape[1]
    passes, used = [[]], 0
    for i, (lam, table) in enumerate(zip(lams, tables)):
        live = max(int(table.times.searchsorted(t + 750.0 / lam)) - 1, 0) if lam * t < -750.0 else 0
        for lo in range(live, table.times.size, room - 1):
            hi = min(lo + room - 1, table.times.size)
            if used + hi - lo + 1 > room:
                passes.append([])
                used = 0
            passes[-1].append((i, lo, hi))
            used += hi - lo + 1
    segments = [_reference_segments(table) for table in tables]
    totals = np.zeros((len(tables), progressions.shape[1]))
    for pieces in passes:
        np.add.at(totals, [i for i, _, _ in pieces],
                  _reference_pass_sums(lams, tables, segments, t, progressions, pieces))
    return totals


def _reference_segments(table):
    """Each segment's bottom knot and slope, and a zero-slope column past the end."""
    slopes = np.zeros(table.values.size + 1)
    slopes[:-2] = np.diff(table.values) / np.diff(table.times)
    return np.concatenate(([-math.inf], table.times[1:], [math.inf])), slopes


def _reference_pass_sums(lams, tables, segments, t, progressions, pieces):
    steps, first, count, stride = progressions
    knots = np.concatenate([segments[i][0][lo:hi + 1] for i, lo, hi in pieces])
    slopes = np.concatenate([segments[i][1][lo:hi + 1] for i, lo, hi in pieces])
    knots = np.minimum(np.maximum(knots, -t), 2.0 * t) / t
    c = knots[:, None] * (steps / stride)
    c -= first / stride
    np.ceil(c, out=c)
    np.maximum(c, 0.0, out=c)
    np.minimum(c, count, out=c)
    m = c[1:] - c[:-1]
    starts = [0]
    for _, lo, hi in pieces:
        starts.append(starts[-1] + hi - lo + 1)
    for top in starts[1:-1]:
        m[top - 1] = 0.0
    held = (m > 0.0).reshape(-1).nonzero()[0]
    seg, col = np.divmod(held, steps.size)
    starts = np.array(starts)
    piece = starts.searchsorted(seg, side="right") - 1
    ends = seg.searchsorted(starts).tolist()
    cells = piece * steps.size + col
    rates = np.array([lams[i] for i, _, _ in pieces])
    r = np.minimum(np.multiply.outer(-abs(rates), stride * (t / steps)), -2.0 ** -900)
    lam = rates[piece]
    down = lam <= 0.0
    anchor = c.reshape(-1)[held + steps.size * down] - down
    n, first, _, stride = progressions[:, col]
    node = anchor * stride + first
    h = t / n
    place = node * h
    f = np.concatenate([np.interp(place[a:b], tables[i].times[max(lo - 1, 0):hi + 2],
                                  tables[i].values[max(lo - 1, 0):hi + 2])
                        for (i, lo, hi), a, b in zip(pieces, ends, ends[1:])])
    sums = _reference_pair_sums(lam, down, h, n, stride, m.reshape(-1)[held], node, slopes[seg], f,
                                r.reshape(-1), cells)
    return np.bincount(cells, weights=sums, minlength=len(pieces) * steps.size).reshape(len(pieces), -1)


def _reference_phi_slope(z):
    powers = np.empty((_SLOPE_TAYLOR.size, z.size))
    powers[0] = 1.0
    np.maximum(z, -1.0, out=powers[1])
    square = powers[1] * powers[1]
    np.multiply(powers[:2], square, out=powers[2:4])
    square *= square
    np.multiply(powers[:4], square, out=powers[4:8])
    square *= square
    np.multiply(powers[:8], square, out=powers[8:16])
    square *= square
    np.multiply(powers[:2], square, out=powers[16:])
    return np.einsum("j,jn->n", _SLOPE_TAYLOR, powers)


def _reference_pair_sums(lam, down, h, n, stride, m, node, slope, f, r, cells):
    kernel = n - node
    kernel *= lam * h
    np.exp(kernel, out=kernel)
    em1_r = np.expm1(r)[cells]
    z = r[cells]
    z *= m
    g0 = np.expm1(z)
    g0 /= em1_r
    phi_slope = _reference_phi_slope(np.concatenate((z, r)))
    g1 = m * m * phi_slope[:m.size]
    g1 -= g0 * phi_slope[m.size:][cells]
    g1 *= r[cells] / em1_r
    if z.min(initial=0.0) < -1.0:
        series = z >= np.minimum(r, -1.0)[cells]
        g1 = np.where(series, g1, (np.exp(r)[cells] * g0 - m * np.exp(z)) / -em1_r)
    g1 *= slope
    g1 *= stride * h
    np.negative(g1, out=g1, where=down)
    g0 *= f
    g0 += g1
    g0 *= kernel
    return g0
