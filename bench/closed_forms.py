"""Independent oracles for the benchmark's operations.

Everything here is closed form in plain Python and imports nothing from
``brwre``: the preset laws are restated from their documented values, so a
defect in the presets, the config parser or any solver cannot also hide in
the oracle that checks it.
"""

import math

# Step weights are ordered (+e1, -e1, +e2, -e2, ...), the nearest-neighbour
# order; every preset has one offspring law, given as {k: mass}.
PRESET_LAWS = {
    "drift-z1": (((0.9, 0.1),), {1: 0.5, 2: 0.5}),
    "symmetric-z1": (((0.5, 0.5),), {1: 0.5, 2: 0.5}),
    "recurrent-z1": (((0.9, 0.1),), {1: 0.2, 2: 0.8}),
    "zero-drift-pair": (((0.8, 0.2), (0.2, 0.8)), {1: 0.5, 2: 0.5}),
    "drift-pair-z1": (((0.9, 0.1), (0.7, 0.3)), {1: 0.5, 2: 0.5}),
    "nn-z2": (((0.4, 0.1, 0.4, 0.1),), {1: 0.8, 2: 0.2}),
}


class OracleError(Exception):
    """An operation's output disagrees with its oracle."""


def require(condition, message):
    if not condition:
        raise OracleError(message)


def _laws(preset):
    return PRESET_LAWS[preset][0]


def mean_offspring(preset):
    return sum(k * w for k, w in PRESET_LAWS[preset][1].items())


def _drifts(law):
    return [law[2 * i] - law[2 * i + 1] for i in range(len(law) // 2)]


def zero_drift(preset):
    """Whether the convex hull of the laws' drift vectors contains 0."""
    laws = _laws(preset)
    drifts = [_drifts(law) for law in laws]
    if len(drifts[0]) == 1:
        values = [d[0] for d in drifts]
        return min(values) <= 0.0 <= max(values)
    if len(laws) == 1:
        return all(c == 0.0 for c in drifts[0])
    raise ValueError(f"no closed-form hull test for {preset}")


def rho(preset):
    """1 when the drift hull holds 0, else max over laws of sum_i 2 sqrt(p(e_i) p(-e_i))."""
    if zero_drift(preset):
        return 1.0
    return max(
        sum(2.0 * math.sqrt(law[2 * i] * law[2 * i + 1]) for i in range(len(law) // 2))
        for law in _laws(preset)
    )


def verdict_kind(preset):
    return "transient" if mean_offspring(preset) <= 1.0 / rho(preset) else "strongly-recurrent"


def _central_binomial_series(x, kmax):
    """C(2k, k) x^k for k = 0..kmax, by the ratio recursion (no big integers)."""
    out = [1.0]
    for k in range(1, kmax + 1):
        out.append(out[-1] * (2 * k) * (2 * k - 1) / (k * k) * x)
    return out


def binomial_interval(n, p, delta):
    """The shortest-tailed [lo, hi] with P(X < lo) and P(X > hi) each at most delta / 2.

    X is binomial(n, p); the tails are summed exactly, term by term.
    """
    pmf = [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    lo, tail = 0, pmf[0]
    while lo < n and tail <= delta / 2:
        lo += 1
        tail += pmf[lo]
    hi, tail = n, pmf[n]
    while hi > 0 and tail <= delta / 2:
        hi -= 1
        tail += pmf[hi]
    return lo, hi


def return_probabilities(preset, horizon):
    """u[n] = P(walk at the origin at time n), n = 0..horizon.

    In 1-D u[2k] = C(2k,k) (pq)^k. The 2-D preset's law factorises in the
    rotated coordinates x+y and x-y, which move independently, so u[2k] is
    the product of two 1-D terms.
    """
    (law,) = _laws(preset)
    if len(law) == 2:
        factors = [law[0] * law[1]]
    else:
        a, b, c, d = law
        s, t = a + c, a + d  # P(x+y steps up), P(x-y steps up)
        if abs(a - s * t) > 1e-12:
            raise ValueError(f"{preset}: rotated coordinates are not independent")
        factors = [s * (1.0 - s), t * (1.0 - t)]
    series = [_central_binomial_series(x, horizon // 2) for x in factors]
    u = [0.0] * (horizon + 1)
    for k in range(horizon // 2 + 1):
        u[2 * k] = math.prod(s[k] for s in series)
    return u


def expected_frozen_tally(preset, horizon):
    """sum_{n <= H} m^n f_n, with first-return probabilities f from the renewal equation."""
    u = return_probabilities(preset, horizon)
    f = [0.0] * (horizon + 1)
    for n in range(1, horizon + 1):
        f[n] = u[n] - sum(f[k] * u[n - k] for k in range(1, n))
    m = mean_offspring(preset)
    return sum(m ** n * f[n] for n in range(1, horizon + 1))


def tally_moments(preset, horizon):
    """Exact (mean, standard deviation, P(tally = 0)) of the frozen tally at ``horizon``.

    Dynamic programme over one particle's subtree: with t steps left at x,
    g_t is its expected tally, h_t the second factorial moment and z_t the
    probability of no return. An offspring that lands on the origin freezes
    and counts 1; otherwise it continues from where it landed with t-1 steps.
    """
    import numpy as np

    (law,), offspring = PRESET_LAWS[preset]
    d = len(law) // 2
    r = horizon + 1  # no particle gets further than horizon steps away
    shape = (2 * r + 1,) * d
    m = sum(k * w for k, w in offspring.items())
    m2 = sum(k * (k - 1) * w for k, w in offspring.items())

    def offspring_mean(values, at_origin, outside):
        """E over one offspring's step of values at its landing site."""
        padded = np.pad(values, 1, constant_values=outside)
        padded[(r + 1,) * d] = at_origin
        out = np.zeros(shape)
        for axis in range(d):
            for step, w in ((1, law[2 * axis]), (-1, law[2 * axis + 1])):
                view = [slice(1, -1)] * d
                view[axis] = slice(1 + step, 2 * r + 2 + step)
                out += w * padded[tuple(view)]
        return out

    g, h, z = np.zeros(shape), np.zeros(shape), np.ones(shape)
    for _ in range(horizon):
        a = offspring_mean(g, 1.0, 0.0)
        b = offspring_mean(h, 0.0, 0.0)
        e = offspring_mean(z, 0.0, 1.0)
        g, h, z = m * a, m * b + m2 * a * a, sum(w * e ** k for k, w in offspring.items())
    origin = (r,) * d
    mean = float(g[origin])
    return mean, math.sqrt(float(h[origin]) + mean - mean * mean), float(z[origin])
