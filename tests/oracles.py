"""Independent oracles used by the tests.

Everything here is deliberately brute force or closed form and shares no
code with the library paths it checks.
"""

from collections import deque
from fractions import Fraction
from itertools import product
import math

import numpy as np

from brwre.errors import PreconditionError
from brwre.kernel import _box_shape


def brute_force_return_prob(p, n):
    """p^(n)(0,0) by summing over all |S|^n step sequences."""
    gen = p.generator_set
    total = 0.0
    for seq in product(range(len(gen.steps)), repeat=n):
        pos = [0] * gen.dimension
        w = 1.0
        for i in seq:
            w *= p.weights[i]
            for a in range(gen.dimension):
                pos[a] += gen.steps[i][a]
        if all(c == 0 for c in pos):
            total += w
    return total


def n_step_return_prob(p, n):
    """Exact p^(n)(0,0) by n dense convolutions with ``np.roll``.

    The box of radius n * max|s| holds every n-step path, so no mass wraps
    around. Only the box-size guard is the library's own.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    gen = p.generator_set
    radius = n * gen.max_step_norm
    q = np.zeros(_box_shape(radius, gen.dimension))
    center = (radius,) * gen.dimension
    q[center] = 1.0
    axes = tuple(range(gen.dimension))
    for _ in range(n):
        q = sum(w * np.roll(q, s, axis=axes) for s, w in zip(gen.steps, p.weights) if w)
    return float(q[center])


def field_csv_reference(field, config_hash, master_seed):
    """``field.csv`` as written by one ``value_at`` call per site of the ball."""
    d = field.values.ndim
    cols = [f"x{i + 1}" for i in range(d)] if d > 1 else ["x"]
    lines = [f"# config_hash={config_hash}", f"# master_seed={master_seed}",
             ",".join(cols + ["value"])]
    r = field.radius
    for site in product(range(-r, r + 1), repeat=d):
        lines.append(",".join(str(c) for c in site) + f",{field.value_at(site)!r}")
    return "\n".join(lines) + "\n"


def harmonic_residual(field, env):
    """Worst relative defect of the balance equation m(x) * P f(x) = f(x).

    Checked on interior sites (those whose whole step neighborhood stays in
    the ball), x != origin, using the realized per-site laws of ``env``.
    """
    gen = env.spec.generator_set
    d = gen.dimension
    r = field.radius
    interior = r - gen.max_step_norm
    worst = 0.0
    for site in product(range(-interior, interior + 1), repeat=d):
        if all(c == 0 for c in site):
            continue
        step_law, offspring_law = env.site_law(site)
        pf = 0.0
        for s, w in zip(gen.steps, step_law.weights):
            neighbor = tuple(a + b for a, b in zip(site, s))
            pf += w * field.value_at(neighbor)
        fx = field.value_at(site)
        defect = abs(offspring_law.mean * pf - fx) / max(fx, 1.0)
        worst = max(worst, defect)
    return worst


def first_return_prob(p_right, q_left, n):
    """First-return-to-0 probability at time n for the biased walk on Z."""
    if n % 2 or n == 0:
        return 0.0
    k = n // 2
    return math.comb(2 * k, k) / (2 * k - 1) * (p_right * q_left) ** k


def first_return_gf(p_right, q_left, z):
    """F(z) = sum_n f_n z^n = 1 - sqrt(1 - 4 p q z^2) for the biased walk on Z."""
    return 1.0 - math.sqrt(1.0 - 4.0 * p_right * q_left * z * z)


def expected_nu_series(p_right, q_left, m, horizon):
    """sum_{n <= horizon} m^n f_n: the truncated expected frozen tally."""
    return sum(m ** n * first_return_prob(p_right, q_left, n) for n in range(1, horizon + 1))


def solve_nu_field_exact(env, x0, radius):
    """E_x nu(x0) on the ball by the absorbing-chain linear solve.

    Solves f(x) = m(x) * sum_s w_x(s) f(x+s) for x in ball minus origin,
    with f(x0) = 1 and f = 0 outside the ball. Returns a dict site -> value
    including f(x0) = 1.
    """
    gen = env.spec.generator_set
    d = gen.dimension
    x0 = tuple(x0)
    sites = [s for s in product(range(-radius, radius + 1), repeat=d) if s != x0]
    index = {s: i for i, s in enumerate(sites)}
    n = len(sites)
    a = np.eye(n)
    b = np.zeros(n)
    for s in sites:
        i = index[s]
        step_law, offspring_law = env.site_law(s)
        m = offspring_law.mean
        for step, w in zip(gen.steps, step_law.weights):
            y = tuple(c + t for c, t in zip(s, step))
            if y == x0:
                b[i] += m * w
            elif y in index:
                a[i, index[y]] -= m * w
    f = np.linalg.solve(a, b)
    out = {s: float(f[index[s]]) for s in sites}
    out[x0] = 1.0
    return out


def _multinomial_outcomes(total, probs):
    """All (counts, probability) splits of ``total`` over the given categories."""
    k = len(probs)
    if k == 1:
        yield (total,), probs[0] ** total if total else 1.0
        return
    for first in range(total + 1):
        head = math.comb(total, first) * probs[0] ** first
        for rest, pr in _multinomial_outcomes(total - first, probs[1:]):
            yield (first,) + rest, head * pr


def enumerate_bmc_star(env, x0, x_start, horizon):
    """Exact distribution of the frozen-origin front after ``horizon`` steps.

    Expands every branching and movement outcome of every occupied site,
    using the realized per-site laws of ``env``. The returned dict maps
    atoms (frozen, sorted count items) to probabilities.
    """
    gen = env.spec.generator_set
    x0 = tuple(x0)
    start = (0, ((tuple(x_start), 1),))
    states = {start: 1.0}
    for _ in range(horizon):
        nxt = {}
        for (frozen, counts), prob in states.items():
            outcomes = [((), 1.0)]
            # Branch: per-site split of c particles over the offspring support.
            for site, c in counts:
                _, mu = env.site_law(site)
                ks = [k for k, _ in mu.support]
                ps = [w for _, w in mu.support]
                grown = []
                for split, pr in _multinomial_outcomes(c, ps):
                    t = sum(k * s for k, s in zip(ks, split))
                    grown.append((t, pr))
                outcomes = [
                    (acc + ((site, t),), ap * pr)
                    for acc, ap in outcomes
                    for t, pr in grown
                ]
            # Move: per-site split of the offspring total over the step law.
            for branched, bp in outcomes:
                moved = [({}, 1.0)]
                for site, t in branched:
                    law, _ = env.site_law(site)
                    splits = list(_multinomial_outcomes(t, list(law.weights)))
                    moved = [
                        (_scatter(acc, site, split, gen.steps), ap * pr)
                        for acc, ap in moved
                        for split, pr in splits
                    ]
                for placed, mp in moved:
                    new_frozen = frozen + placed.pop(x0, 0)
                    key = (new_frozen, tuple(sorted(placed.items())))
                    nxt[key] = nxt.get(key, 0.0) + prob * bp * mp
        states = nxt
    return states


def _scatter(acc, site, split, steps):
    out = dict(acc)
    for count, step in zip(split, steps):
        if count:
            y = tuple(c + t for c, t in zip(site, step))
            out[y] = out.get(y, 0) + count
    return out


def window_atom(frozen, counts, lo):
    """The (frozen, sorted counts) atom of a one-rank window, for comparisons.

    ``counts`` has shape (1, *window) and ``lo`` is the window's lower corner.
    """
    window = counts[0]
    items = ((tuple(int(l + i) for l, i in zip(lo, idx)), int(window[idx]))
             for idx in zip(*np.nonzero(window)))
    return frozen, tuple(sorted(items))


def zero_in_hull_1d(drifts):
    """0 in the convex hull of scalars, exactly."""
    fr = [Fraction(x) for x in drifts]
    return min(fr) <= 0 <= max(fr)


def label_components_bfs(shape, center, moves):
    """Breadth-first labels of the punctured ball's step-connected components.

    0 marks the excluded center; components are numbered 1..n in the
    ``np.ndindex`` order of their first sites.
    """
    labels = np.zeros(shape, dtype=np.int32)
    labels[center] = -1
    next_label = 0
    for start in np.ndindex(shape):
        if labels[start] != 0:
            continue
        next_label += 1
        queue = deque([start])
        labels[start] = next_label
        while queue:
            site = queue.popleft()
            for mv in moves:
                nb = tuple(a + b for a, b in zip(site, mv))
                if all(0 <= c < n for c, n in zip(nb, shape)) and labels[nb] == 0:
                    labels[nb] = next_label
                    queue.append(nb)
    labels[center] = 0
    return labels
