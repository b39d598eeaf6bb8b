"""Exact-count Monte Carlo of branching walks on a ranked window.

A run's state is a dense array of particle counts of shape
``(ranks, *window)``. The window is a box of Z^d whose lower corner ``lo``
travels with the array; the leading axis is the return rank, the number of
times a particle's ancestry line has arrived at the origin. Particles with
the same site and rank are exchangeable, so a (rank, site)'s branching step
is a single multinomial draw over the offspring support and the dispersal
of its offspring total is a multinomial draw over the step law. This
aggregated sampling is exact in distribution and survives population sizes
that kill per-particle simulation.

One origin rule serves every process: after dispersal, arrivals at the
origin in rank r move to rank r + 1, and arrivals in the top rank leave the
window and are tallied. With one rank this is the frozen-origin process;
with G ranks it is the embedded return process observed for G generations;
without an origin it is the plain process.

Counts are 64-bit integers; a (rank, site) count that would overflow the
(configurable) cap is clamped and the run is marked saturated. Bulk counts
then become lower bounds, while origin tallies in the transient regime
stay effectively exact because the clamped mass sits far from the origin.

Every replicate's randomness is a pure function of (master seed, replicate
index), so runs replay bitwise and replicates can be farmed out in any
order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .kernel import _sweep_views

COUNT_CAP_DEFAULT = 2 ** 63 - 1


@dataclass
class NuEstimate:
    """Monte Carlo estimate of the expected frozen-origin tally."""

    mean: float
    std_error: float
    replicates: int
    saturated_runs: int
    horizon: int
    reliable: bool = True

    @classmethod
    def from_records(cls, records):
        """Reduce ``replicate_records`` output to the sample mean and its error.

        Saturated replicates are counted and reported; their tallies still
        enter the mean (saturation clamps bulk counts far from the origin, so
        the origin tally is unaffected in the transient regime). The estimate
        is flagged unreliable when more than 1% of runs saturate.
        """
        n = len(records)
        values = np.fromiter((r["nu_observed"] for r in records), dtype=float, count=n)
        saturated_runs = sum(r["saturated"] for r in records)
        return cls(
            mean=float(values.mean()),
            std_error=float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
            replicates=n,
            saturated_runs=saturated_runs,
            horizon=records[0]["horizon"],
            reliable=saturated_runs <= 0.01 * n,
        )


@dataclass
class BmcStarResult:
    """One frozen-origin run: final tally plus a trace summary."""

    nu_observed: int
    horizon: int
    saturated: bool
    population: np.ndarray  # total particles after each step (float summary)


@dataclass
class GwObservation:
    """Generation sizes of the embedded return process from one run.

    ``z[r - 1]`` counts the particles that were the r-th in their ancestry
    line to return to the origin within the horizon. ``truncated`` marks a
    run in which some count was clamped at the cap.
    """

    z: np.ndarray
    truncated: bool


class _EnvTables:
    """Array form of a realized environment's law supports."""

    def __init__(self, env):
        spec = env.spec
        gen = spec.generator_set
        self.env = env
        self.d = gen.dimension
        self.steps = tuple(gen.steps)
        self.nsteps = len(self.steps)
        self.pad = gen.max_step_norm
        self.step_weights = [np.asarray(p.weights, dtype=float) for p in spec.step_laws()]
        self.off_ks = [
            np.asarray([k for k, _ in mu.support], dtype=np.int64)
            for mu in spec.offspring_laws()
        ]
        self.off_ps = [
            np.asarray([w for _, w in mu.support], dtype=float)
            for mu in spec.offspring_laws()
        ]
        self.kmax = max(int(ks.max()) for ks in self.off_ks)
        self.multi_step = len(self.step_weights) > 1
        self.multi_off = len(self.off_ks) > 1

    def safe_cap(self, cap):
        # Keep every intermediate (branch totals, per-site accumulation over
        # all steps) strictly inside int64.
        bound = COUNT_CAP_DEFAULT // (self.kmax * self.nsteps)
        return min(int(cap), bound)


def _window_coords(lo, shape):
    axes = [np.arange(l, l + n, dtype=np.int64) for l, n in zip(lo, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _trim(counts, lo):
    """Shrink the window (not the rank axis) to the box of occupied sites."""
    nz = np.nonzero(counts)[1:]
    if len(nz[0]) == 0:
        return np.zeros((counts.shape[0],) + (0,) * (counts.ndim - 1), dtype=np.int64), lo
    slices = tuple(slice(int(a.min()), int(a.max()) + 1) for a in nz)
    new_lo = np.array([l + s.start for l, s in zip(lo, slices)], dtype=np.int64)
    return np.ascontiguousarray(counts[(slice(None),) + slices]), new_lo


def _advance(counts, lo, tables, rng, origin, cap_eff):
    """One exact branch-then-move step on a ranked window.

    ``counts`` has shape (ranks, *window). Returns (counts, lo, arrivals,
    clamped), where ``arrivals[r]`` is the number of rank-r particles that
    arrived at ``origin``; when ``origin`` is None arrivals are left in place
    (plain process) and reported as zero.
    """
    ranks = counts.shape[0]
    if counts.size == 0:
        return counts, lo, [0] * ranks, False
    pad = tables.pad
    shape = counts.shape
    window = shape[1:]
    flat = counts.reshape(ranks, -1)  # (ranks, sites): law indices broadcast over ranks
    if tables.multi_off or tables.multi_step:
        coords = _window_coords(lo, window)

    # Branching: offspring totals per (rank, site), one exact multinomial per
    # law (a two-point support reduces to a single binomial).
    def branch(n, ks, ps):
        if len(ks) == 1:
            return n * ks[0]
        if len(ks) == 2:
            hi = rng.binomial(n, ps[1])
            return n * ks[0] + hi * (ks[1] - ks[0])
        return rng.multinomial(n, ps) @ ks

    if tables.multi_off:
        off_idx = tables.env.offspring_law_indices(coords)
        totals = np.zeros(flat.shape, dtype=np.int64)
        for j, (ks, ps) in enumerate(zip(tables.off_ks, tables.off_ps)):
            sel = off_idx == j
            if not sel.any():
                continue
            t = branch(np.where(sel, flat, 0), ks, ps)
            totals[:, sel] = t[:, sel]
    else:
        totals = branch(flat, tables.off_ks[0], tables.off_ps[0])

    # Dispersal: multinomial split of each (rank, site)'s offspring over its
    # site's step law, accumulated by shifted slice adds on the padded window.
    new_shape = (ranks,) + tuple(n + 2 * pad for n in window)
    new_lo = lo - pad
    new = np.zeros(new_shape, dtype=np.int64)
    views = [(slice(None),) + v for v in _sweep_views(window, tables.steps, pad)]
    if tables.multi_step:
        step_idx = tables.env.step_law_indices(coords)
    for i, w in enumerate(tables.step_weights):
        n = totals if not tables.multi_step else np.where(step_idx == i, totals, 0)
        if tables.nsteps == 2:
            first = rng.binomial(n, w[0])
            new[views[0]] += first.reshape(shape)
            new[views[1]] += (n - first).reshape(shape)
        else:
            draws = rng.multinomial(n, w)  # (ranks, window, steps)
            for c, view in enumerate(views):
                new[view] += draws[..., c].reshape(shape)

    # The origin rule: rank r arrivals move up to rank r + 1; top-rank
    # arrivals leave the window.
    arrivals = [0] * ranks
    if origin is not None:
        local = tuple(int(o - l) for o, l in zip(origin, new_lo))
        if all(0 <= c < n for c, n in zip(local, new_shape[1:])):
            column = new[(slice(None),) + local]
            arrivals = column.tolist()
            column[1:] = arrivals[:-1]
            column[0] = 0

    clamped = False
    over = new > cap_eff
    if over.any():
        new[over] = cap_eff
        clamped = True

    new, new_lo = _trim(new, new_lo)
    return new, new_lo, arrivals, clamped


def _rng_for(master_seed, replicate=None):
    entropy = [int(master_seed)] if replicate is None else [int(master_seed), int(replicate)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _replicate(tables, cap_eff, rng, x_start, origin, ranks, horizon):
    """Yield (counts, lo, arrivals, clamped) after each step of one run.

    The run starts from one rank-0 particle at ``x_start`` and ends early
    once the window holds no particle.
    """
    counts = np.zeros((ranks,) + (1,) * tables.d, dtype=np.int64)
    counts[0] = 1
    lo = np.asarray(tuple(x_start), dtype=np.int64)
    for _ in range(horizon):
        if counts.size == 0:
            return
        counts, lo, arrivals, clamped = _advance(counts, lo, tables, rng, origin, cap_eff)
        yield counts, lo, arrivals, clamped


def _replicates(env, replicates, master_seed, cap, x_start, origin, horizon):
    """One-rank step streams of replicates 0, 1, ...; stream i draws from (master_seed, i)."""
    tables = _EnvTables(env)
    cap_eff = tables.safe_cap(cap)
    for i in range(replicates):
        yield _replicate(tables, cap_eff, _rng_for(master_seed, i), x_start, origin, 1, horizon)


def _star_result(steps, horizon):
    frozen = 0
    saturated = False
    population = np.empty(horizon)
    done = 0
    for done, (counts, _, arrivals, clamped) in enumerate(steps, 1):
        frozen += arrivals[0]
        saturated = saturated or clamped
        population[done - 1] = float(counts.sum(dtype=np.float64)) + frozen
    population[done:] = float(frozen)
    return BmcStarResult(
        nu_observed=frozen,
        horizon=horizon,
        saturated=saturated,
        population=population,
    )


def run_bmc_star(env, x0, x_start, horizon, cap=COUNT_CAP_DEFAULT, seed=0):
    """Run the frozen-origin process and return the tally at the horizon.

    The first step is the plain process everywhere (the origin only starts
    freezing afterwards; since steps are nonzero this only matters for the
    starting particle, which branches normally even when started at the
    origin). The tally is monotone in the horizon and bounds the limiting
    frozen count from below.
    """
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    tables = _EnvTables(env)
    steps = _replicate(tables, tables.safe_cap(cap), _rng_for(seed), x_start, x0, 1, horizon)
    return _star_result(steps, horizon)


def estimate_nu(env, x0, x_start, replicates, horizon, cap=COUNT_CAP_DEFAULT, master_seed=0):
    """Sample mean and standard error of the frozen tally over replicates.

    The reduction of ``replicate_records`` by ``NuEstimate.from_records``.
    """
    if replicates < 1:
        raise PreconditionError("replicates must be >= 1")
    return NuEstimate.from_records(
        replicate_records(env, x0, x_start, replicates, horizon, cap, master_seed))


def replicate_records(env, x0, x_start, replicates, horizon, cap=COUNT_CAP_DEFAULT, master_seed=0):
    """Per-replicate (index, nu_observed, saturated) records, index-ordered."""
    out = []
    for i, steps in enumerate(_replicates(env, replicates, master_seed, cap,
                                          x_start, x0, horizon)):
        res = _star_result(steps, horizon)
        out.append({"replicate": i, "nu_observed": res.nu_observed,
                    "saturated": res.saturated, "horizon": horizon})
    return out


def gw_return_process(env, x0, generations, cap, horizon, seed=0):
    """Generation sizes of the embedded return process, from a run started at x0.

    The ranked window with ``generations`` ranks: an arrival at the origin
    whose ancestry line thereby returns for the r-th time contributes to
    generation r, and lineages past the last generation leave the window
    (their descendants cannot contribute). ``cap`` is the per-site count cap
    of the other entry points; the observation is flagged truncated when a
    count was clamped, and the run goes on to the horizon.
    """
    if generations < 1:
        raise PreconditionError("generations must be >= 1")
    tables = _EnvTables(env)
    z = [0] * generations
    truncated = False
    for _, _, arrivals, clamped in _replicate(
            tables, tables.safe_cap(cap), _rng_for(seed), x0, x0, generations, horizon):
        z = [a + b for a, b in zip(z, arrivals)]
        truncated = truncated or clamped
    return GwObservation(z=np.asarray(z), truncated=truncated)


def estimate_alpha(env, x0, replicates, horizon, return_threshold,
                   cap=COUNT_CAP_DEFAULT, master_seed=0):
    """Fraction of plain-process runs with at least ``return_threshold``
    cumulative origin visits within the horizon.

    A finite-horizon surrogate for the probability of infinitely many origin
    visits: heuristic by construction, and meaningful only as the horizon
    and threshold grow together. With a branching-free environment and
    threshold 1 this is the walk's return probability within the horizon.
    """
    if return_threshold < 1:
        raise PreconditionError("return_threshold must be >= 1")
    if replicates < 1:
        raise PreconditionError("replicates must be >= 1")
    hits = 0
    for steps in _replicates(env, replicates, master_seed, cap, x0, None, horizon):
        visits = 0
        for counts, lo, _, _ in steps:
            local = tuple(int(o - l) for o, l in zip(x0, lo))
            if all(0 <= c < n for c, n in zip(local, counts.shape[1:])):
                visits += int(counts[(0,) + local])
            if visits >= return_threshold:
                break
        hits += visits >= return_threshold
    return hits / replicates
