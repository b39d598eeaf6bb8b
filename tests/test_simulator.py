import math

import numpy as np
import pytest

from brwre import (
    COUNT_CAP_DEFAULT,
    EnvironmentSpec,
    GeneratorSet,
    OffspringDistribution,
    PreconditionError,
    RealizedEnvironment,
    StepDistribution,
    estimate_alpha,
    estimate_nu,
    gw_return_process,
    run_bmc_star,
)
from brwre.presets import get_preset
from brwre.simulator import _EnvTables, _replicate, _rng_for

from oracles import (
    enumerate_bmc_star,
    expected_nu_series,
    first_return_gf,
    first_return_prob,
    window_atom,
)


def spec_1d(weights, masses, gamma=0.05):
    gen = GeneratorSet.nearest_neighbor(1)
    return EnvironmentSpec(
        generator_set=gen,
        step_support=((StepDistribution(gen, weights), 1.0),),
        offspring_support=((OffspringDistribution(tuple(masses.items())), 1.0),),
        gamma=gamma,
    )


def rw_env(weights, seed=0):
    """Branching-free environment: the process is a plain random walk."""
    return RealizedEnvironment(spec_1d(weights, {1: 1.0}), seed)


def step_stream(env, rng, horizon, origin=None, cap=COUNT_CAP_DEFAULT):
    """The library's one-rank step stream from one particle at 0."""
    tables = _EnvTables(env)
    return _replicate(tables, tables.safe_cap(cap), rng, (0,), origin, 1, horizon)


def occupied(counts, lo):
    """Site -> count of a one-rank window."""
    return dict(window_atom(0, counts, lo)[1])


class TestStepBmc:
    """Single steps of the frozen-origin and plain processes."""

    def test_single_walker_moves_to_a_neighbor(self):
        env = rw_env((0.9, 0.1))
        steps = list(step_stream(env, np.random.default_rng(0), 1))
        assert len(steps) == 1
        (counts, lo, _, _), = steps
        out = occupied(counts, lo)
        assert sum(out.values()) == 1
        assert set(out) <= {(1,), (-1,)}

    def test_deterministic_doubling(self):
        env = RealizedEnvironment(spec_1d((0.5, 0.5), {2: 1.0}), 1)
        rng = np.random.default_rng(5)
        totals = [counts.sum() for counts, _, _, _ in step_stream(env, rng, 10)]
        assert totals == [2 ** n for n in range(1, 11)]

    def test_two_offspring_spread_over_neighbors(self):
        env = RealizedEnvironment(spec_1d((0.5, 0.5), {2: 1.0}), 1)
        (counts, lo, _, _), = step_stream(env, np.random.default_rng(3), 1)
        out = occupied(counts, lo)
        assert sum(out.values()) == 2
        assert set(out) <= {(1,), (-1,)}

    def test_no_death_monotonicity(self):
        env = RealizedEnvironment(
            spec_1d((0.7, 0.3), {1: 0.5, 2: 0.5}), 11
        )
        rng = np.random.default_rng(17)
        prev = 1
        for counts, _, _, _ in step_stream(env, rng, 25):
            assert counts.sum() >= prev
            prev = counts.sum()

    def test_frozen_origin_mode(self):
        env = RealizedEnvironment(spec_1d((0.5, 0.5), {1: 0.5, 2: 0.5}), 2)
        rng = np.random.default_rng(9)
        frozen = 0
        for counts, lo, arrivals, _ in step_stream(env, rng, 12, origin=(0,)):
            frozen += arrivals[0]
            assert (0,) not in occupied(counts, lo)
        assert frozen >= 0

    def test_small_cap_saturates_and_clamps(self):
        env = RealizedEnvironment(spec_1d((0.5, 0.5), {2: 1.0}), 1)
        rng = np.random.default_rng(5)
        saturated = False
        for counts, _, _, clamped in step_stream(env, rng, 16, cap=100):
            saturated = saturated or clamped
        assert saturated
        assert counts.max() <= 100


class TestRunBmcStar:
    def test_horizon_one_from_origin_freezes_nothing(self):
        env = RealizedEnvironment(spec_1d((0.5, 0.5), {1: 0.5, 2: 0.5}), 3)
        res = run_bmc_star(env, (0,), (0,), horizon=1, seed=4)
        assert res.nu_observed == 0

    def test_walker_return_probability_drifted(self):
        # no branching: nu is the indicator of ever returning, P = 2q = 0.2
        env = rw_env((0.9, 0.1), seed=6)
        est = estimate_nu(env, (0,), (0,), replicates=4000, horizon=150, master_seed=2)
        assert est.mean == pytest.approx(0.2, abs=3 * est.std_error + 1e-9)
        assert set([0, 1]) >= set(
            run_bmc_star(env, (0,), (0,), 50, seed=i).nu_observed for i in range(50)
        )

    def test_symmetric_walker_returns_often(self):
        env = rw_env((0.5, 0.5), seed=8)
        est = estimate_nu(env, (0,), (0,), replicates=2000, horizon=400, master_seed=3)
        # recurrent walk: finite-horizon estimate below 1 but already large
        oracle = sum(first_return_prob(0.5, 0.5, n) for n in range(1, 401))
        assert est.mean == pytest.approx(oracle, abs=3 * est.std_error)
        assert est.mean < 1.0

    def test_determinism_bitwise(self):
        env = RealizedEnvironment(get_preset("drift-z1"), 7)
        a = run_bmc_star(env, (0,), (0,), 60, seed=11)
        b = run_bmc_star(env, (0,), (0,), 60, seed=11)
        assert a.nu_observed == b.nu_observed
        assert np.array_equal(a.population, b.population)

    @pytest.mark.parametrize("seed", [13, 0])
    def test_population_trace_monotone(self, seed):
        # seed 13 freezes out at step 2; seed 0 grows, so a drop could show
        env = RealizedEnvironment(get_preset("drift-z1"), 7)
        res = run_bmc_star(env, (0,), (0,), 60, seed=seed)
        assert np.all(np.diff(res.population) >= 0)
        if seed == 0:
            assert res.population[-1] > 100

    def test_requires_positive_horizon(self):
        env = rw_env((0.5, 0.5))
        with pytest.raises(PreconditionError):
            run_bmc_star(env, (0,), (0,), horizon=0)


class TestEstimateNu:
    def test_transient_preset_matches_generating_function(self):
        env = RealizedEnvironment(get_preset("drift-z1"), 7)
        est = estimate_nu(env, (0,), (0,), replicates=3000, horizon=150, master_seed=5)
        target = first_return_gf(0.9, 0.1, 1.5)
        assert est.mean == pytest.approx(target, abs=3 * est.std_error)

    def test_recurrent_regime_exceeds_one(self):
        env = RealizedEnvironment(get_preset("recurrent-z1"), 7)
        est = estimate_nu(env, (0,), (0,), replicates=800, horizon=200, master_seed=6)
        assert est.mean > 1.0
        assert est.saturated_runs > 0  # the bulk outgrows int64 at this horizon
        assert not est.reliable

    def test_horizon_convergence_for_transient_preset(self):
        env = RealizedEnvironment(get_preset("drift-z1"), 7)
        a = estimate_nu(env, (0,), (0,), 2500, 100, master_seed=8)
        b = estimate_nu(env, (0,), (0,), 2500, 200, master_seed=9)
        assert abs(a.mean - b.mean) < 2 * math.hypot(a.std_error, b.std_error)

    def test_truncated_oracle_series(self):
        # short horizons compare against the truncated series sum m^n f_n
        env = RealizedEnvironment(get_preset("drift-z1"), 7)
        est = estimate_nu(env, (0,), (0,), 4000, 20, master_seed=10)
        target = expected_nu_series(0.9, 0.1, 1.5, 20)
        assert est.mean == pytest.approx(target, abs=3 * est.std_error)

    def test_replicate_purity(self):
        env = RealizedEnvironment(get_preset("drift-z1"), 7)
        small = estimate_nu(env, (0,), (0,), 50, 60, master_seed=12)
        again = estimate_nu(env, (0,), (0,), 50, 60, master_seed=12)
        assert small.mean == again.mean

    def test_requires_replicates(self):
        env = rw_env((0.5, 0.5))
        with pytest.raises(PreconditionError):
            estimate_nu(env, (0,), (0,), 0, 10)


class TestAggregatedAgainstBruteForce:
    def test_three_step_distribution(self):
        # two step laws and two offspring laws realized over a small window
        gen = GeneratorSet.nearest_neighbor(1)
        spec = EnvironmentSpec(
            generator_set=gen,
            step_support=(
                (StepDistribution(gen, (0.7, 0.3)), 0.5),
                (StepDistribution(gen, (0.3, 0.7)), 0.5),
            ),
            offspring_support=(
                (OffspringDistribution(((1, 0.6), (2, 0.4))), 0.5),
                (OffspringDistribution.point(1), 0.5),
            ),
            gamma=0.05,
        )
        env = RealizedEnvironment(spec, 17)
        horizon = 3
        exact = enumerate_bmc_star(env, (0,), (0,), horizon)
        assert abs(sum(exact.values()) - 1.0) < 1e-9
        reps = 30000
        counts = {}
        rng_master = 77
        for i in range(reps):
            frozen = 0
            for window, lo, arrivals, _ in step_stream(env, _rng_for(rng_master, i), horizon,
                                                       origin=(0,)):
                frozen += arrivals[0]
            atom = window_atom(frozen, window, lo)
            counts[atom] = counts.get(atom, 0) + 1
        assert set(counts) <= set(exact)
        for atom, p in exact.items():
            if p < 1e-5:
                continue
            observed = counts.get(atom, 0) / reps
            sigma = math.sqrt(p * (1 - p) / reps)
            assert abs(observed - p) <= 4 * sigma + 1e-12, (atom, observed, p)


class TestGwReturnProcess:
    def test_single_lineage_zero_one(self):
        env = rw_env((0.5, 0.5), seed=4)
        for i in range(30):
            obs = gw_return_process(env, (0,), 3, 10 ** 5, 60, seed=i)
            assert all(z in (0, 1) for z in obs.z)
            # a dead lineage cannot come back
            seen_zero = False
            for z in obs.z:
                if seen_zero:
                    assert z == 0
                if z == 0:
                    seen_zero = True

    def test_first_generation_matches_nu(self):
        env = RealizedEnvironment(get_preset("drift-z1"), 7)
        zs = [gw_return_process(env, (0,), 1, 10 ** 6, 120, seed=i).z[0] for i in range(600)]
        mean = float(np.mean(zs))
        se = float(np.std(zs, ddof=1) / math.sqrt(len(zs)))
        target = first_return_gf(0.9, 0.1, 1.5)
        assert mean == pytest.approx(target, abs=3.5 * se)

    def test_supercritical_generations_survive(self):
        env = RealizedEnvironment(get_preset("symmetric-z1"), 7)
        alive = 0
        runs = 60
        for i in range(runs):
            obs = gw_return_process(env, (0,), 3, 2 * 10 ** 5, 50, seed=i)
            alive += obs.z[2] > 0
        assert alive / runs > 0.3

    def test_truncation_flag(self):
        env = RealizedEnvironment(get_preset("symmetric-z1"), 7)
        obs = gw_return_process(env, (0,), 3, 10, 50, seed=1)
        assert obs.truncated

    @pytest.mark.parametrize("preset", ["drift-z1", "drift-pair-z1"])
    def test_one_generation_is_the_frozen_tally(self, preset):
        # One rank is the frozen-origin process itself, draw for draw; the cap
        # makes most runs clamp, so both values of the flag are compared.
        env = RealizedEnvironment(get_preset(preset), 7)
        for s in range(30):
            obs = gw_return_process(env, (0,), 1, 10 ** 6, 100, seed=s)
            star = run_bmc_star(env, (0,), (0,), 100, 10 ** 6, seed=s)
            assert obs.z[0] == star.nu_observed
            assert obs.truncated == star.saturated

    def test_second_return_of_a_walker(self):
        # Without branching, z[1] == 1 exactly when the walk returns twice:
        # P = sum_{n <= 40} (f * f)_n for the first-return law f.
        env = rw_env((0.5, 0.5))
        horizon, runs = 40, 1500
        f = [first_return_prob(0.5, 0.5, n) for n in range(horizon + 1)]
        oracle = sum(f[k] * f[n - k] for n in range(horizon + 1) for k in range(n + 1))
        assert oracle == pytest.approx(0.7493, abs=1e-4)
        hits = sum(
            gw_return_process(env, (0,), 2, COUNT_CAP_DEFAULT, horizon, seed=s).z[1] == 1
            for s in range(runs)
        )
        sigma = math.sqrt(oracle * (1 - oracle) / runs)
        assert abs(hits / runs - oracle) <= 4 * sigma


class TestEstimateAlpha:
    def test_plain_walk_matches_return_cdf(self):
        env = rw_env((0.5, 0.5), seed=3)
        horizon = 40
        frac = estimate_alpha(env, (0,), 1500, horizon, 1, master_seed=21)
        oracle = sum(first_return_prob(0.5, 0.5, n) for n in range(1, horizon + 1))
        sigma = math.sqrt(oracle * (1 - oracle) / 1500)
        assert abs(frac - oracle) <= 4 * sigma

    def test_recurrent_preset_fraction_near_one(self):
        env = RealizedEnvironment(get_preset("symmetric-z1"), 7)
        frac = estimate_alpha(env, (0,), 300, 40, 5, master_seed=22)
        assert frac > 0.9

    def test_transient_preset_fraction_small(self):
        env = RealizedEnvironment(get_preset("drift-z1"), 7)
        frac = estimate_alpha(env, (0,), 400, 100, 20, master_seed=23)
        assert frac < 0.1

    def test_threshold_precondition(self):
        env = rw_env((0.5, 0.5))
        with pytest.raises(PreconditionError):
            estimate_alpha(env, (0,), 10, 10, 0)
