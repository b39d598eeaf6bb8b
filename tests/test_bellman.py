import math

import numpy as np
import pytest

from brwre import (
    BOUNDED,
    DIVERGING,
    ConvergenceError,
    EnvironmentSpec,
    GeneratorSet,
    OffspringDistribution,
    RealizedEnvironment,
    StepDistribution,
    ValueField,
    critical_m,
    env_rho,
    estimate_nu,
    value_iteration,
)
from brwre.bellman import _components
from brwre.presets import PRESETS, get_preset

from oracles import harmonic_residual, label_components_bfs, solve_nu_field_exact


def singleton_spec(weights, offspring_masses, gamma=0.05):
    gen = GeneratorSet.nearest_neighbor(1)
    return EnvironmentSpec(
        generator_set=gen,
        step_support=((StepDistribution(gen, weights), 1.0),),
        offspring_support=(
            (OffspringDistribution(tuple(offspring_masses.items())), 1.0),
        ),
        gamma=gamma,
    )


DRIFT = get_preset("drift-z1")


def killed_walk_threshold(weights, radius):
    """1 / growth rate of one nearest-neighbour law on Z, killed at 0 and outside the ball."""
    p, q = weights
    return 1.0 / (2.0 * math.sqrt(p * q) * math.cos(math.pi / (radius + 1)))


class TestValueIteration:
    def test_subcritical_mean_is_bounded(self):
        res = value_iteration(DRIFT, 1.2, 60)
        assert res.status == BOUNDED
        assert np.all(np.isfinite(res.field.values))

    def test_supercritical_mean_diverges(self):
        res = value_iteration(DRIFT, 1.9, 60)
        assert res.status == DIVERGING

    def test_unit_mean_bounded_by_pin(self):
        for name in ("drift-z1", "zero-drift-pair"):
            res = value_iteration(get_preset(name), 1.0, 25, max_sweeps=20000)
            assert res.status == BOUNDED
            assert float(res.field.values.max()) <= 1.0 + 1e-12

    def test_origin_is_pinned(self):
        res = value_iteration(DRIFT, 1.2, 30)
        assert res.field.value_at((0,)) == 1.0

    def test_monotone_in_sweeps(self):
        prev = None
        for sweeps in range(1, 12):
            res = value_iteration(DRIFT, 1.4, 12, max_sweeps=sweeps)
            if prev is not None:
                assert np.all(res.field.values >= prev - 1e-12)
            prev = res.field.values

    def test_monotone_in_radius(self):
        small = value_iteration(DRIFT, 1.3, 20)
        large = value_iteration(DRIFT, 1.3, 30)
        assert small.status == BOUNDED and large.status == BOUNDED
        inner = large.field.values[10:-10]
        assert np.all(inner >= small.field.values - 1e-12)

    def test_singleton_support_equals_linear_iteration(self):
        # field values stay O(1) at this mean, so the absolute comparison bites
        m, radius = 1.05, 20
        res = value_iteration(DRIFT, m, radius)
        assert res.status == BOUNDED
        # plain linear iteration of m * P f with the same pin and truncation
        law = DRIFT.step_laws()[0]
        f = np.zeros(2 * radius + 1)
        f[radius] = 1.0
        for _ in range(100000):
            padded = np.zeros(2 * radius + 3)
            padded[1:-1] = f
            new = m * (law.weights[0] * padded[2:] + law.weights[1] * padded[:-2])
            new[radius] = 1.0
            if np.max(np.abs(new - f)) < 1e-14:
                f = new
                break
            f = new
        assert np.max(np.abs(res.field.values - f)) <= 1e-10

    def test_indeterminate_when_budget_tiny(self):
        res = value_iteration(DRIFT, 1.66, 60, max_sweeps=3)
        assert res.status == "indeterminate"

    def test_preconditions(self):
        with pytest.raises(Exception):
            value_iteration(DRIFT, 0.0, 10)
        with pytest.raises(Exception):
            value_iteration(DRIFT, 1.2, 0)


class TestCriticalM:
    def test_drifted_singleton(self):
        mc = critical_m(DRIFT, 40, 0.01).value
        assert abs(mc * 0.6 - 1.0) <= 0.02

    def test_symmetric_singleton(self):
        mc = critical_m(get_preset("symmetric-z1"), 40, 0.01).value
        assert abs(mc - 1.0) <= 0.02

    def test_zero_drift_pair(self):
        mc = critical_m(get_preset("zero-drift-pair"), 40, 0.01).value
        assert abs(mc - 1.0) <= 0.02

    def test_threshold_brackets_behaviour(self):
        mc = critical_m(DRIFT, 30, 0.02).value
        assert value_iteration(DRIFT, mc + 0.05, 30, max_sweeps=40000).status == DIVERGING
        assert value_iteration(DRIFT, mc - 0.05, 30, max_sweeps=40000).status == BOUNDED

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_certificate_decides_divergence_early(self, preset):
        # Above m(R) the companion ratios certify growth within a few sweeps,
        # long before the field itself is large.
        spec = get_preset(preset)
        mc = critical_m(spec, 20, 1e-6).value
        above = value_iteration(spec, mc + 0.05, 20, max_sweeps=50)
        assert above.status == DIVERGING
        assert value_iteration(spec, mc - 0.05, 20, max_sweeps=40000).status == BOUNDED

    def test_monotone_in_radius(self):
        coarse = critical_m(DRIFT, 15, 0.005).value
        fine = critical_m(DRIFT, 45, 0.005).value
        assert fine <= coarse + 0.01

    @pytest.mark.parametrize("radius", [3, 10, 30, 80])
    @pytest.mark.parametrize("preset", ["drift-z1", "symmetric-z1"])
    def test_single_law_matches_killed_walk(self, preset, radius):
        spec = get_preset(preset)
        exact = killed_walk_threshold(spec.step_laws()[0].weights, radius)
        assert abs(critical_m(spec, radius, 1e-10).value - exact) <= 1e-10

    @pytest.mark.parametrize("preset", ["drift-pair-z1", "strong-drift-pair", "zero-drift-pair"])
    def test_between_env_rho_and_best_single_law(self, preset):
        # The max-operator switches laws from site to site, so it grows at
        # least as fast as the best single law and at most at rate rho.
        spec, radius, tol = get_preset(preset), 30, 1e-8
        mc = critical_m(spec, radius, tol).value
        best = min(killed_walk_threshold(p.weights, radius) for p in spec.step_laws())
        assert 1.0 / env_rho(spec).rho - tol <= mc <= best + tol

    @pytest.mark.parametrize("preset", ["drift-z1", "drift-pair-z1", "nn-z2"])
    def test_result_carries_its_bracket(self, preset):
        spec = get_preset(preset)
        res = critical_m(spec, 20, 1e-6)
        assert res.lo <= res.value <= res.hi and res.hi - res.lo <= 1e-6
        assert res.value == 0.5 * (res.lo + res.hi)
        assert res.sweeps >= 2
        assert res.rho == env_rho(spec).rho

    def test_exhausted_budget_reports_the_bracket(self):
        with pytest.raises(ConvergenceError, match="bracketed in") as err:
            critical_m(DRIFT, 80, 1e-10, max_sweeps=50)
        assert err.value.residual > 1e-10


class TestComponents:
    @pytest.mark.parametrize("moves", [
        GeneratorSet.nearest_neighbor(1).steps,
        GeneratorSet.nearest_neighbor(2).steps,
        GeneratorSet(1, ((2,), (-2,), (3,), (-3,)), ((2,), (3,))).steps,
        ((2,), (-2,)),  # three components: the odd sites and each side's even ones
        ((1, 1), (-1, -1), (1, -1), (-1, 1)),  # two parity classes
    ])
    def test_flood_fill_matches_bfs(self, moves):
        d = len(moves[0])
        for radius in (1, 2, 3, 6, 11):
            shape, center = (2 * radius + 1,) * d, (radius,) * d
            fill = _components(shape, center, moves)
            bfs = label_components_bfs(shape, center, moves)
            pairs = set(zip(fill.ravel().tolist(), bfs.ravel().tolist()))
            # the same partition: labels correspond one to one, 0 to 0
            assert (0, 0) in pairs
            assert len(pairs) == len(set(fill.ravel().tolist())) == len(set(bfs.ravel().tolist()))


class TestHarmonicResidual:
    def test_exact_solve_field_is_harmonic(self):
        spec = singleton_spec((0.9, 0.1), {1: 0.8, 2: 0.2})  # m = 1.2, transient
        env = RealizedEnvironment(spec, seed=1)
        radius = 10
        exact = solve_nu_field_exact(env, (0,), radius)
        values = np.array([exact[(x,)] for x in range(-radius, radius + 1)])
        field = ValueField(radius=radius, values=values)
        assert harmonic_residual(field, env) <= 1e-8

    def test_constant_field_with_unit_mean(self):
        spec = singleton_spec((0.5, 0.5), {1: 1.0})
        env = RealizedEnvironment(spec, seed=2)
        field = ValueField(radius=8, values=np.ones(17))
        assert harmonic_residual(field, env) == pytest.approx(0.0, abs=1e-14)

    def test_monte_carlo_field_is_nearly_harmonic(self):
        spec = singleton_spec((0.9, 0.1), {1: 0.8, 2: 0.2})
        env = RealizedEnvironment(spec, seed=3)
        radius, horizon, reps = 4, 60, 4000
        values = np.empty(2 * radius + 1)
        errs = np.empty(2 * radius + 1)
        for x in range(-radius, radius + 1):
            if x == 0:
                values[radius], errs[radius] = 1.0, 0.0
                continue
            est = estimate_nu(env, (0,), (x,), reps, horizon, master_seed=100 + x)
            values[x + radius] = est.mean
            errs[x + radius] = est.std_error
        field = ValueField(radius=radius, values=values)
        resid = harmonic_residual(field, env)
        # after the m * P step the residual mixes neighbor errors; 3 combined
        # standard errors is the stated statistical budget
        law = spec.step_laws()[0]
        worst = 0.0
        for x in range(-radius + 1, radius):
            if x == 0:
                continue
            se = np.sqrt(
                (1.2 * law.weights[0] * errs[x + 1 + radius]) ** 2
                + (1.2 * law.weights[1] * errs[x - 1 + radius]) ** 2
                + errs[x + radius] ** 2
            ) / max(values[x + radius], 1.0)
            worst = max(worst, se)
        assert resid <= 3 * worst

    def test_truncated_nu_matches_exact_solve(self):
        # cross-module: the simulator's E_x nu agrees with the linear solve
        spec = singleton_spec((0.9, 0.1), {1: 0.8, 2: 0.2})
        env = RealizedEnvironment(spec, seed=4)
        exact = solve_nu_field_exact(env, (0,), 30)  # wide ball ~ infinite lattice
        est = estimate_nu(env, (0,), (1,), 5000, 80, master_seed=9)
        assert abs(est.mean - exact[(1,)]) <= 3 * est.std_error + 1e-3


class TestTheorySync:
    def test_critical_product_with_env_rho(self):
        for name in ("drift-z1", "drift-pair-z1"):
            spec = get_preset(name)
            mc = critical_m(spec, 40, 0.01).value
            rho = env_rho(spec).rho
            assert 0.97 <= mc * rho <= 1.03
