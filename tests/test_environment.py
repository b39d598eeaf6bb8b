import math

import numpy as np
import pytest

from brwre import (
    EnvironmentSpec,
    EnvironmentValidationError,
    GeneratorSet,
    OffspringDistribution,
    PreconditionError,
    RealizedEnvironment,
    StepDistribution,
    m_star,
    validate,
)

from oracles import couple_lower, couple_raise, mass, tail


def spec_z1(laws, offspring, gamma=0.05):
    gen = GeneratorSet.nearest_neighbor(1)
    share = 1.0 / len(laws)
    oshare = 1.0 / len(offspring)
    return EnvironmentSpec(
        generator_set=gen,
        step_support=tuple((StepDistribution(gen, w), share) for w in laws),
        offspring_support=tuple((mu, oshare) for mu in offspring),
        gamma=gamma,
    )


def offspring(masses):
    return OffspringDistribution(tuple(masses.items()))


class TestOffspringDistribution:
    def test_death_is_rejected(self):
        with pytest.raises(PreconditionError, match=">= 1|< 1"):
            offspring({0: 0.5, 2: 0.5})

    def test_mass_sum_enforced(self):
        with pytest.raises(PreconditionError, match="sum"):
            offspring({1: 0.6, 2: 0.5})

    def test_mean(self):
        assert offspring({1: 0.5, 2: 0.5}).mean == pytest.approx(1.5)
        assert OffspringDistribution.point(2).mean == 2.0

    def test_zero_masses_dropped(self):
        mu = offspring({1: 1.0, 5: 0.0})
        assert mu.support == ((1, 1.0),)

    @pytest.mark.parametrize("masses", [
        {1: 1.0, 2: math.nan}, {1: math.nan}, {1: math.inf}, {1: 1.0, 2: math.inf}])
    def test_non_finite_mass_rejected(self, masses):
        with pytest.raises(PreconditionError):
            offspring(masses)


class TestValidate:
    def test_valid_spec_returned_unchanged(self):
        spec = spec_z1([(0.9, 0.1)], [OffspringDistribution.point(2)])
        assert validate(spec) is spec

    def test_ellipticity_violation_names_the_step(self):
        with pytest.raises(EnvironmentValidationError) as err:
            spec_z1([(1.0, 0.0)], [OffspringDistribution.point(2)])
        assert any("(-1,)" in v for v in err.value.violations)

    def test_subcritical_offspring_rejected(self):
        spec = spec_z1([(0.9, 0.1)], [OffspringDistribution.point(1)])
        with pytest.raises(EnvironmentValidationError, match="m\\*"):
            validate(spec)

    def test_all_violations_reported(self):
        gen = GeneratorSet.nearest_neighbor(1)
        with pytest.raises(EnvironmentValidationError) as err:
            EnvironmentSpec(
                generator_set=gen,
                step_support=((StepDistribution(gen, (1.0, 0.0)), 0.7),),
                offspring_support=((OffspringDistribution.point(2), 1.0),),
                gamma=0.05,
            )
        violations = err.value.violations
        assert any("ellipticity" in v for v in violations)
        assert any("sum" in v for v in violations)

    def test_weight_sum_violation(self):
        gen = GeneratorSet.nearest_neighbor(1)
        with pytest.raises(EnvironmentValidationError) as err:
            EnvironmentSpec(
                generator_set=gen,
                step_support=((StepDistribution(gen, (0.9, 0.1)), 0.7),),
                offspring_support=((OffspringDistribution.point(2), 1.0),),
                gamma=0.05,
            )
        assert any("sum" in v for v in err.value.violations)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["gamma", "step_weight", "offspring_weight"])
def test_spec_rejects_non_finite_numbers(field, bad):
    gen = GeneratorSet.nearest_neighbor(1)
    args = {"gamma": 0.05, "step_weight": 1.0, "offspring_weight": 1.0, field: bad}
    with pytest.raises(EnvironmentValidationError):
        EnvironmentSpec(
            generator_set=gen,
            step_support=((StepDistribution(gen, (0.9, 0.1)), args["step_weight"]),),
            offspring_support=((OffspringDistribution.point(2), args["offspring_weight"]),),
            gamma=args["gamma"],
        )


class TestMStar:
    def test_point_two(self):
        spec = spec_z1([(0.9, 0.1)], [OffspringDistribution.point(2)])
        assert m_star(spec) == 2.0

    def test_sup_over_support(self):
        spec = spec_z1(
            [(0.9, 0.1)],
            [OffspringDistribution.point(1), OffspringDistribution.point(3)],
        )
        assert m_star(spec) == 3.0

    def test_mixed_mass_mean(self):
        spec = spec_z1([(0.9, 0.1)], [offspring({1: 0.5, 2: 0.5})])
        assert m_star(spec) == pytest.approx(1.5)


class TestSiteLaw:
    def two_law_env(self, seed):
        spec = spec_z1([(0.8, 0.2), (0.2, 0.8)], [offspring({1: 0.5, 2: 0.5})])
        return RealizedEnvironment(spec, seed)

    def test_deterministic_in_seed_and_site(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            seed = int(rng.integers(0, 2 ** 63))
            x = (int(rng.integers(-10 ** 6, 10 ** 6)),)
            env = self.two_law_env(seed)
            a = env.site_law(x)
            b = RealizedEnvironment(env.spec, seed).site_law(x)
            assert a == b

    def test_singleton_support_everywhere_equal(self):
        spec = spec_z1([(0.9, 0.1)], [OffspringDistribution.point(2)])
        env = RealizedEnvironment(spec, 5)
        laws = {env.site_law((x,)) for x in range(-50, 50)}
        assert len(laws) == 1

    def test_marginal_frequencies(self):
        env = self.two_law_env(seed=42)
        idx = env.step_law_indices(np.arange(10 ** 4).reshape(-1, 1))
        freq = float(np.mean(idx == 0))
        assert abs(freq - 0.5) < 0.02

    def test_step_and_offspring_draws_differ(self):
        # independence smoke test: the two index streams must not coincide
        spec = spec_z1(
            [(0.8, 0.2), (0.2, 0.8)],
            [offspring({1: 0.5, 2: 0.5}), OffspringDistribution.point(3)],
        )
        env = RealizedEnvironment(spec, 9)
        coords = np.arange(2000).reshape(-1, 1)
        s = env.step_law_indices(coords)
        o = env.offspring_law_indices(coords)
        agree = float(np.mean(s == o))
        assert 0.4 < agree < 0.6  # independent fair coins agree about half the time


class TestCoupleRaise:
    def test_no_change_at_current_mean(self):
        mu = OffspringDistribution.point(1)
        assert couple_raise(mu, 1.0) is mu

    def test_point_one_to_three_halves(self):
        out = couple_raise(OffspringDistribution.point(1), 1.5)
        assert out.support == ((1, 0.5), (2, 0.5))

    def test_worked_example_with_exhausted_bottom_mass(self):
        out = couple_raise(offspring({1: 0.3, 2: 0.7}), 2.0)
        assert out.support == ((2, 1.0),)
        assert out.mean == pytest.approx(2.0, abs=1e-12)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            couple_raise(OffspringDistribution.point(2), 1.5)

    def test_large_target_uses_larger_n(self):
        # delta = 2.5 with bottom mass 0.5 forces n = 5
        out = couple_raise(offspring({1: 0.5, 3: 0.5}), 4.5)
        assert out.mean == pytest.approx(4.5, abs=1e-12)
        assert mass(out, 6) == pytest.approx(0.5)


class TestCoupleLower:
    def test_no_change_at_current_mean(self):
        mu = OffspringDistribution.point(2)
        assert couple_lower(mu, 2.0) is mu

    def test_point_two_to_three_halves(self):
        out = couple_lower(OffspringDistribution.point(2), 1.5)
        assert out.support == ((1, 0.5), (2, 0.5))

    def test_worked_example(self):
        out = couple_lower(offspring({1: 0.5, 2: 0.5}), 1.2)
        assert out.support[0] == (1, pytest.approx(0.8))
        assert out.support[1] == (2, pytest.approx(0.2))
        assert out.mean == pytest.approx(1.2, abs=1e-12)

    def test_down_to_one_collapses_everything(self):
        out = couple_lower(offspring({2: 0.25, 3: 0.75}), 1.0)
        assert out.support == ((1, pytest.approx(1.0)),)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            couple_lower(OffspringDistribution.point(2), 2.5)
        with pytest.raises(PreconditionError):
            couple_lower(OffspringDistribution.point(2), 0.5)


def random_offspring(rng):
    ks = sorted(rng.choice(np.arange(1, 7), size=rng.integers(1, 5), replace=False))
    w = rng.random(len(ks)) + 0.05
    w /= w.sum()
    return OffspringDistribution(tuple((int(k), float(x)) for k, x in zip(ks, w)))


def dominates(a, b):
    """a stochastically dominates b: tail sums of a are >= those of b."""
    ks = {k for k, _ in a.support} | {k for k, _ in b.support}
    return all(tail(a, t) >= tail(b, t) - 1e-12 for t in ks)


class TestCouplingProperties:
    def test_random_battery(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            mu = random_offspring(rng)
            up = mu.mean + float(rng.random()) * 3.0
            raised = couple_raise(mu, up)
            assert abs(raised.mean - up) <= 1e-12
            assert abs(sum(w for _, w in raised.support) - 1.0) <= 1e-12
            assert all(w >= 0 for _, w in raised.support)
            assert dominates(raised, mu)

            down = 1.0 + float(rng.random()) * (mu.mean - 1.0)
            lowered = couple_lower(mu, down)
            assert abs(lowered.mean - down) <= 1e-12
            assert abs(sum(w for _, w in lowered.support) - 1.0) <= 1e-12
            assert all(w >= 0 for _, w in lowered.support)
            assert dominates(mu, lowered)

    def test_round_trip_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu = random_offspring(rng)
            up = mu.mean + float(rng.random()) * 2.0
            back = couple_lower(couple_raise(mu, up), mu.mean)
            assert back.mean == pytest.approx(mu.mean, abs=1e-12)
