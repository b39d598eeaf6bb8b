import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brwre import (
    EnvironmentSpec,
    GeneratorSet,
    MgfOverflowError,
    OffspringDistribution,
    PreconditionError,
    StepDistribution,
    classify,
    critical_m,
    env_rho,
    has_zero_drift,
    homogeneous_rho,
    mgf,
    nearest_neighbor_rho,
    power_iteration_rho,
    value_iteration,
)
from brwre.presets import get_preset


def make_spec(gen, laws, gamma=0.01):
    return EnvironmentSpec(
        generator_set=gen,
        step_support=tuple((law, 1.0 / len(laws)) for law in laws),
        offspring_support=((OffspringDistribution.point(2), 1.0),),
        gamma=gamma,
    )


def random_nn_law(rng, d, floor=0.03):
    gen = GeneratorSet.nearest_neighbor(d)
    w = rng.random(2 * d) + floor
    w /= w.sum()
    return StepDistribution(gen, tuple(w))


class TestMgf:
    def test_unit_at_zero(self, symmetric_law, drifted_law):
        assert mgf(symmetric_law, [0.0]) == pytest.approx(1.0, abs=1e-14)
        assert mgf(drifted_law, [0.0]) == pytest.approx(1.0, abs=1e-14)

    def test_drifted_stationary_point(self, drifted_law):
        theta = math.log(math.sqrt(1.0 / 9.0))
        assert mgf(drifted_law, [theta]) == pytest.approx(0.6, abs=1e-12)

    def test_overflow_names_the_step(self, symmetric_law):
        with pytest.raises(MgfOverflowError, match=r"\(1,\)"):
            mgf(symmetric_law, [800.0])

    def test_rejects_nonfinite_theta(self, symmetric_law):
        with pytest.raises(PreconditionError):
            mgf(symmetric_law, [float("inf")])


class TestHomogeneousRho:
    def test_symmetric_walk(self, symmetric_law):
        res = homogeneous_rho(symmetric_law)
        assert res.rho == pytest.approx(1.0, abs=1e-12)
        assert res.theta_star == pytest.approx([0.0], abs=1e-10)

    def test_drifted_walk(self, drifted_law):
        res = homogeneous_rho(drifted_law)
        assert res.rho == pytest.approx(2 * math.sqrt(0.09), abs=1e-10)
        assert res.residual <= 1e-10

    def test_2d_example(self, z2):
        law = StepDistribution(z2, (0.4, 0.1, 0.4, 0.1))
        assert homogeneous_rho(law).rho == pytest.approx(0.8, abs=1e-10)

    def test_degenerate_law_rejected(self, z1):
        with pytest.raises(PreconditionError, match="zero weight"):
            homogeneous_rho(StepDistribution(z1, (1.0, 0.0)))

    def test_bounded_jump_law(self):
        gen = GeneratorSet(1, ((2,), (-2,), (1,), (-1,)), ((1,), (-1,)))
        law = StepDistribution(gen, (0.1, 0.3, 0.25, 0.35))
        res = homogeneous_rho(law)
        # independent check: dense scan over theta
        grid = np.linspace(-3, 3, 20001)
        vals = [mgf(law, [t]) for t in grid]
        assert res.rho <= min(vals) + 1e-9

    def test_closed_form_agreement_battery(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            for _ in range(100):
                law = random_nn_law(rng, d)
                delta = abs(homogeneous_rho(law).rho - nearest_neighbor_rho(law))
                assert delta <= 1e-8


class TestNearestNeighborRho:
    def test_examples(self, z1, z2):
        assert nearest_neighbor_rho(StepDistribution(z1, (0.5, 0.5))) == pytest.approx(1.0)
        assert nearest_neighbor_rho(StepDistribution(z1, (0.9, 0.1))) == pytest.approx(0.6)
        assert nearest_neighbor_rho(StepDistribution(z2, (0.4, 0.1, 0.4, 0.1))) == pytest.approx(0.8)

    def test_requires_nearest_neighbor_set(self):
        gen = GeneratorSet(1, ((2,), (-2,), (1,), (-1,)), ((1,), (-1,)))
        law = StepDistribution(gen, (0.25, 0.25, 0.25, 0.25))
        with pytest.raises(PreconditionError):
            nearest_neighbor_rho(law)


class TestEnvRho:
    def test_singleton_matches_homogeneous(self, z1):
        rng = np.random.default_rng(3)
        for _ in range(20):
            law = random_nn_law(rng, 1)
            spec = make_spec(z1, [law])
            assert env_rho(spec).rho == pytest.approx(homogeneous_rho(law).rho, abs=1e-10)

    def test_zero_drift_pair_is_critical(self):
        res = env_rho(get_preset("zero-drift-pair"))
        assert res.rho == pytest.approx(1.0, abs=1e-9)
        assert set(res.active_extreme_points) == {0, 1}

    def test_same_side_pair_takes_weaker_drift(self):
        res = env_rho(get_preset("drift-pair-z1"))
        assert res.rho == pytest.approx(2 * math.sqrt(0.21), abs=1e-8)
        assert res.active_extreme_points == (1,)

    def test_dominates_every_extreme_point(self, z1):
        rng = np.random.default_rng(5)
        for _ in range(10):
            laws = [random_nn_law(rng, 1) for _ in range(3)]
            spec = make_spec(z1, laws)
            rho = env_rho(spec).rho
            for law in laws:
                assert rho >= homogeneous_rho(law).rho - 1e-9

    def test_hull_invariance(self, z1):
        a = StepDistribution(z1, (0.9, 0.1))
        b = StepDistribution(z1, (0.7, 0.3))
        mix = StepDistribution(z1, (0.8, 0.2))  # midpoint of a and b
        base = env_rho(make_spec(z1, [a, b])).rho
        extended = env_rho(make_spec(z1, [a, b, mix])).rho
        assert abs(base - extended) <= 1e-9

    def test_three_law_2d_support(self, z2):
        laws = [
            StepDistribution(z2, (0.4, 0.1, 0.4, 0.1)),
            StepDistribution(z2, (0.1, 0.4, 0.1, 0.4)),
            StepDistribution(z2, (0.25, 0.25, 0.25, 0.25)),
        ]
        res = env_rho(make_spec(z2, laws))
        assert res.rho == pytest.approx(1.0, abs=1e-9)

    def test_four_law_2d_zero_drift_support(self, z2):
        weights = [
            (0.084, 0.246, 0.522, 0.148),
            (0.138, 0.284, 0.076, 0.502),
            (0.193, 0.313, 0.198, 0.296),
            (0.214, 0.057, 0.204, 0.525),
        ]
        spec = make_spec(z2, [StepDistribution(z2, w) for w in weights], gamma=0.05)
        res = env_rho(spec, tol=1e-10)
        assert abs(res.rho - 1.0) <= 1e-9
        assert res.residual <= 1e-10
        classify(spec)
        value_iteration(spec, 1.2, 10)
        critical_m(spec, 10, tol=1e-6)

    def test_random_support_battery(self):
        # d in {1, 2, 3} with 1-5 nearest-neighbour laws, weights U(0, 1) + 0.1
        # before normalising
        rng = np.random.default_rng(7)
        tol = 1e-10
        for _ in range(200):
            spec = random_support(rng)
            laws = spec.step_laws()
            res = env_rho(spec, tol)
            assert res.residual <= tol
            for law in laws:
                assert res.rho >= homogeneous_rho(law).rho - 1e-12
            if has_zero_drift(spec)[0]:
                assert abs(res.rho - 1.0) <= 1e-9
            else:
                assert res.rho < 1.0
            if spec.generator_set.dimension == 1:
                # the hull's homogeneous rho 2 sqrt(a(1-a)) peaks at the a nearest 1/2
                ups = [law.weight((1,)) for law in laws]
                a = min(max(0.5, min(ups)), max(ups))
                assert abs(res.rho - 2.0 * math.sqrt(a * (1.0 - a))) <= res.residual + 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rho_depends_on_the_hull_only(self, data):
        d = data.draw(st.integers(1, 3))
        gen = GeneratorSet.nearest_neighbor(d)
        rows = data.draw(st.lists(
            st.lists(st.floats(0.1, 1.1), min_size=2 * d, max_size=2 * d), min_size=1, max_size=4))
        laws = [StepDistribution(gen, tuple(np.array(r) / sum(r))) for r in rows]
        order = data.draw(st.permutations(range(len(laws))))
        mixes = data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=len(laws), max_size=len(laws)).filter(
                lambda c: sum(c) > 0.1), max_size=3))
        extra = []
        for c in mixes:
            w = np.array(c) / sum(c) @ np.array([law.weights for law in laws])
            extra.append(StepDistribution(gen, tuple(w / w.sum())))
        base = env_rho(make_spec(gen, laws))
        other = env_rho(make_spec(gen, [laws[j] for j in order] + extra))
        # both brackets hold the same value; 1e-12 allows for float rounding
        assert abs(base.rho - other.rho) <= base.residual + other.residual + 1e-12


def random_support(rng):
    d = int(rng.integers(1, 4))
    laws = [random_nn_law(rng, d, floor=0.1) for _ in range(int(rng.integers(1, 6)))]
    return make_spec(GeneratorSet.nearest_neighbor(d), laws)


def engineered_two_point(rng, d, zero_drift):
    """A two-law support; with ``zero_drift`` the hull straddles the origin."""
    gen = GeneratorSet.nearest_neighbor(d)
    a = random_nn_law(rng, d)
    if zero_drift:
        # reversing each +-e_i pair negates the drift exactly
        w = list(a.weights)
        rev = []
        for i in range(0, 2 * d, 2):
            rev += [w[i + 1], w[i]]
        b = StepDistribution(gen, tuple(rev))
    else:
        b = random_nn_law(rng, d)
    return make_spec(gen, [a, b])


class TestZeroDrift:
    def test_witness_for_opposite_pair(self):
        flag, witness = has_zero_drift(get_preset("zero-drift-pair"))
        assert flag
        assert witness == pytest.approx((0.5, 0.5))

    def test_same_side_pair(self):
        flag, witness = has_zero_drift(get_preset("drift-pair-z1"))
        assert not flag and witness is None

    def test_singleton_zero_drift(self, z1):
        spec = make_spec(z1, [StepDistribution(z1, (0.5, 0.5))])
        flag, witness = has_zero_drift(spec)
        assert flag and witness == pytest.approx((1.0,))

    def test_witness_is_a_certificate(self, z1):
        rng = np.random.default_rng(23)
        for d in (1, 2):
            for _ in range(20):
                spec = engineered_two_point(rng, d, zero_drift=True)
                flag, witness = has_zero_drift(spec)
                assert flag
                drift = sum(
                    lam * law.drift()
                    for lam, (law, _) in zip(witness, spec.step_support)
                )
                assert np.allclose(drift, 0.0, atol=1e-12)
                assert min(witness) >= 0 and sum(witness) == pytest.approx(1.0)

    def test_rho_is_one_iff_zero_drift(self):
        # acceptance-style battery at module scale
        rng = np.random.default_rng(31)
        for d in (1, 2):
            for i in range(10):
                spec = engineered_two_point(rng, d, zero_drift=i % 2 == 0)
                flag, _ = has_zero_drift(spec)
                rho = env_rho(spec).rho
                if flag:
                    assert abs(rho - 1.0) <= 1e-6
                else:
                    assert rho < 1.0 - 1e-6


class TestDefinitionVersusFormula:
    def test_power_iteration_tracks_variational_value(self, z1):
        for weights in ((0.5, 0.5), (0.9, 0.1)):
            law = StepDistribution(z1, weights)
            est = power_iteration_rho(law, 1000).estimate
            assert abs(est - homogeneous_rho(law).rho) <= 0.02
