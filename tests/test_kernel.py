import math

import numpy as np
import pytest

from brwre import (
    BrwreError,
    GeneratorSet,
    PreconditionError,
    ResourceLimitError,
    StepDistribution,
    power_iteration_rho,
)

from oracles import brute_force_return_prob, n_step_return_prob

BOUNDED_JUMPS = GeneratorSet(1, ((2,), (-2,), (1,), (-1,)), ((1,), (-1,)))


class TestGeneratorSet:
    def test_nearest_neighbor_sets(self):
        for d in (1, 2, 3):
            gen = GeneratorSet.nearest_neighbor(d)
            assert gen.dimension == d
            assert len(gen.steps) == 2 * d
            assert gen.is_nearest_neighbor()

    def test_rejects_asymmetric(self):
        with pytest.raises(PreconditionError, match="not symmetric"):
            GeneratorSet(1, ((1,),), ((1,),))

    def test_rejects_zero_step(self):
        with pytest.raises(PreconditionError, match="zero step"):
            GeneratorSet(1, ((0,), (1,), (-1,)), ((1,),))

    def test_rejects_duplicates(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            GeneratorSet(1, ((1,), (1,), (-1,)), ((1,),))

    def test_rejects_non_spanning_minimal_subset(self):
        # {+-2} only spans 2Z, not Z.
        with pytest.raises(PreconditionError, match="span"):
            GeneratorSet(1, ((2,), (-2,), (1,), (-1,)), ((2,), (-2,)))

    def test_bounded_jump_set_spans(self):
        gen = GeneratorSet(1, ((2,), (-2,), (1,), (-1,)), ((2,), (-2,), (1,), (-1,)))
        assert gen.max_step_norm == 2

    def test_diagonal_set_does_not_span(self):
        # all 2x2 minors of the diagonal set are even: it spans a sublattice
        diag = ((1, 1), (-1, -1), (1, -1), (-1, 1))
        with pytest.raises(PreconditionError, match="span"):
            GeneratorSet(2, diag, diag)


class TestStepDistribution:
    def test_weight_sum_enforced(self, z1):
        with pytest.raises(PreconditionError, match="sum"):
            StepDistribution(z1, (0.6, 0.6))

    def test_negative_weight_rejected(self, z1):
        with pytest.raises(PreconditionError, match="negative"):
            StepDistribution(z1, (1.2, -0.2))

    def test_length_mismatch_rejected(self, z1):
        with pytest.raises(PreconditionError):
            StepDistribution(z1, (1.0,))

    @pytest.mark.parametrize("weights", [
        (math.nan, math.nan), (math.nan, 1.0), (math.inf, 0.0), (math.inf, -math.inf)])
    def test_non_finite_weight_rejected(self, z1, weights):
        with pytest.raises(PreconditionError):
            StepDistribution(z1, weights)

    def test_drift(self, z1):
        assert StepDistribution(z1, (0.9, 0.1)).drift() == pytest.approx([0.8])
        assert StepDistribution(z1, (0.5, 0.5)).drift() == pytest.approx([0.0])


class TestNStepReturnProb:
    def test_symmetric_two_steps(self, symmetric_law):
        assert n_step_return_prob(symmetric_law, 2) == pytest.approx(0.5, abs=1e-14)

    def test_parity_kills_odd_returns(self, symmetric_law):
        assert n_step_return_prob(symmetric_law, 3) == 0.0

    def test_drifted_two_steps(self, drifted_law):
        assert n_step_return_prob(drifted_law, 2) == pytest.approx(0.18, abs=1e-14)

    def test_requires_positive_n(self, symmetric_law):
        with pytest.raises(PreconditionError):
            n_step_return_prob(symmetric_law, 0)

    def test_resource_limit_names_the_cap(self):
        gen = GeneratorSet.nearest_neighbor(3)
        law = StepDistribution(gen, (1 / 6,) * 6)
        with pytest.raises(ResourceLimitError, match="cells"):
            n_step_return_prob(law, 500)

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.9, 0.1), (0.3, 0.7)])
    def test_matches_brute_force_1d(self, z1, weights):
        law = StepDistribution(z1, weights)
        for n in range(1, 9):
            exact = brute_force_return_prob(law, n)
            assert n_step_return_prob(law, n) == pytest.approx(exact, abs=1e-12)

    def test_matches_brute_force_2d(self, z2):
        law = StepDistribution(z2, (0.4, 0.1, 0.3, 0.2))
        for n in range(1, 7):
            exact = brute_force_return_prob(law, n)
            assert n_step_return_prob(law, n) == pytest.approx(exact, abs=1e-12)

    def test_matches_brute_force_bounded_jumps(self):
        law = StepDistribution(BOUNDED_JUMPS, (0.2, 0.1, 0.4, 0.3))
        for n in range(1, 8):
            exact = brute_force_return_prob(law, n)
            assert n_step_return_prob(law, n) == pytest.approx(exact, abs=1e-12)


class TestPowerIteration:
    def test_symmetric_estimate_near_one(self, symmetric_law):
        res = power_iteration_rho(symmetric_law, 4000)
        assert res.n_used == 4000
        assert abs(res.estimate - 1.0) < 0.01

    def test_drifted_estimate_near_closed_form(self, drifted_law):
        res = power_iteration_rho(drifted_law, 4000)
        assert abs(res.estimate - 0.6) < 0.01

    def test_2d_zero_drift_estimate(self, z2):
        law = StepDistribution(z2, (0.25,) * 4)
        res = power_iteration_rho(law, 2000)
        assert abs(res.estimate - 1.0) < 0.02

    def test_roots_in_unit_interval(self, drifted_law):
        res = power_iteration_rho(drifted_law, 500)
        roots = res.roots[np.isfinite(res.roots)]
        assert np.all(roots > 0.0)
        assert np.all(roots <= 1.0 + 1e-12)

    def test_roots_nondecreasing_for_symmetric_laws(self, symmetric_law, z2):
        for law in (symmetric_law, StepDistribution(z2, (0.25,) * 4)):
            res = power_iteration_rho(law, 400)
            roots = res.roots
            assert np.all(np.diff(roots) >= -1e-12)

    @pytest.mark.parametrize("gen, weights", [
        pytest.param(GeneratorSet.nearest_neighbor(1), (0.9, 0.1), id="drifted-z1"),
        pytest.param(GeneratorSet.nearest_neighbor(2), (0.4, 0.1, 0.3, 0.2), id="skewed-z2"),
        pytest.param(BOUNDED_JUMPS, (0.2, 0.1, 0.4, 0.3), id="bounded-jumps"),
    ])
    def test_returns_match_n_step_oracle(self, gen, weights):
        law = StepDistribution(gen, weights)
        res = power_iteration_rho(law, 16)
        for k in range(1, 9):
            assert res.returns[k - 1] == pytest.approx(
                n_step_return_prob(law, 2 * k), abs=1e-12
            )

    def test_no_return_mass_is_diagnosed(self, z1):
        one_way = StepDistribution(z1, (1.0, 0.0))
        with pytest.raises(BrwreError, match="return"):
            power_iteration_rho(one_way, 10)

    def test_requires_n_max_at_least_two(self, symmetric_law):
        with pytest.raises(PreconditionError):
            power_iteration_rho(symmetric_law, 1)
