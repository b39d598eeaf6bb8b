"""Named environment presets used by the CLI, demos, and tests."""

from .environment import EnvironmentSpec, OffspringDistribution
from .kernel import GeneratorSet, StepDistribution


def _z1(*weight_rows):
    gen = GeneratorSet.nearest_neighbor(1)
    laws = [StepDistribution(gen, w) for w in weight_rows]
    share = 1.0 / len(laws)
    return gen, tuple((p, share) for p in laws)


def _offspring(masses):
    return ((OffspringDistribution(tuple(masses.items())), 1.0),)


def _build(step_part, offspring_masses):
    gen, support = step_part
    return EnvironmentSpec(
        generator_set=gen,
        step_support=support,
        offspring_support=_offspring(offspring_masses),
        gamma=0.05,
    )


def drift_z1():
    """Drifted walk on Z, transient branching (m* = 1.5 vs 1/rho = 1.667)."""
    return _build(_z1((0.9, 0.1)), {1: 0.5, 2: 0.5})


def symmetric_z1():
    """Symmetric walk on Z: rho = 1, so any m* > 1 is recurrent."""
    return _build(_z1((0.5, 0.5)), {1: 0.5, 2: 0.5})


def recurrent_z1():
    """Drifted walk on Z with m* = 1.8 above the critical mean 1.667."""
    return _build(_z1((0.9, 0.1)), {1: 0.2, 2: 0.8})


def zero_drift_pair():
    """Two opposite drifts whose hull contains the zero-drift law: rho = 1."""
    return _build(_z1((0.8, 0.2), (0.2, 0.8)), {1: 0.5, 2: 0.5})


def drift_pair_z1():
    """Two same-sided drifts: rho = 2 sqrt(0.21) from the weaker drift."""
    return _build(_z1((0.9, 0.1), (0.7, 0.3)), {1: 0.5, 2: 0.5})


def strong_drift_pair():
    """Two strong drifts, transient with a wide margin (m* = 1.5 vs 1.667)."""
    return _build(_z1((0.94, 0.06), (0.9, 0.1)), {1: 0.5, 2: 0.5})


def nn_z2():
    """Nearest-neighbor walk on Z^2 with drift, m* = 1.2 vs 1/rho = 1.25."""
    gen = GeneratorSet.nearest_neighbor(2)
    law = StepDistribution(gen, (0.4, 0.1, 0.4, 0.1))
    return EnvironmentSpec(
        generator_set=gen,
        step_support=((law, 1.0),),
        offspring_support=_offspring({1: 0.8, 2: 0.2}),
        gamma=0.05,
    )


PRESETS = {
    "drift-z1": drift_z1,
    "symmetric-z1": symmetric_z1,
    "recurrent-z1": recurrent_z1,
    "zero-drift-pair": zero_drift_pair,
    "drift-pair-z1": drift_pair_z1,
    "strong-drift-pair": strong_drift_pair,
    "nn-z2": nn_z2,
}


def get_preset(name):
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
