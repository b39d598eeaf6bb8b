"""Random environments: specification and seeded realization.

An environment assigns every lattice site an independent (step law,
offspring law) pair drawn from the finite supports of the spec. A spec is
valid by construction: building one checks the walk-side hypotheses of
every result (weights summing to 1, uniform ellipticity on S'), so the
simulator and the solvers take it as given. ``validate`` adds the one
hypothesis of the classification, supercritical branching. The
realization is storage free: the pair at a site is a pure hash of
(seed, coordinates), so unbounded lattices and parallel replay both work.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import EnvironmentValidationError, PreconditionError
from .kernel import GeneratorSet, StepDistribution

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STEP_TAG = 0x5851F42D4C957F2D
_OFFSPRING_TAG = 0x14057B7EF767814F


@dataclass(frozen=True)
class OffspringDistribution:
    """Finitely supported offspring law (mu_k)_{k>=1}.

    Every particle leaves at least one descendant (all k >= 1), so total
    population in a branching run is nondecreasing.
    """

    support: tuple  # ((k, mu_k), ...) sorted by k

    def __post_init__(self):
        entries = []
        seen = set()
        for k, w in self.support:
            k = int(k)
            w = float(w)
            if k < 1:
                raise PreconditionError(f"offspring count {k} < 1 (death is excluded)")
            if not w >= 0.0:
                raise PreconditionError(f"negative or NaN offspring mass {w!r} at k={k}")
            if k in seen:
                raise PreconditionError(f"duplicate offspring support point k={k}")
            seen.add(k)
            if w > 0.0:
                entries.append((k, w))
        if not entries:
            raise PreconditionError("offspring support is empty")
        total = sum(w for _, w in entries)
        if not abs(total - 1.0) <= 1e-12:
            raise PreconditionError(f"offspring masses sum to {total!r}, not 1")
        object.__setattr__(self, "support", tuple(sorted(entries)))

    @property
    def mean(self):
        return sum(k * w for k, w in self.support)

    @classmethod
    def point(cls, k):
        """The deterministic law delta_k."""
        return cls(((k, 1.0),))


@dataclass(frozen=True)
class EnvironmentSpec:
    """Finite-support product environment: step laws and offspring laws with weights.

    Valid by construction: gamma > 0, both supports non-empty with weights
    >= 0 that sum to 1, every step law on ``generator_set`` and uniformly
    elliptic on its minimal subset S' (weight > gamma there). A spec that
    breaks any of these raises EnvironmentValidationError listing each
    violation. Supercriticality is not required here: ``validate`` checks it.
    """

    generator_set: GeneratorSet
    step_support: tuple  # ((StepDistribution, prob), ...)
    offspring_support: tuple  # ((OffspringDistribution, prob), ...)
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "step_support", tuple((p, float(w)) for p, w in self.step_support))
        object.__setattr__(
            self, "offspring_support", tuple((mu, float(w)) for mu, w in self.offspring_support)
        )
        object.__setattr__(self, "gamma", float(self.gamma))
        violations = []
        if not 0.0 < self.gamma < math.inf:
            violations.append(f"gamma must be positive and finite, got {self.gamma!r}")
        for name, support in (("step", self.step_support), ("offspring", self.offspring_support)):
            if not support:
                violations.append(f"{name} support is empty")
                continue
            total = sum(w for _, w in support)
            if not abs(total - 1.0) <= 1e-12:
                violations.append(f"{name} support weights sum to {total!r}, not 1")
            if not all(w >= 0.0 for _, w in support):
                violations.append(f"{name} support has a negative or NaN weight")
        for i, (law, _) in enumerate(self.step_support):
            if law.generator_set != self.generator_set:
                violations.append(f"step law {i} uses a different generator set")
                continue
            for s in law.ellipticity_violations(self.gamma):
                violations.append(
                    f"step law {i} violates ellipticity: weight({s}) = "
                    f"{law.weight(s)!r} <= gamma = {self.gamma!r}"
                )
        if violations:
            raise EnvironmentValidationError(violations)

    def step_laws(self):
        return tuple(p for p, _ in self.step_support)

    def offspring_laws(self):
        return tuple(mu for mu, _ in self.offspring_support)


def validate(spec):
    """Return ``spec`` if its branching is supercritical (m* > 1), else raise.

    Every classification statement assumes m* > 1. The walk-side invariants
    hold for any EnvironmentSpec, so this is the only check left; the
    simulator does not need it and runs critical environments too.
    """
    ms = m_star(spec)
    if ms <= 1.0:
        raise EnvironmentValidationError(
            [f"maximal mean offspring m* = {ms!r} <= 1 (no supercritical branching)"])
    return spec


def m_star(spec):
    """Maximal mean offspring over the support of the branching environment."""
    return max(mu.mean for mu, _ in spec.offspring_support)


def _mix64(z):
    """splitmix64 finalizer on a uint64 array (wraps mod 2^64)."""
    z = (z + np.uint64(_GOLDEN)) & _MASK64
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)) & _MASK64
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)) & _MASK64
    return z ^ (z >> np.uint64(31))


def _zigzag(c):
    """Map Z -> N: 0,-1,1,-2,2,... -> 0,1,2,3,4,..."""
    c = np.asarray(c, dtype=np.int64)
    return np.where(c >= 0, 2 * c, -2 * c - 1).astype(np.uint64)


def _site_hash(seed, coords):
    """One uint64 hash per row of ``coords`` (shape (n, d)), pure in (seed, site)."""
    h = np.full(coords.shape[0], np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    for axis in range(coords.shape[1]):
        tag = np.uint64((_GOLDEN * (axis + 1)) & 0xFFFFFFFFFFFFFFFF)
        h = _mix64(h ^ (_zigzag(coords[:, axis]) + tag))
    return h


def _indices_from_uniform(u, cumulative):
    return np.searchsorted(cumulative, u, side="right").astype(np.int64)


@dataclass(frozen=True)
class RealizedEnvironment:
    """One seeded draw of the environment: a deterministic site -> laws map."""

    spec: EnvironmentSpec
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & 0xFFFFFFFFFFFFFFFF)

    def _cumulative(self, support):
        w = np.array([x for _, x in support], dtype=float)
        c = np.cumsum(w)
        c[-1] = 1.0  # guard float slack at the top
        return c

    def _law_indices(self, coords, support, tag):
        """Index into ``support`` for each site row in ``coords`` (n, d)."""
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, self.spec.generator_set.dimension)
        if len(support) == 1:
            return np.zeros(coords.shape[0], dtype=np.int64)
        h = _site_hash(self.seed, coords)
        u = _mix64(h ^ np.uint64(tag)).astype(np.float64) * 2.0 ** -64
        return _indices_from_uniform(u, self._cumulative(support))

    def step_law_indices(self, coords):
        """Step-law index for each site row in ``coords`` (n, d)."""
        return self._law_indices(coords, self.spec.step_support, _STEP_TAG)

    def offspring_law_indices(self, coords):
        """Offspring-law index for each site row in ``coords`` (n, d)."""
        return self._law_indices(coords, self.spec.offspring_support, _OFFSPRING_TAG)

    def site_law(self, x):
        """The (step law, offspring law) pair at site ``x``. Pure in (seed, x)."""
        coords = np.asarray([tuple(x)], dtype=np.int64)
        i = int(self.step_law_indices(coords)[0])
        j = int(self.offspring_law_indices(coords)[0])
        return self.spec.step_support[i][0], self.spec.offspring_support[j][0]

