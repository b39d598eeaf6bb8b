"""Step laws on Z^d and exact n-step return probabilities.

The convolution here is dense over the exact reachable box, so the only
error is float rounding. This makes the module usable as an independent
oracle for the spectral radius: the even-step return probabilities
p^(2n)(0,0) satisfy p^(2n)(0,0)^(1/(2n)) -> rho, and we compute them by
convolving the step law with itself on a symmetric box. No FFT is used on
purpose; exactness is the point.
"""

from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

from .errors import BrwreError, PreconditionError, ResourceLimitError

# Refuse convolution boxes beyond this many float64 cells (about 2 GiB).
_MAX_BOX_CELLS = 256 * 1024 * 1024


def _int_det(rows):
    """Determinant of a small square integer matrix, exact."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = 0
    for j in range(k):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        det += (-1) ** j * rows[0][j] * _int_det(minor)
    return det


def _spans_lattice(vectors, d):
    """True if the integer span of ``vectors`` is all of Z^d.

    The lattice generated by the vectors equals Z^d exactly when the gcd
    of all d x d minors of the stacked matrix is 1.
    """
    if len(vectors) < d:
        return False
    g = 0
    for subset in combinations(vectors, d):
        rows = [list(v) for v in subset]
        g = math.gcd(g, abs(_int_det(rows)))
        if g == 1:
            return True
    return False


@dataclass(frozen=True)
class GeneratorSet:
    """A finite symmetric step set S in Z^d with a designated generating subset.

    ``minimal_subset`` is the subset S' on which ellipticity is enforced;
    it must integer-span Z^d. The full step set must be symmetric (closed
    under negation) and free of duplicates and zero vectors.
    """

    dimension: int
    steps: tuple
    minimal_subset: tuple

    def __post_init__(self):
        d = self.dimension
        if d < 1:
            raise PreconditionError("dimension must be a positive integer")
        steps = tuple(tuple(int(c) for c in s) for s in self.steps)
        minimal = tuple(tuple(int(c) for c in s) for s in self.minimal_subset)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "minimal_subset", minimal)
        if not steps:
            raise PreconditionError("step set is empty")
        for s in steps:
            if len(s) != d:
                raise PreconditionError(f"step {s} does not have dimension {d}")
            if all(c == 0 for c in s):
                raise PreconditionError("zero step is not allowed")
        if len(set(steps)) != len(steps):
            raise PreconditionError("duplicate steps")
        step_set = set(steps)
        for s in steps:
            if tuple(-c for c in s) not in step_set:
                raise PreconditionError(f"step set is not symmetric: missing -{s}")
        for s in minimal:
            if s not in step_set:
                raise PreconditionError(f"minimal subset step {s} not in step set")
        if not _spans_lattice(minimal, d):
            raise PreconditionError("minimal subset does not integer-span Z^d")

    @classmethod
    def nearest_neighbor(cls, dimension):
        """The 2d nearest-neighbor set {+-e_i}, ordered (+e1,-e1,+e2,-e2,...)."""
        steps = []
        for i in range(dimension):
            e = [0] * dimension
            e[i] = 1
            steps.append(tuple(e))
            steps.append(tuple(-c for c in e))
        return cls(dimension, tuple(steps), tuple(steps))

    @property
    def max_step_norm(self):
        return max(max(abs(c) for c in s) for s in self.steps)

    def is_nearest_neighbor(self):
        return set(self.steps) == set(GeneratorSet.nearest_neighbor(self.dimension).steps)

    def symmetrized_minimal(self):
        """S' together with the negatives of its elements."""
        out = set(self.minimal_subset)
        out.update(tuple(-c for c in s) for s in self.minimal_subset)
        return tuple(sorted(out))


@dataclass(frozen=True)
class StepDistribution:
    """A probability law over the steps of a GeneratorSet (one site's movement law)."""

    generator_set: GeneratorSet
    weights: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) != len(self.generator_set.steps):
            raise PreconditionError(
                f"{len(w)} weights for {len(self.generator_set.steps)} steps"
            )
        if not all(x >= 0.0 for x in w):
            raise PreconditionError(f"negative or NaN step weight in {w!r}")
        if not abs(sum(w) - 1.0) <= 1e-12:
            raise PreconditionError(f"step weights sum to {sum(w)!r}, not 1")

    def weight(self, step):
        return self.weights[self.generator_set.steps.index(tuple(step))]

    def drift(self):
        """Mean displacement per step, as a float vector."""
        steps = np.asarray(self.generator_set.steps, dtype=float)
        return np.asarray(self.weights, dtype=float) @ steps

    def ellipticity_violations(self, gamma):
        """Steps of S' whose weight is not strictly above gamma."""
        return [s for s in self.generator_set.minimal_subset if not self.weight(s) > gamma]


def _box_shape(radius, dimension):
    cells = (2 * radius + 1) ** dimension
    if cells > _MAX_BOX_CELLS:
        raise ResourceLimitError(
            f"convolution box of {cells} cells exceeds the limit of "
            f"{_MAX_BOX_CELLS} cells ({(2 * radius + 1)} per axis in d={dimension})"
        )
    return (2 * radius + 1,) * dimension


def _sweep_views(shape, steps, pad):
    """Slice tuples reading, from a window of ``shape`` padded by ``pad`` on
    every side, the values at x + s for each step s."""
    return [
        tuple(slice(pad + c, n + pad + c) for n, c in zip(shape, s))
        for s in steps
    ]


@dataclass(frozen=True)
class PowerIterationResult:
    """Even-step return probabilities and the spectral radius estimate they imply.

    ``roots[k-1]`` is p^(2k)(0,0)^(1/(2k)); ``estimate`` is the last root.
    The roots converge to rho only polynomially, so the full tail is kept
    for convergence diagnostics.
    """

    estimate: float
    n_used: int
    roots: np.ndarray
    returns: np.ndarray


class _Underflow(Exception):
    pass


def _even_returns(p, m, dtype, floor):
    """p^(2k)(0,0) for k = 1..m. Step k sets q_k(x) = sum_s p(s) q_{k-1}(x - s)
    on the box of radius k * max_step_norm, reading q_{k-1} through the
    negated steps; the arrays are one max_step_norm wider, so every read
    stays inside them."""
    gen = p.generator_set
    pad = gen.max_step_norm
    edge = (m + 1) * pad  # index of the origin
    q = np.zeros(_box_shape(edge, gen.dimension), dtype=dtype)
    q[(edge,) * gen.dimension] = 1.0
    buf = np.zeros_like(q)
    back = [tuple(-c for c in s) for s in gen.steps]
    returns = np.empty(m, dtype=dtype)
    reverse = (slice(None, None, -1),) * gen.dimension
    positive_seen = False
    for k in range(1, m + 1):
        r = k * pad
        qk = buf[(slice(edge - r, edge + r + 1),) * gen.dimension]
        qk.fill(0.0)
        for w, view in zip(p.weights, _sweep_views(qk.shape, back, edge - r)):
            if w != 0.0:
                qk += w * q[view]
        # buf holds q_k, and zeros beyond its box where step k + 1 reads
        q, buf = buf, q
        value = np.sum(qk * qk[reverse])
        if value > 0.0:
            positive_seen = True
        if positive_seen and floor > 0.0 and value < floor:
            raise _Underflow
        returns[k - 1] = value
    return returns


def power_iteration_rho(p, n_max):
    """Estimate the spectral radius from the definition, by exact convolution.

    Iterates the step law to time m = n_max // 2 on a symmetric box and reads
    off p^(2k)(0,0) = sum_x q^k(x) q^k(-x) at every k, so the estimate uses
    the full even-step subsequence up to 2m with half the convolutions.

    A drifted law's return probabilities decay like rho^(2k) and can leave
    double range (near 2k ~ 1400 for rho = 0.6) while still carrying the
    answer, so the computation restarts in extended precision (80-bit on
    x86) if the sequence approaches the double floor.
    """
    if n_max < 2:
        raise PreconditionError("n_max must be >= 2")
    m = n_max // 2
    try:
        returns = _even_returns(p, m, np.float64, 1e-250)
    except _Underflow:
        returns = _even_returns(p, m, np.longdouble, 0.0)
    if not np.any(returns > 0.0):
        raise BrwreError(
            f"all even-step return probabilities vanish up to n={n_max}; "
            "the walk cannot return (check ellipticity and symmetry)"
        )
    if returns[-1] <= 0.0:
        raise BrwreError(
            f"p^(n)(0,0) underflowed even extended precision before n={n_max}; "
            "use a smaller n_max"
        )
    ks = np.arange(1, m + 1, dtype=np.longdouble)
    with np.errstate(divide="ignore"):
        roots = np.where(returns > 0.0, returns.astype(np.longdouble) ** (1.0 / (2.0 * ks)), np.nan)
    return PowerIterationResult(
        estimate=float(roots[-1]),
        n_used=2 * m,
        roots=roots.astype(float),
        returns=returns,  # extended precision when double range was left
    )
