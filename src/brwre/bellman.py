"""Value iteration and the truncated critical mean offspring.

The dynamic program iterates

    f_n(x) = m * max_j sum_s p_j(s) f_{n-1}(x + s)    for x != origin

with f pinned to 1 at the origin and truncated to 0 outside a ball: the
sup over the convex hull of step laws is attained at the extreme points
because the objective is linear in the law. The sequence is monotone
increasing, so divergence at a finite radius certifies divergence on all
of Z^d (the truncation only removes paths), while boundedness is certified
for the truncated system.

Both answers rest on the companion iteration g -> K g = max_j P_j g, killed
at the origin and outside the ball. Where g > 0 on a component closed under
K, the least and the largest two-sweep ratio (K^2 g)(x) / g(x) bound the
growth rate of K^2 there from below and above (Collatz-Wielandt); two
sweeps, because the killed operator is typically bipartite. The certificate
is the divergence test: value iteration diverges at the first sweep whose
least ratio of m K exceeds 1 on a component the origin feeds, since f then
grows at least that fast there, however small its values still are. The
truncated critical mean m(R) = 1 / lambda_R, lambda_R the growth rate of K,
is bracketed by the same ratios; the bracket closes geometrically, and m(R)
decreases to the reciprocal spectral radius as the radius grows.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .spectral import env_rho

BOUNDED = "bounded"
DIVERGING = "diverging"
INDETERMINATE = "indeterminate"

_INCREMENT_TOL = 1e-12
_CW_MARGIN = 1e-10
_AUTO_SWEEPS = 20  # per squared radius: the bracket closes at a rate ~ 1 / radius^2


@dataclass
class ValueField:
    """Values on the ball {|x|_inf <= radius}, with the origin pinned to 1.

    ``values`` is a dense (2R+1)^d array, origin at the center index.
    """

    radius: int
    values: np.ndarray

    def value_at(self, site):
        idx = tuple(c + self.radius for c in site)
        return float(self.values[idx])


@dataclass
class ValueIterationResult:
    status: str
    field: ValueField
    sweeps_used: int


@dataclass(frozen=True)
class CriticalMResult:
    """The truncated critical mean ``value`` = midpoint of the certified
    bracket [lo, hi], after ``sweeps`` companion sweeps; ``rho`` is the
    ``env_rho`` upper end whose tilt seeded them."""

    value: float
    lo: float
    hi: float
    sweeps: int
    rho: float


def _sweep_views(shape, steps, pad):
    return [
        tuple(slice(pad + c, n + pad + c) for n, c in zip(shape, s))
        for s in steps
    ]


def _components(shape, center, moves):
    """Label the punctured ball's step-connected components (0 = excluded)
    by flood fill: each site starts with its own label and takes the largest
    label among its neighbours until nothing changes."""
    pad = max(max(abs(c) for c in mv) for mv in moves)
    inner = tuple(slice(pad, pad + n) for n in shape)
    views = _sweep_views(shape, moves, pad)
    labels = np.arange(1, int(np.prod(shape)) + 1, dtype=np.int32).reshape(shape)
    labels[center] = 0
    padded = np.zeros(tuple(n + 2 * pad for n in shape), dtype=np.int32)
    grown = np.empty_like(labels)
    while True:
        padded[inner] = labels
        np.copyto(grown, labels)
        for view in views:
            np.maximum(grown, padded[view], out=grown)
        grown[center] = 0
        if np.array_equal(grown, labels):
            return labels
        labels, grown = grown, labels


class _MaxSweep:
    """Applies f -> m * max_j P_j f on a zero-padded window."""

    def __init__(self, spec, shape, m):
        gen = spec.generator_set
        self.m = m
        self.pad = gen.max_step_norm
        self.shape = shape
        self.padded = np.zeros(tuple(n + 2 * self.pad for n in shape))
        self.inner = tuple(slice(self.pad, self.pad + n) for n in shape)
        self.views = _sweep_views(shape, gen.steps, self.pad)
        self.weights = [np.asarray(p.weights) for p in spec.step_laws()]
        self._cand = np.empty(shape)

    def apply(self, f, out):
        self.padded[self.inner] = f
        out.fill(-np.inf)
        for w in self.weights:
            self._cand.fill(0.0)
            for wi, view in zip(w, self.views):
                if wi != 0.0:
                    self._cand += wi * self.padded[view]
            np.maximum(out, self._cand, out=out)
        out *= self.m


def _companion_seed(shape, radius, comp_masks, theta):
    """Tilted profile exp(<theta, x>), normalized per component.

    Seeding with the optimal tilt of the untruncated walk collapses the
    huge dynamic range the Perron profile of a drifted operator spans, so
    the growth bounds close in a handful of sweeps instead of thousands.
    """
    d = len(shape)
    axes = np.meshgrid(*(np.arange(-radius, radius + 1, dtype=float),) * d, indexing="ij")
    exponent = sum(t * a for t, a in zip(theta, axes))
    g = np.zeros(shape)
    for mask in comp_masks:
        e = exponent[mask]
        g[mask] = np.exp(np.clip(e - e.max(), -500.0, 0.0))
    return np.maximum(g, np.where(g > 0, 1e-250, 0.0))


class _Companion:
    """The companion iteration g -> m K g, normalized to peak 1 per component.

    Its components are those the pinned origin feeds, connected by the steps
    with positive weight in some law and their negatives: K maps each into
    itself, and ``step`` returns each one's least and largest two-sweep ratio.
    """

    def __init__(self, spec, radius, m):
        d = spec.generator_set.dimension
        shape = (2 * radius + 1,) * d
        self.center = (radius,) * d
        self.sweep = _MaxSweep(spec, shape, m)
        steps = spec.generator_set.steps
        live = {s for law in spec.step_laws() for s, w in zip(steps, law.weights) if w > 0.0}
        labels = _components(shape, self.center, live | {tuple(-c for c in s) for s in live})
        pin = np.zeros(shape)
        pin[self.center] = 1.0
        self.sweep.apply(pin, pin)  # in place is safe: apply copies its input first
        self.masks = [labels == c for c in sorted(set(labels[pin > 0.0].tolist()))]
        self.killed = ~np.any(self.masks, axis=0)
        seed = env_rho(spec)
        self.rho = seed.rho
        self.g = _companion_seed(shape, radius, self.masks, seed.theta_star)
        self._next, self._two_back = np.empty(shape), np.empty(shape)
        self._scales = [1.0] * len(self.masks)
        self.sweeps = 0

    def step(self):
        """One sweep; per component (least, largest) ratio once two sweeps ran."""
        g_next = self._next
        self.sweep.apply(self.g, g_next)
        g_next[self.killed] = 0.0
        bounds = [] if self.sweeps > 0 else None
        for k, mask in enumerate(self.masks):
            part = g_next[mask]
            if bounds is not None:
                # K^2 g_two_back = last scale * raw sweep output, pointwise
                r = self._scales[k] * part / self._two_back[mask]
                bounds.append((float(r.min()), float(r.max())))
            self._scales[k] = peak = float(part.max())
            if peak > 0.0:
                g_next[mask] = part / peak
        self._two_back, self.g, self._next = self.g, g_next, self._two_back
        self.sweeps += 1
        return bounds


def value_iteration(spec, m, radius, max_sweeps=None):
    """Monotone value iteration on the truncated ball.

    The certificate is the divergence test: DIVERGING at the first sweep
    whose companion ratios of m K certify growth above 1. BOUNDED requires
    a sweep to move no value by more than 1e-12 relative to the field's
    scale; INDETERMINATE means ``max_sweeps`` (0 or None: automatic) ran out.
    """
    if m <= 0.0:
        raise PreconditionError("m must be positive")
    if radius < 1:
        raise PreconditionError("radius must be >= 1")
    max_sweeps = max_sweeps or 20 * radius
    companion = _Companion(spec, radius, m)
    sweep, center = companion.sweep, companion.center
    f = np.zeros(companion.g.shape)
    f[center] = 1.0
    f_next = np.empty(f.shape)

    status = INDETERMINATE
    sweeps = 0
    fmax = 1.0
    f_frozen = False  # stop updating f past float-safe scale; status then rests on g
    for sweeps in range(1, max_sweeps + 1):
        increment = None
        if not f_frozen:
            sweep.apply(f, f_next)
            f_next[center] = 1.0
            fmax = float(f_next.max())
            increment = float(np.max(f_next - f))
            np.copyto(f, f_next)
            if fmax > 1e250:
                f_frozen = True

        bounds = companion.step()
        if bounds is not None and any(lo > 1.0 + _CW_MARGIN for lo, _ in bounds):
            status = DIVERGING
            break
        if increment is not None and increment < _INCREMENT_TOL * max(1.0, fmax):
            status = BOUNDED
            break

    field = ValueField(radius=radius, values=f)
    return ValueIterationResult(status=status, field=field, sweeps_used=sweeps)


def critical_m(spec, radius, tol, max_sweeps=None):
    """The truncated critical mean offspring m(R), within tol / 2.

    Each sweep of the companion iteration at m = 1 certifies m(R) in
    [1 / sqrt(max_C largest ratio), 1 / sqrt(max_C least ratio)] over its
    components C; once these brackets meet in one at most ``tol`` wide, a
    ``CriticalMResult`` carries it and its midpoint. ``max_sweeps`` bounds
    the sweeps (automatic by default); when it runs out, ConvergenceError
    carries the bracket.
    """
    if tol <= 0.0:
        raise PreconditionError("tol must be positive")
    if radius < 1:
        raise PreconditionError("radius must be >= 1")
    companion = _Companion(spec, radius, 1.0)
    lo, hi = 0.0, math.inf
    budget = max_sweeps or _AUTO_SWEEPS * radius * radius
    companion.step()  # the ratios need two sweeps
    for _ in range(budget - 1):
        bounds = companion.step()
        least, largest = (max((b[k] for b in bounds), default=0.0) for k in (0, 1))
        if largest == 0.0:
            raise ConvergenceError(f"the companion iteration dies out: m({radius}) is infinite")
        lo = max(lo, 1.0 / math.sqrt(largest))
        hi = min(hi, 1.0 / math.sqrt(least) if least > 0.0 else math.inf)
        if hi - lo <= tol:
            return CriticalMResult(value=0.5 * (lo + hi), lo=lo, hi=hi,
                                   sweeps=companion.sweeps, rho=companion.rho)
    raise ConvergenceError(
        f"critical mean only bracketed in [{lo!r}, {hi!r}] after {budget} sweeps; "
        "increase the sweep budget or loosen tol", residual=hi - lo)

