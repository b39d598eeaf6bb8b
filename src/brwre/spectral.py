"""Spectral radius of walks on Z^d through the step-law moment generating function.

For a homogeneous walk with step law p the spectral radius is the infimum
over theta of sum_s exp(<theta, s>) p(s), a smooth strictly convex coercive
function under ellipticity. For a random environment with finite step-law
support the almost-sure spectral radius is the minimax value

    inf_theta  max_j  mgf(p_j, theta)

over the extreme points p_j of the support: the mgf is linear in the law,
so the inner sup over the convex hull is attained at extreme points, and
the minimax swap identifies the value with the sup over the hull of the
homogeneous spectral radii. Both sides give certificates: each theta bounds
the value from above, each mixture of the extreme points from below, and
``env_rho`` returns a bracket of these two kinds. rho = 1 exactly when the
hull of the drift vectors contains the origin, which is decided separately
in exact rational arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
import math

import numpy as np

from .errors import ConvergenceError, MgfOverflowError, PreconditionError

_EXP_LIMIT = 700.0
_NEWTON_CAP = 200
_IPM_CAP = 100


@dataclass(frozen=True)
class SpectralResult:
    """Value and certificate of a spectral radius computation.

    For ``env_rho``, ``rho`` is the value max_j mgf(p_j, theta_star), an
    upper bound, and ``residual`` is the certified width of the bracket:
    the true spectral radius lies in [rho - residual, rho].
    ``active_extreme_points`` are the laws that carry weight in the mixture
    certifying the lower end. For ``homogeneous_rho``, ``residual`` is the
    gradient norm at ``theta_star``.
    """

    rho: float
    theta_star: np.ndarray
    active_extreme_points: tuple
    iterations: int
    residual: float


def mgf(p, theta):
    """sum_s exp(<theta, s>) p(s) for a single step law."""
    steps = np.asarray(p.generator_set.steps, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.all(np.isfinite(theta)):
        raise PreconditionError("theta must be finite")
    exponents = steps @ theta
    if np.max(exponents) > _EXP_LIMIT:
        worst = int(np.argmax(exponents))
        raise MgfOverflowError(
            f"exp(<theta, s>) overflows for s={p.generator_set.steps[worst]}, theta={theta.tolist()}"
        )
    return float(np.exp(exponents) @ np.asarray(p.weights))


def _mgf_terms(steps, weights, theta):
    """The terms w(s) exp(<theta, s>) of the mgf, one row per row of ``weights``."""
    with np.errstate(over="ignore"):
        return weights * np.exp(steps @ theta)


def _check_coercive(p):
    # The infimum is attained only if p is strictly positive on a symmetric
    # generating subset; otherwise the mgf can decay along some direction.
    for s in p.generator_set.symmetrized_minimal():
        if p.weight(s) <= 0.0:
            raise PreconditionError(
                f"step law has zero weight on generating step {s}; "
                "the mgf infimum need not be attained"
            )


def _newton_minimize(steps, w, theta0, tol):
    """Damped Newton with backtracking on the smooth strictly convex mgf of one law."""
    theta = np.array(theta0, dtype=float)
    for it in range(_NEWTON_CAP + 1):
        we = _mgf_terms(steps, w, theta)
        val = float(we.sum())
        grad = steps.T @ we
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return theta, val, gnorm, it
        if it == _NEWTON_CAP:
            raise ConvergenceError(
                f"Newton did not reach gradient tolerance {tol} (residual {gnorm})",
                residual=gnorm,
            )
        try:
            step = np.linalg.solve((steps.T * we) @ steps, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        t = 1.0
        slope = float(grad @ step)
        # the absolute allowance keeps the search alive once the attainable
        # decrease drops below float noise around the optimum
        noise = 4e-16 * max(1.0, abs(val))
        for _ in range(60):
            cval = float(_mgf_terms(steps, w, theta + t * step).sum())
            if np.isfinite(cval) and cval <= val + 0.25 * t * slope + noise:
                break
            t *= 0.5
        theta = theta + t * step


def homogeneous_rho(p, tol=1e-10):
    """Spectral radius of the homogeneous walk with step law ``p``.

    Minimizes the smooth strictly convex mgf over theta in R^d by damped
    Newton descent; ellipticity on a symmetric generating subset makes the
    mgf coercive so the minimum is attained.
    """
    _check_coercive(p)
    steps = np.asarray(p.generator_set.steps, dtype=float)
    theta, val, gnorm, it = _newton_minimize(
        steps, np.asarray(p.weights), np.zeros(p.generator_set.dimension), tol)
    return SpectralResult(
        rho=val,
        theta_star=theta,
        active_extreme_points=(0,),
        iterations=it,
        residual=gnorm,
    )


def nearest_neighbor_rho(p):
    """Closed form 2 sum_i sqrt(p(e_i) p(-e_i)) for nearest-neighbor laws."""
    gen = p.generator_set
    if not gen.is_nearest_neighbor():
        raise PreconditionError("closed form requires the nearest-neighbor step set")
    total = 0.0
    for i in range(gen.dimension):
        e = tuple(1 if a == i else 0 for a in range(gen.dimension))
        me = tuple(-c for c in e)
        total += np.sqrt(p.weight(e) * p.weight(me))
    return 2.0 * total


def env_rho(spec, tol=1e-10):
    """Almost-sure spectral radius of the walk in the random environment.

    Closes a certified bracket around inf_theta max_j mgf(p_j, theta). Any
    theta gives the upper end max_j mgf(p_j, theta); any convex weights
    lambda give the lower end, the homogeneous rho of the mixture law
    sum_j lambda_j p_j (weak duality). The ends start from the extreme
    points on their own, then primal-dual interior-point Newton steps on the
    epigraph problem min t s.t. mgf_j(theta) <= t move both until they are
    at most ``tol`` apart. The true value lies in [rho - residual, rho].
    """
    if not 0.0 < tol < math.inf:
        raise PreconditionError("tol must be positive and finite")
    laws = spec.step_laws()
    for p in laws:
        _check_coercive(p)
    steps = np.asarray(spec.generator_set.steps, dtype=float)  # (S, d)
    w = np.asarray([p.weights for p in laws], dtype=float)  # (J, S)
    d, nlaws = steps.shape[1], len(laws)

    singles = [_newton_minimize(steps, wj, np.zeros(d), tol) for wj in w]
    best = int(np.argmax([val for _, val, _, _ in singles]))
    theta_star, lower = singles[best][:2]
    # each upper end sums its terms as _newton_minimize does, so both ends
    # of a bracket that one law closes are the same float
    upper = float(np.max(_mgf_terms(steps, w, theta_star).sum(axis=1)))
    lam_lower = np.eye(nlaws)[best]

    # Epigraph variables: t >= mgf_j(theta) with slacks s_j and multipliers
    # lambda_j, centred at lambda_j s_j = sigma mu with sigma = 0.1. The
    # slacks start no smaller than the initial gap.
    theta, lam = theta_star, np.full(nlaws, 1.0 / nlaws)
    t = 2.0 * upper - lower
    s = t - _mgf_terms(steps, w, theta).sum(axis=1)
    iterations = 0
    while upper - lower > tol:
        if iterations == _IPM_CAP:
            raise ConvergenceError(
                f"env_rho bracket [{lower!r}, {upper!r}] still wider than {tol} "
                f"after {_IPM_CAP} Newton steps",
                residual=upper - lower,
            )
        iterations += 1
        we = _mgf_terms(steps, w, theta)  # (J, S)
        vals, grads = we.sum(axis=1), we @ steps
        target = 0.1 * float(lam @ s) / nlaws
        ratio = lam / s
        q = ratio * (vals - t + s) + target / s - lam
        # Newton on sum_j lambda_j grad mgf_j = 0, sum_j lambda_j = 1,
        # mgf_j - t + s_j = 0 and lambda_j s_j = target; eliminating the
        # multipliers and slacks leaves one (d+1)x(d+1) solve in (theta, t).
        kkt = np.empty((d + 1, d + 1))
        kkt[:d, :d] = (steps.T * (lam @ we)) @ steps + (grads.T * ratio) @ grads
        kkt[:d, d] = kkt[d, :d] = -(ratio @ grads)
        kkt[d, d] = ratio.sum()
        rhs = np.append(-(lam @ grads) - grads.T @ q, lam.sum() - 1.0 + q.sum())
        step = np.linalg.solve(kkt, rhs)
        dlam = ratio * (grads @ step[:d] - step[d]) + q
        ds = target / lam - s - dlam / ratio
        alpha = 1.0
        for x, dx in ((lam, dlam), (s, ds)):
            shrink = dx < 0.0
            if np.any(shrink):
                alpha = min(alpha, 0.99 * float(np.min(-x[shrink] / dx[shrink])))
        theta = theta + alpha * step[:d]
        t += alpha * step[d]
        lam, s = lam + alpha * dlam, s + alpha * ds
        val = float(np.max(_mgf_terms(steps, w, theta).sum(axis=1)))
        if val < upper:
            upper, theta_star = val, theta
        mix = lam / lam.sum()
        val = _newton_minimize(steps, mix @ w, theta, tol)[1]
        if val > lower:
            lower, lam_lower = val, mix
    return SpectralResult(
        rho=upper,
        theta_star=theta_star,
        active_extreme_points=tuple(int(j) for j in np.flatnonzero(lam_lower > 1e-6)),
        iterations=iterations,
        residual=upper - lower,
    )


def _exact_drifts(spec):
    """Drift vectors of the extreme step laws, in exact rational arithmetic."""
    steps = spec.generator_set.steps
    out = []
    for law in spec.step_laws():
        drift = [Fraction(0)] * spec.generator_set.dimension
        for s, w in zip(steps, law.weights):
            fw = Fraction(w)
            for a, c in enumerate(s):
                drift[a] += fw * c
        out.append(tuple(drift))
    return out


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fractions; None unless a unique solution exists."""
    m, n = len(rows), len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    piv_cols = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = Fraction(1, 1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        piv_cols.append(col)
        row += 1
        if row == m:
            break
    if len(piv_cols) < n:
        return None  # underdetermined
    for r in range(row, m):
        if aug[r][n] != 0:
            return None  # inconsistent
    x = [Fraction(0)] * n
    for i, col in enumerate(piv_cols):
        x[col] = aug[i][n]
    return x


def has_zero_drift(spec):
    """Decide whether the convex hull of the support's drifts contains 0.

    Exact: float weights are rationals, so the Caratheodory subsets of at
    most d+1 drift vectors are solved over Fractions. Returns (flag,
    witness) where the witness gives convex weights over the extreme
    points, aligned with ``spec.step_support``.
    """
    drifts = _exact_drifts(spec)
    d = spec.generator_set.dimension
    nlaws = len(drifts)
    for size in range(1, min(nlaws, d + 1) + 1):
        for subset in combinations(range(nlaws), size):
            rows = [[drifts[j][a] for j in subset] for a in range(d)]
            rows.append([Fraction(1)] * size)
            rhs = [Fraction(0)] * d + [Fraction(1)]
            sol = _solve_exact(rows, rhs)
            if sol is None or any(x < 0 for x in sol):
                continue
            witness = [0.0] * nlaws
            for j, lam in zip(subset, sol):
                witness[j] = float(lam)
            return True, tuple(witness)
    return False, None
