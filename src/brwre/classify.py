"""Transient vs strongly recurrent: the headline dichotomy.

The verdict compares the maximal mean offspring m* against the reciprocal
spectral radius of the walk. Equality sits on the transient side of the
dichotomy, so the comparison is the weak inequality m* <= 1/rho; a
near-critical warning flags verdicts within numerical reach of the
boundary.
"""

from dataclasses import dataclass

import numpy as np

from .environment import m_star, validate
from .spectral import env_rho, nearest_neighbor_rho

TRANSIENT = "transient"
STRONGLY_RECURRENT = "strongly-recurrent"

CLOSED_FORM = "closed-form"
MINIMAX = "minimax"


@dataclass(frozen=True)
class Verdict:
    kind: str
    m_star: float
    rho: float
    critical_m: float
    margin: float
    method: str
    near_critical: bool


def classify(spec, tol=1e-8):
    """Classify the branching walk defined by ``spec``.

    The spec's walk-side invariants hold by construction; ``validate`` adds
    the supercriticality the dichotomy assumes (m* > 1) and raises
    EnvironmentValidationError otherwise. Uses the nearest-neighbor closed
    form for rho when it applies (single step law on the nearest-neighbor
    set), the certified minimax bracket of ``env_rho`` otherwise. The verdict
    is flagged near-critical when the margin is below ten times the spectral
    tolerance.
    """
    validate(spec)
    ms = m_star(spec)
    single = len(spec.step_support) == 1
    if single and spec.generator_set.is_nearest_neighbor():
        rho = float(nearest_neighbor_rho(spec.step_laws()[0]))
        method = CLOSED_FORM
    else:
        rho = float(env_rho(spec, tol).rho)
        method = MINIMAX
    critical = 1.0 / rho
    margin = ms - critical
    kind = TRANSIENT if ms <= critical else STRONGLY_RECURRENT
    return Verdict(
        kind=kind,
        m_star=ms,
        rho=rho,
        critical_m=critical,
        margin=margin,
        method=method,
        near_critical=bool(abs(margin) < 10.0 * tol),
    )
