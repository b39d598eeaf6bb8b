"""Branching random walks in random environment on Z^d.

Classification into transient vs strongly recurrent, spectral radius of
the underlying walk by a variational formula, the critical mean offspring
by Bellman value iteration, and exact-count Monte Carlo simulation of the
branching process with a frozen origin.
"""

from .bellman import (
    BOUNDED,
    DIVERGING,
    INDETERMINATE,
    CriticalMResult,
    ValueField,
    ValueIterationResult,
    critical_m,
    value_iteration,
)
from .classify import STRONGLY_RECURRENT, TRANSIENT, Verdict, classify
from .environment import (
    EnvironmentSpec,
    OffspringDistribution,
    RealizedEnvironment,
    m_star,
    validate,
)
from .errors import (
    BrwreError,
    ConfigError,
    ConvergenceError,
    EnvironmentValidationError,
    MgfOverflowError,
    PreconditionError,
    ResourceLimitError,
)
from .kernel import (
    GeneratorSet,
    PowerIterationResult,
    StepDistribution,
    power_iteration_rho,
)
from .presets import PRESETS, get_preset
from .simulator import (
    COUNT_CAP_DEFAULT,
    BmcStarResult,
    GwObservation,
    NuEstimate,
    estimate_alpha,
    estimate_nu,
    gw_return_process,
    replicate_records,
    run_bmc_star,
)
from .spectral import (
    SpectralResult,
    env_rho,
    has_zero_drift,
    homogeneous_rho,
    mgf,
    nearest_neighbor_rho,
)

__version__ = "0.1.0"
