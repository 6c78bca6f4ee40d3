"""Exact transition laws and simulation for a time-inhomogeneous
Cox-Ingersoll-Ross diffusion with positive jumps.

The package computes the closed-form Laplace transforms of the transition
probabilities of

    d xi_t = [a(t) - beta(t) xi_{t-}] dt + int_(0,inf) y mu(dt, dy)
             + sigma(t) sqrt(xi_{t-} v 0) dW_t,

samples exactly from the transition laws through the branching / mixture
decomposition K = H * I * ITilde, simulates paths, and statistically
verifies the formulas against Monte Carlo.
"""

from .coefficients import (
    CoefficientSet,
    ValidationReport,
    clipped_sine,
    constant,
    piecewise_constant,
    piecewise_linear,
    validate,
)
from .errors import (
    BetaNotStrictlyPositiveWarning,
    CirJumpError,
    ConfigError,
    DegenerateInterval,
    DegenerateIntermediate,
    InsufficientSamples,
    InvalidDelta,
    NonIntegrable,
    NonPositiveSigma,
    PermanentConditionViolated,
    RestrictiveConditionViolated,
)
from .jumps import (
    DensityJumpMeasure,
    DiscreteJumpMeasure,
    JumpMeasure,
    atoms,
    delta_for_budget,
    density_measure,
    truncation_schedule,
)
from .kernels import KernelValue, TransitionKernels, get_kernels
from .numerics import QuadratureResult, RngStream, integrate
from .paths import (
    PathRealization,
    absorbed_cir_path,
    branching_path,
    euler_path,
    euler_terminal_batch,
    exact_skeleton,
)
from .samplers import COMPONENTS, PrmRealization, TransitionSampler, get_sampler
from .verify import (
    LaplaceComparison,
    MomentCheck,
    chapman_kolmogorov,
    compare_component,
    mc_statistics,
    moment_check_from_sums,
    psi_semigroup_check,
    transform_comparison,
)
from .config import RunConfig, load_config
from .suites import SuiteReport, run_suite

__version__ = "0.1.0"
