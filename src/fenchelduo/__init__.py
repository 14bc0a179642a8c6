"""Projection-free first-order methods with Fenchel duality-gap certificates.

The package solves  min_x f(Ax) + h(x)  through subgradient oracles for f and
for the conjugate h*, with three drivers (conditional subgradient, mirror
descent, and a symmetric primal-dual iteration), per-iteration certified gap
bounds, exact certificate identities, and empirical curvature/rate tools.
"""

from .oracles import (
    ConstructionError,
    DomainError,
    FenchelDuoError,
    FitError,
    InfiniteValue,
    LinearMap,
    ProblemSpec,
    RangeError,
    StateError,
    as_point,
    bregman_f,
    dual_pair_step,
    duality_gap,
    dualize,
    fenchel_young_residual,
)
from .problems import (
    BoxRegion,
    HolderPowerF,
    L1BallRegion,
    QuadraticF,
    SimplexRegion,
    log_sum_exp,
    make_entropy_lse,
    make_holder_power_simplex,
    make_quadratic_box,
    make_quadratic_l1_ball,
    make_quadratic_simplex,
    neg_entropy,
    random_linear_map,
    softmax,
)
from .certificates import (
    CertificateAggregate,
    cg_identity_residuals,
    hybrid_identity_residuals,
    md_identity_residuals,
    step_divergence_primal,
    weight_rows,
)
from .steps import (
    ApproxGamma,
    ExactLineSearch,
    FixedHarmonic,
    OpenLoop,
    StepRule,
    approx_gamma_select,
    make_rule,
    minimize_step_surrogate,
    step_fixed_harmonic,
)
from .engine import Trace, run_gcs, run_gmd, run_hybrid
from .duality import check_bach_equivalence, check_hybrid_symmetry
from .diagnostics import CurvatureEstimate, curvature_along_trace, fit_rate, probe_curvature

__version__ = "0.1.0"
