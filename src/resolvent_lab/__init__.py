"""Nonlinear resolvents of accretive generators on the unit disk.

Construct G_lambda = (Id + lambda f)^(-1) for f(z) = p(z) z with
Re p >= a >= 0 given by finite-atom data, evaluate the closed-form
distortion/accretivity/starlikeness bounds of that class, and verify every
bound by independent sampling oracles and exactly solvable cases.
"""

from .bounds import (
    BoundSet,
    OrderCertificate,
    OrderEstimate,
    calc_order,
    composed_accretivity,
    distortion_at_critical_lambda,
    distortion_bound,
    distortion_coefficients,
    est1_bound,
    region_boundary,
    resolvent_accretivity,
    rho_star,
    starlike_main_margin,
    starlike_order_from_rho,
    t_function,
    threshold_m1,
    threshold_m2,
)
from .exceptions import (
    ConfigError,
    DomainError,
    IntegrationError,
    NonConvergenceError,
    ResolventLabError,
)
from .herglotz import (
    GeneratorSpec,
    SampleConfig,
    constant_generator,
    eval_p,
    extremal_generator,
    harnack_bounds,
    load_spec,
    sample_generator,
    spec_from_dict,
    spec_to_dict,
    value_disk,
)
from .resolvent import (
    GridSolution,
    iterate_resolvent,
    solve_resolvent,
    solve_resolvent_grid,
)
from .semigroup import (
    SqueezeReport,
    Trajectory,
    integrate,
    integrate_composed,
    ladder_gaps,
    squeeze_check,
)
from .starlike import starlike_functional_grid
from .verify import (
    SUITE_NAMES,
    SuiteConfig,
    VerificationReport,
    Violation,
    run_suite,
)

__version__ = "0.1.0"
