"""Ground states of -Laplace(u) + V(|x|)u = f(u) on R^N.

Radial finite-difference discretization, dilation-fiber projection onto
the constraint set where the scaling identity vanishes, three
independent ground-state solvers, executable hypothesis checkers, and
inequality verification suites.
"""

from .errors import (
    BracketNotFoundError,
    ConfigError,
    ConstraintInfeasibleError,
    ConvergenceError,
    DomainError,
    LeftLambdaError,
    MultipleSignChangesError,
    NlsgroundError,
    NoSignChangeError,
    NotInLambdaError,
    PositivityBallError,
    PreconditionError,
    SingularSystemError,
    StiffIntegrationError,
    ZeroFunctionError,
)
from .functionals import (
    FunctionalContext,
    energy,
    energy_limit,
    fiber_values,
    g_of_t,
    hardy_gap,
    iip_gap,
    pohozaev,
    pohozaev_limit,
    psi,
)
from .grid import (
    RadialFunction,
    RadialGrid,
    dilate,
    grad_seminorm_sq,
    h1_norm_sq,
    integrate,
    l2_norm_sq,
    make_grid,
    pde_residual,
)
from .manifold import (
    FiberProjection,
    fiber_profile,
    fiber_table,
    lambda_membership,
    project_fiber,
    project_to_M,
)
from .model import (
    ConditionReport,
    NonlinearitySpec,
    PotentialSpec,
    check_F,
    check_H,
    check_potential_envelope,
    check_V1V2,
    check_V3,
    constant_potential,
    estimate_theta_V3,
    estimate_theta_V4,
    make_nonlinearity,
    make_potential,
    perturbed_potential,
    power_nonlinearity,
    run_condition_suite,
    saturating_nonlinearity,
    well_potential,
    zero_nonlinearity,
)
from .solver import (
    SolveOptions,
    SolveReport,
    SweepReport,
    initial_bump,
    shoot_oracle,
    solve_fiber_descent,
    solve_limit_BL,
    sweep_lambda,
)
from .verify import VerificationReport, run_suite, sample_bumps

__version__ = "0.1.0"
