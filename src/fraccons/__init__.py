"""Conservation laws for time-fractional diffusion and diffusion-wave equations.

Subpackages:
  specialfn  scalar special functions (gamma, Mittag-Leffler, 2F1)
  fracops    fractional integrals/derivatives and the J double integral
  tfde       problem definitions, exact solutions, nonlinear solver
  symcat     symmetry catalog and adjoint-equation substitutions
  conslaw    Noether operators, conserved-vector catalog, verifier
  cli        command-line interface
"""

from .specialfn import (
    ConvergenceError,
    GammaPoleError,
    gamma,
    hyp2f1,
    mittag_leffler,
)
from .fracops import (
    FractionalSpec,
    Kind,
    SingularTerm,
    SpaceGrid,
    TimeGrid,
    TimeSeries,
    caputo_left_derivative,
    caputo_right_derivative,
    j_integral,
    left_frac_integral,
    left_integral_endpoint_pole,
    right_frac_integral,
    rl_left_derivative,
    rl_right_derivative,
    time_derivative,
)
from .tfde import (
    Diffusivity,
    DiffusivityFamily,
    SolverError,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_rl_separable,
    exact_stationary_caputo,
    solve_nonlinear,
    tfde_residual,
)
from .symcat import (
    AdjointSubstitution,
    SUBSTITUTION_REGIMES,
    Symmetry,
    adjoint_residual,
    characteristic,
    list_symmetries,
    rl_extra_beta,
)
from .conslaw import (
    ConservedVectorEval,
    ResidualReport,
    catalog_ids,
    catalog_vector,
    conservation_residuals,
    correspondence,
    formal_lagrangian,
)

__version__ = "0.1.0"
