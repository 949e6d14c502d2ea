"""Numerical laboratory for circular Jacobi beta-ensembles.

Exact sampling of deformed Verblunsky coefficients, the
log-characteristic-polynomial process with its finite-n moments and
scaling limits, large-deviation rate functions, and equilibrium
measures, cross-validated against each other throughout.
"""

from .asymptotics import (
    EnsembleParams,
    exact_cov_zeta,
    exact_mean_logphi,
    limit_covariance,
    limit_mean_functions,
    limit_moments,
)
from .gammalaw import (
    CoefficientLaw,
    CumulantSet,
    cgf_Lambda,
    cumulants,
    disc_weight_integral,
    mellin_fourier,
    normalization_c,
)
from .ldp import (
    Branch,
    MarginalRateResult,
    RatePoint,
    cgf_L0,
    hkoc_forms,
    lagrangian_L,
    legendre_numeric,
    marginal_rate_h,
    optimal_trajectory,
    path_functional_Lambda0,
    rate_Ha,
)
from .equilibrium import (
    RadonMeasure1D,
    cayley_check,
    circle_log_moments,
    energy_rate,
    line_equilibrium,
    lubinsky_saff_density,
    mu_a_measure,
)
from .process import (
    LogPolyPath,
    SchurCoefficients,
    cmv_log_det,
    cmv_matrix,
    gamma_to_alpha,
    log_path,
    szego_eval,
)
from .sampler import (
    DeformedVerblunskySample,
    sample_ensemble,
    sample_gamma_circle,
    sample_gamma_disc,
)
from .specfun import (
    abel_plana_sum,
    digamma,
    entropy_F,
    entropy_J,
    log_gamma,
    polygamma,
)

__version__ = "0.1.0"
