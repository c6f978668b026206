"""Verification engine for the exterior-power coefficient calculus on the
cone of positive definite matrices.

Closed forms (compound-matrix identities, multivariate gamma evaluations,
weight-shift Fourier actions, coefficient integrals and their analytic
limits) are paired with independent oracles: exact rational polynomial
arithmetic, eigenvalue recomputation, finite differences, and seeded
Monte Carlo over the SPD cone.
"""

from .errors import NotPositiveDefiniteError, PoleError, UnsupportedRegimeError
from .exterior_algebra import (
    ExteriorMatrix,
    eps,
    exterior_power,
    exterior_power_batch,
    q_subsets,
    sqcap,
    sym_sqrt,
    trace_sandwich,
)
from .special_functions import (
    BivariatePolynomial,
    c_const,
    c_poch,
    gamma_m,
    gamma_m_pole_order,
    limit_factor,
    log_gamma_m,
    p_m_closed,
    p_m_closed_poly,
    p_m_poly,
)
from .maass_operator import (
    FourierExpansion,
    HalfIntegralForm,
    det_dz_closed,
    int_det,
    maass_apply,
    maass_coeff_factor,
)
from .cone_integration import (
    IntegralEstimate,
    MonteCarloParams,
    i_q_closed,
    i_q_numeric,
    integrate_invariant,
    q_trace_integral_num,
)
from .sturm_operator import (
    SturmResult,
    a_closed,
    a_closed_qsum,
    phantom_coeff,
    phantom_series,
    sturm_limit,
    sturm_numeric,
)
from .finite_difference import det_dz_numeric, exterior_derivative_num
from .report import CheckRecord, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "BivariatePolynomial",
    "CheckRecord",
    "ExteriorMatrix",
    "FourierExpansion",
    "HalfIntegralForm",
    "IntegralEstimate",
    "MonteCarloParams",
    "NotPositiveDefiniteError",
    "PoleError",
    "SturmResult",
    "UnsupportedRegimeError",
    "VerificationReport",
    "a_closed",
    "a_closed_qsum",
    "c_const",
    "c_poch",
    "det_dz_closed",
    "det_dz_numeric",
    "eps",
    "exterior_derivative_num",
    "exterior_power",
    "exterior_power_batch",
    "gamma_m",
    "gamma_m_pole_order",
    "i_q_closed",
    "i_q_numeric",
    "int_det",
    "integrate_invariant",
    "limit_factor",
    "log_gamma_m",
    "maass_apply",
    "maass_coeff_factor",
    "p_m_closed",
    "p_m_closed_poly",
    "p_m_poly",
    "phantom_coeff",
    "phantom_series",
    "q_subsets",
    "q_trace_integral_num",
    "sqcap",
    "sturm_limit",
    "sturm_numeric",
    "sym_sqrt",
    "trace_sandwich",
]
