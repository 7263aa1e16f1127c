"""emdkit: the d-fold earth mover's distance on the standard simplex.

Exact optimal transport between any number of distributions on the line
segment {1, ..., n+1}: greedy and interval-sweep plans, barycenters, the
exact expected distance under the uniform distribution, and the pairwise
decomposition of the d-fold distance with its obstruction term.
"""

__version__ = "1.0.0"

from .cayley_menger import (
    CmReport,
    GPolynomial,
    cm_decompose,
    g_derivative_at_one,
    g_polynomial,
    vanishing_order,
)
from .cost import (
    MongeReport,
    MongeViolation,
    cost_counting,
    cost_deltas,
    cost_epsilon,
    epsilon,
    lee_weight,
    monge_check,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    EmdError,
    IndexOutOfRange,
    InvalidNumber,
    InvariantViolation,
    LengthTooShort,
    MarginalMismatch,
    NegativeMass,
    ParseError,
    SumNotOne,
    ThresholdExceeded,
    ValidationError,
)
from .expectation import (
    ExpectationResult,
    cdf_Fj,
    expected_emd_exact,
    expected_emd_quadrature,
    expected_emd_recursive,
    gauss_legendre,
    integrand,
    order_stat_cdf,
)
from .polynomial import RationalPolynomial
from .sampling import McEstimate, mc_expected_emd, sample_simplex
from .simplex import (
    CumulativeVector,
    Distribution,
    DistTuple,
    Lattice,
    Scalar,
    column,
    cumulative,
    distribution_from_cumulative,
    is_exact,
    validate_distribution,
)
from .transport import (
    Breakpoints,
    TransportPlan,
    barycenter,
    check_marginals,
    emd,
    emd_pairwise,
    greedy_plan,
    lp_oracle_emd,
    plan_objective,
    sweep_plan,
)

__all__ = [
    "__version__",
    # simplex
    "Scalar",
    "Distribution",
    "CumulativeVector",
    "DistTuple",
    "Lattice",
    "is_exact",
    "validate_distribution",
    "cumulative",
    "distribution_from_cumulative",
    "column",
    # cost
    "lee_weight",
    "epsilon",
    "cost_epsilon",
    "cost_deltas",
    "cost_counting",
    "MongeReport",
    "MongeViolation",
    "monge_check",
    # transport
    "TransportPlan",
    "Breakpoints",
    "greedy_plan",
    "sweep_plan",
    "emd",
    "emd_pairwise",
    "plan_objective",
    "check_marginals",
    "barycenter",
    "lp_oracle_emd",
    # expectation
    "RationalPolynomial",
    "ExpectationResult",
    "cdf_Fj",
    "order_stat_cdf",
    "integrand",
    "expected_emd_exact",
    "expected_emd_quadrature",
    "expected_emd_recursive",
    "gauss_legendre",
    # sampling
    "McEstimate",
    "sample_simplex",
    "mc_expected_emd",
    # decomposition
    "GPolynomial",
    "CmReport",
    "g_polynomial",
    "g_derivative_at_one",
    "cm_decompose",
    "vanishing_order",
    # errors
    "EmdError",
    "LengthTooShort",
    "NegativeMass",
    "SumNotOne",
    "DimensionMismatch",
    "IndexOutOfRange",
    "DomainError",
    "InvalidNumber",
    "MarginalMismatch",
    "BudgetExceeded",
    "ThresholdExceeded",
    "ParseError",
    "ValidationError",
    "InvariantViolation",
]
