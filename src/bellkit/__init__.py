"""bellkit: roots-of-unity Bell functionals, exact LHV bounds, and multiport violation search."""

from .core import (
    ConjugationMask,
    CorrelationTensor,
    DeterministicStrategy,
    ProbabilityTable,
    Scenario,
    correlation_from_probabilities,
    point_mass_table,
    root_of_unity,
    settings_tuples,
    strategy_correlation_tensor,
)
from .bases import (
    BasisKind,
    BellFunctional,
    FunctionalForm,
    GTable,
    Pairing,
    PartyBasis,
    build_functional,
    evaluate_functional,
    fourier_party_basis,
    k2_conjugate_basis,
    ww_coefficients,
    wwzb_nonlinear,
)
from .lhv import (
    BudgetExceededError,
    ClassicalBoundResult,
    FacetReport,
    UnsupportedFormError,
    classical_bound,
    classical_bounds,
    enumerate_strategies,
    facet_check,
    polytope_dimension,
)
from .multiport import (
    MultiportUnitary,
    QuantumSetup,
    born_probabilities,
    fourier_multiport,
    probability_table,
    quantum_correlation_tensor,
)
from .optimize import (
    ConfigError,
    OptResult,
    OptimizationConfig,
    maximize_restricted_ghz,
    maximize_violation,
    maximize_with_fixed_state,
    product_g_functional,
    quantum_functional_value,
    scan_product_g,
    symmetric_g_search,
)

__version__ = "0.1.0"
