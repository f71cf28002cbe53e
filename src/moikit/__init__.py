"""moikit: finite-dimensional operator-integral engine.

Evaluates weighted spectral sums of Hermitian/unitary operators and bounds
their norms, computes operator derivatives, differences and Taylor
remainders through them, evaluates tensor integrals by unfolding, decomposes
polynomials into inner-product power forms, and verifies Markov-type tail
bounds for random operators by Monte Carlo.
"""

from .calculus import (
    RemainderSpec,
    SlotFunctionSum,
    composition_weight,
    composition_weight_sum,
    compositions,
    exp_series_tail,
    frechet_derivative,
    higher_difference,
    higher_difference_moi_diagnostic,
    kth_derivative,
    polynomial_of_matrix,
    taylor_remainder_self_adjoint,
    taylor_remainder_unitary,
    unitary_exponential,
)
from .errors import (
    CapabilityError,
    DecompositionFailureError,
    FunctionDomainError,
    MoikitError,
    NumericalError,
    ParameterError,
    ValidationError,
)
from .harness import (
    THEOREM_IDS,
    TailBoundExperiment,
    TailBoundReport,
    convergence_in_mean_check,
    run_tail_bound,
    sample_stream,
)
from .integrands import (
    DividedDifferenceSpec,
    MultivariateFunction,
    ScalarFunction,
    SeparableIntegrand,
    divided_difference,
    divided_difference_integrand,
    projective_norm_bound,
    sup_norm_on_grid,
)
from .moi import (
    MoiRequest,
    MoiResult,
    continuity_modulus,
    moi_core,
    moi_evaluate,
    moi_norm_bound,
)
from .operators import (
    HermitianOperator,
    RandomOperatorModel,
    SpectralDecomposition,
    UnitaryOperator,
    apply_scalar_function,
    operator_norm,
    random_hermitian,
    sample_haar_unitary,
    sample_random_hermitian,
    sample_random_unitary,
    schatten_norm,
    shifted_operator,
    spectral_decompose,
)
from .polyapprox import (
    InnerPowerForm,
    LinearProductForm,
    MonomialPolynomial,
    decompose_inner_powers,
    to_linear_products,
)
from .tensors import (
    HermitianTensor,
    fold,
    mti_evaluate,
    unfold,
)

__version__ = "0.1.0"
