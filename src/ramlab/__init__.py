"""Regular divisor systems, generalized Ramanujan sums, and exact mean
values of even arithmetic functions."""

from .arith import divisors, factorize, moebius, ramanujan_c
from .even import (
    EvenFunction,
    FourierCoeffs,
    fourier_coeffs,
    inner_product,
    mean_value,
    partial_sum_even,
    progression_totient,
    progression_totient_even,
    progression_totient_mean,
)
from .gensums import (
    PartialSumReport,
    c_A,
    c_A_column,
    c_A_core,
    c_A_divisor,
    c_A_oracle,
    partial_sum_cA,
)
from .systems import (
    DIRICHLET,
    MIX,
    UNITARY,
    InvalidSystemError,
    RegularSystem,
    divisor_set,
    gamma_A,
    gcd_A,
    load_system,
    mu_A,
    phi_A,
    psi_A,
)
from .verify import (
    ExpansionResult,
    OrthogonalityReport,
    Prop4Witness,
    additive_closure_witness,
    check_propositions,
    expansion_demo,
    find_orthogonality_violation,
    mean_product_empirical,
    mean_product_exact,
    mean_value_check,
    orthogonality_report,
)

__version__ = "0.1.0"
