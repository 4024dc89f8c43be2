"""gmfkit: exact q-expansion arithmetic, congruence-subgroup invariants,
and canonical decompositions of parabolic generalized modular functions."""

from .errors import (
    BadGroupError,
    BadLevelError,
    BadMatrixError,
    CorruptBasisError,
    DivisionByZeroSeriesError,
    GmfError,
    GroupMismatchError,
    IncompatibleSeriesError,
    InvalidAutomorphismError,
    MalformedInputError,
    NoBasisAvailableError,
    NotCyclotomicError,
    NotExponentiableError,
    NotNormalizedError,
    NotRationalError,
    PrecisionError,
    PrefixInconsistentError,
    UnsupportedGroupError,
)
from .etaforms import (
    CuspFormBasis,
    EtaQuotient,
    eta_expansion,
    eta_quotient_expansion,
    euler_product,
    load_basis,
    shipped_levels,
    shipped_quotient,
    validate_basis,
)
from .gmfcore import (
    PGMF,
    CanonicalDecomposition,
    Certificate,
    CertificateVerdict,
    InconsistencyWitness,
    decompose_with_prefix,
    denominator_prime_report,
    finite_order_certificate,
    fit_cusp_form,
    galois_norm,
    k_operator,
    pgmf_power,
    pgmf_product,
    self_prefix,
    verify_decomposition,
    working_precision,
)
from .jsonio import all_checks_passed
from .numberfield import (
    RATIONAL,
    CyclotomicElement,
    FieldTag,
    cyclotomic_polynomial,
    euler_phi,
    is_rational,
)
from .qseries import QExpansion, exp_from_logderiv, first_disagreement
from .subgroup import (
    GAMMA,
    GAMMA0,
    GAMMA1,
    GEN_S,
    GEN_T,
    IDENTITY,
    CosetTable,
    GroupDescriptor,
    IntegerMatrix,
    SubgroupInvariants,
    contains_minus_identity,
    coset_reps,
    cusp_count,
    invariants,
    kappa,
    p_index,
)

__version__ = "0.1.0"
