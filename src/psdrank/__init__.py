"""psdrank: compile real formulas into PSD-rank instances and certify them.

The pipeline follows the constructive reduction from the existential theory
of the reals to PSD RANK: exact standard-form polynomials, a formula
frontend collapsing any quantifier-free formula to one equation, a cube
transform confining zeros to [-1, 1]^n, the sigma/H matrix gadgets, the
completion gadget M(S, K), and a certificate layer that builds, verifies
and inverts explicit factorization witnesses at desk scale.
"""

from .polynomials import (
    Assignment,
    Monomial,
    ParseError,
    Polynomial,
    VarId,
    VarKind,
    evaluate,
    format_polynomial,
    is_multiple_of,
    length_of,
    parse_polynomial,
    var,
    xvar,
)
from .formulas import (
    And,
    Atom,
    EquationSystem,
    Formula,
    Not,
    Or,
    flatten,
    formula_truth,
    lift_witness,
    normalize_atoms,
    parse_formula,
    to_equation_system,
    to_single_polynomial,
)
from .cube import BoundedInstance, build_phi, homogenize, phi_residual, scale_root
from .matrices import (
    NONZERO_UNKNOWN,
    UNKNOWN,
    IncompleteMatrix,
    InstanceMatrix,
    LabelVector,
    PolynomialMatrix,
    parse_matrix,
    write_matrix,
)
from .gadgets import (
    ReductionOutput,
    build_A,
    build_B,
    build_C,
    build_G,
    build_M,
    build_P,
    compute_K,
    index_set_H,
    reduce,
    sigma_set,
)
from .factorizations import (
    PSDFactorization,
    VerificationReport,
    four_squares,
    p_alpha_factorization,
    parse_factorization,
    rational_square_sum,
    splitmix64,
    verify_factorization,
    write_factorization,
)
from .certificates import (
    Completion,
    ExtractionError,
    SqrtWitness,
    assemble_instance_witness,
    completion_from_root,
    extract_root,
    sqrt_condition_check,
)
from .search import SearchConfig, SearchReport, psd_rank_search

__version__ = "0.1.0"
