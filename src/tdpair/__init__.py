"""Exact-arithmetic recognition and verification of tridiagonal pairs.

A tridiagonal pair is two diagonalizable matrices, each acting
block-tridiagonally on an ordering of the other's eigenspaces, with no
common invariant subspace.  The package recognizes such pairs over the
rationals or a prime field, builds the associated decompositions (raising/
flat/lowering parts, split summands, transition map), and checks the
structural identities they satisfy, all without floating point.
"""
from .errors import (ContradictionError, DecompositionError, DimensionError,
                     FieldMismatchError, InternalInconsistencyError,
                     KrawtchoukTypeError, MalformedInputError,
                     NotDiagonalizableError, NotLeonardSystemError,
                     ScalarParseError, SingularMatrixError, TdpairError)
from .fields import (Fp, PrimeField, QQ, RationalField, field_from_descriptor,
                     is_prime)
from .matrix import Matrix, commutator
from .linalg import (EigenData, Subspace, eigenvalues_in_field, inverse,
                     lagrange_idempotents, projectors_from_direct_sum, rank,
                     rank_kernel, solve_right)
from .systems import (PairAnalysis, REASON_DIAMETER,
                      REASON_NOT_DIAGONALIZABLE, REASON_NO_ORDERING,
                      REASON_REDUCIBLE, REASON_UNDETERMINED, Rejection,
                      RelationParameters, SCHEMA_VERSION, TridiagonalSystem,
                      analyze_pair, check_tridiagonal_relations,
                      compute_relation_parameters,
                      generated_algebra_dimension, matrix_from_json,
                      relative, system_from_json, system_to_json)
from .results import RankEntry, RankTable, Residual, ScalarResidual
from .rfl import (RFLDecomposition, SectionFiveCoefficients, check_section5,
                  check_section10, compute_rfl, section5_coefficients)
from .split import (SplitDecomposition, check_section7,
                    check_split_bijectivity, compute_split)
from .bridge import (check_descent, check_diagrams, check_master_identity,
                     check_section9)
from .leonard import (LeonardData, check_section11, construct_leonard,
                      leonard_data)
from .krawtchouk import (KrawtchoukParams, KroneckerOutcome, check_section12,
                         closed_form_data, construct_krawtchouk,
                         is_krawtchouk_type, kronecker_sum_candidate)
from .report import (CHECK_IDS, CheckResult, VerificationReport,
                     run_all_checks)

__version__ = "0.1.0"

__all__ = [
    "CHECK_IDS", "CheckResult", "ContradictionError", "DecompositionError",
    "DimensionError", "EigenData", "FieldMismatchError", "Fp",
    "InternalInconsistencyError", "KrawtchoukParams", "KrawtchoukTypeError",
    "KroneckerOutcome", "LeonardData", "MalformedInputError", "Matrix",
    "NotDiagonalizableError", "NotLeonardSystemError",
    "PairAnalysis", "PrimeField", "QQ", "RFLDecomposition",
    "REASON_DIAMETER", "REASON_NOT_DIAGONALIZABLE", "REASON_NO_ORDERING",
    "REASON_REDUCIBLE", "REASON_UNDETERMINED", "RankEntry", "RankTable",
    "RationalField", "Rejection", "RelationParameters", "Residual",
    "SCHEMA_VERSION", "ScalarParseError", "ScalarResidual",
    "SectionFiveCoefficients", "SingularMatrixError", "SplitDecomposition",
    "Subspace", "TdpairError", "TridiagonalSystem", "VerificationReport",
    "analyze_pair", "check_descent",
    "check_diagrams", "check_master_identity", "check_section5",
    "check_section7", "check_section9", "check_section10", "check_section11",
    "check_section12", "check_split_bijectivity",
    "check_tridiagonal_relations", "closed_form_data", "commutator",
    "compute_relation_parameters", "compute_rfl",
    "compute_split", "construct_krawtchouk", "construct_leonard",
    "eigenvalues_in_field", "field_from_descriptor",
    "generated_algebra_dimension", "inverse", "is_krawtchouk_type",
    "is_prime", "kronecker_sum_candidate", "lagrange_idempotents",
    "leonard_data", "matrix_from_json", "projectors_from_direct_sum",
    "rank", "rank_kernel", "relative", "run_all_checks",
    "section5_coefficients", "solve_right", "system_from_json",
    "system_to_json",
]
