"""The names `tdpair` exports: the list is pinned, so that a name joins
or leaves the public API only on purpose, and each one resolves."""
import tdpair

PUBLIC = [
    "CHECK_IDS", "CheckResult", "ContradictionError", "DecompositionError",
    "DimensionError", "EigenData", "FieldMismatchError", "Fp",
    "InternalInconsistencyError", "KrawtchoukParams",
    "KrawtchoukTypeError", "LeonardData", "MalformedInputError", "Matrix",
    "NotDiagonalizableError", "NotLeonardSystemError", "PairAnalysis",
    "PrimeField", "QQ", "REASON_DIAMETER", "REASON_NOT_DIAGONALIZABLE",
    "REASON_NO_ORDERING", "REASON_REDUCIBLE", "REASON_UNDETERMINED",
    "RFLDecomposition", "RankEntry", "RankTable", "RationalField",
    "Rejection", "RelationParameters", "Residual", "SCHEMA_VERSION",
    "ScalarParseError", "ScalarResidual", "SectionFiveCoefficients",
    "SingularMatrixError", "SplitDecomposition", "Subspace", "TdpairError",
    "TridiagonalSystem", "VerificationReport", "analyze_pair",
    "check_descent", "check_diagrams", "check_master_identity",
    "check_section10", "check_section11", "check_section12",
    "check_section5", "check_section7", "check_section9",
    "check_split_bijectivity", "check_tridiagonal_relations",
    "closed_form_data", "commutator", "compute_relation_parameters",
    "compute_rfl", "compute_split", "construct_krawtchouk",
    "construct_leonard", "eigenvalues_in_field", "field_from_descriptor",
    "generated_algebra_dimension", "inverse", "is_krawtchouk_type",
    "is_prime", "lagrange_idempotents", "leonard_data", "matrix_from_json",
    "rank_kernel", "run_all_checks", "section5_coefficients",
    "solve_right", "system_to_json",
]


def test_exports_are_pinned():
    assert sorted(tdpair.__all__) == PUBLIC


def test_every_export_resolves():
    missing = [name for name in tdpair.__all__
               if not hasattr(tdpair, name)]
    assert not missing


def test_star_import_binds_exactly_the_exports():
    scope: dict = {}
    exec("from tdpair import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == PUBLIC
