"""Exception hierarchy for the tdpair package."""


class TdpairError(Exception):
    """Base class for every package-specific error."""


class FieldMismatchError(TdpairError):
    """Scalars or matrices from different fields were combined."""


class ScalarParseError(TdpairError, ValueError):
    """A scalar string is not in the accepted text format."""


class DimensionError(TdpairError, ValueError):
    """Matrix or vector dimensions are incompatible."""


class SingularMatrixError(TdpairError):
    """A matrix that must be invertible is singular."""


class NotDiagonalizableError(TdpairError):
    """A matrix failed a diagonalizability requirement."""


class DecompositionError(TdpairError):
    """A family of subspaces is not a direct-sum decomposition."""


class ContradictionError(TdpairError):
    """Data that must determine a unique scalar gave inconsistent values."""


class InternalInconsistencyError(TdpairError):
    """A quantity the theory forces failed to hold; indicates a bug."""


class NotLeonardSystemError(TdpairError):
    """Input does not describe a valid Leonard system."""


class KrawtchoukTypeError(TdpairError):
    """Input is not of Krawtchouk type or has inadmissible parameters."""


class MalformedInputError(TdpairError, ValueError):
    """An input document or argument does not match the expected schema."""
