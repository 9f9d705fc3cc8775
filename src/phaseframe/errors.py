"""Exception types raised across the package."""


class PhaseFrameError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(PhaseFrameError):
    """Array holds NaN or infinite entries."""


class NonSquare(PhaseFrameError):
    """Operation requires a square matrix."""


class ShapeMismatch(PhaseFrameError):
    """Array shaped for a different index set."""


class NotHermitian(PhaseFrameError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class DimensionMismatch(PhaseFrameError):
    """Operands have incompatible dimensions."""


class InvalidDimension(PhaseFrameError):
    """Hilbert-space dimension outside the supported range."""


class EvenDimension(InvalidDimension):
    """Construction requires an odd dimension."""


class NotOddPrime(InvalidDimension):
    """Construction requires an odd prime dimension."""


class InvalidOrder(PhaseFrameError):
    """Cyclic factor orders must be integers >= 2."""


class GroupMismatch(PhaseFrameError):
    """Element or function shaped for a different group."""


class IndexOutOfRange(PhaseFrameError):
    """Basis index outside [0, d)."""


class NotNormalized(PhaseFrameError):
    """Input lacks the required normalization."""


class NotProjective(PhaseFrameError):
    """Operator family violates a projective-representation invariant."""


class NotAFrame(PhaseFrameError):
    """Operator set does not span, so it defines no invertible representation."""


class NotConjugateSymmetric(PhaseFrameError):
    """Function on the group lacks f(g^-1) = conj(f(g))."""


class CocycleMismatch(PhaseFrameError):
    """Cocycle table inconsistent with the group or the characteristic function."""


class InternalInconsistency(PhaseFrameError):
    """Two internally equivalent computations disagree; signals a convention bug."""


class FrameFileError(PhaseFrameError):
    """Serialized frame, state, or distribution cannot be parsed."""
