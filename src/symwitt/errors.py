"""Exception types shared across the library.

Everything derives from ArtifactError so callers (and the CLI) can catch
one base class.  Names are deliberately specific: most of them mark a
violated precondition of exactly one operation.
"""


class ArtifactError(Exception):
    pass


# -- ring construction / arithmetic ------------------------------------

class MalformedSpec(ArtifactError):
    """Ring or ideal description does not define a ring."""


class RingMismatch(ArtifactError):
    """Operands belong to different rings."""


class InfiniteRing(ArtifactError):
    """Enumeration requested for a ring without finitely many elements."""


class UndecidableMembership(ArtifactError):
    """No decision procedure for this ideal membership question."""


class NotAUnit(ArtifactError):
    pass


class NotInC(ArtifactError):
    """Unit is not congruent to 1 modulo the ideal."""


class ZeroPolynomial(ArtifactError):
    pass


# -- matrices -----------------------------------------------------------

class NotAlternating(ArtifactError):
    pass


class OddSize(ArtifactError):
    pass


class BadIndices(ArtifactError):
    pass


class IndexOutOfRange(ArtifactError):
    pass


class SizeMismatch(ArtifactError):
    pass


class NotUnipotent(ArtifactError):
    pass


class NonInvertibleIndex(ArtifactError):
    """Taking an m-th root needs 1/m (and small factorials) in the ring."""


# -- rows ---------------------------------------------------------------

class NotCompleted(ArtifactError):
    """Row pair does not satisfy sum(a_i * b_i) = 1."""


class NotRelative(ArtifactError):
    """Row is not congruent to (1, 0, ..., 0) modulo the ideal."""


class NoRelativeCompletionFound(ArtifactError):
    """Bounded completion search exhausted without an answer.

    Distinct from a proven non-existence, which is reported as None.
    """


class UndecidableCompletion(ArtifactError):
    pass


class TailAlignmentFailed(ArtifactError):
    """No orbit representatives with matching tails were found."""


class NoP0Found(ArtifactError):
    pass


# -- verification / search ----------------------------------------------

class VerificationFailed(ArtifactError):
    pass


class BoundExceeded(ArtifactError):
    """Search or enumeration refused because a configured cap was hit."""
