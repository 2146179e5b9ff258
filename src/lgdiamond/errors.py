"""Exception hierarchy for lgdiamond.

Every anticipated failure mode raises a subclass of LgError carrying a
human-readable message.  Callers that want a blanket handler can catch
LgError; the CLI maps precondition and verification failures to exit
code 2 and every other LgError to exit code 1.
"""


class LgError(Exception):
    """Base class for all lgdiamond errors."""


class ConductorMismatch(LgError):
    """Two cyclotomic numbers from incompatible fields were combined."""


class PolySyntaxError(LgError):
    """A polynomial expression could not be parsed."""


class MixedQuadraticError(LgError):
    """The polynomial contains a monomial x_i*x_j with i != j.

    Such quadratic cross terms are excluded from the admissible input
    class; they must be removed by a linear change of coordinates
    before calling this package.
    """


class NoGraphMonomial(LgError):
    """Some variable appears in no monomial of the form x_j^a or x_j^a*x_k."""


class NotQuasihomogeneous(LgError):
    """No positive rational weights give every monomial total degree 1."""


class WeightOutOfRange(LgError):
    """A reduced weight falls outside the half-open interval (0, 1/2]."""


class SingularExponentMatrix(LgError):
    """The graph exponent matrix is singular or structurally inconsistent."""


class NotASymmetry(LgError):
    """A monomial matrix does not preserve the polynomial."""


class ClosureCapExceeded(LgError):
    """Group generation exceeded the configured element cap."""


class MilnorBoundExceeded(LgError):
    """A Milnor algebra's dimension, read from the weights, is over the bound."""


class MissingJ(LgError):
    """The group does not contain the grading element j_f."""


class NotInSL(LgError):
    """A group element has determinant != 1 where SL membership was required."""


class NotIsolated(LgError):
    """The Jacobian ring is infinite dimensional (non-isolated singularity)."""


class NonHomogeneous(LgError):
    """A polynomial is not homogeneous for the given weights."""


class NonIntegerCharge(LgError):
    """An invariant state has a non-integral bidegree, so no Hodge diamond exists."""


class PreconditionFailed(LgError):
    """A hypothesis required by the verification does not hold for this input."""


class JobSyntaxError(LgError):
    """A CLI job description could not be parsed."""
