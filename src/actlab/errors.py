"""Exception types shared across the library.

Every error raised by actlab derives from :class:`ActError`, so callers can
catch the whole family at once (the CLI maps them to exit code 1).
"""


class ActError(Exception):
    """Base class for all actlab errors."""


class InvalidDimension(ActError):
    """A dimension argument is out of range (e.g. m = 0)."""


class InvalidShape(ActError):
    """An array does not have the required m^4 / m x m shape."""


class InvalidOperator(ActError):
    """A matrix expected to be symmetric (self-adjoint) is not."""


class InvalidComplexStructure(ActError):
    """Theta fails skewness or Theta^2 = -identity."""


class IncompatibleTensors(ActError):
    """Operands disagree in dimension or scalar mode."""


class DegenerateInput(ActError):
    """Linearly dependent vectors, zero vectors, values outside the float range (a NaN or
    infinite float entry or result, an exact value too large for a float), values that do
    not convert to the scalar mode, or similar degeneracies."""


class InvalidPolynomial(ActError):
    """A polynomial is not bihomogeneous of the expected bidegree."""


class PreconditionFailed(ActError):
    """A documented operation precondition does not hold.

    The first argument names the violated precondition.
    """

    def __init__(self, which: str, detail: str = ""):
        self.which = which
        super().__init__(f"precondition failed: {which}" + (f" ({detail})" if detail else ""))


class StructureViolation(ActError):
    """Structural identities fail where the commutation theory guarantees them.

    Raised when a block-frame construction is impossible: either the input
    tensor is not Jacobi-Tsankov, or (in exact mode) the frame has no
    rational realization.
    """


class UnsupportedDimension(ActError):
    """The classifier requires m >= 3; complex recovery requires even m."""


class NotRankOne(ActError):
    """Complex-structure recovery was asked for, but no probed Jacobi operator has rank one."""


class ClassificationInconsistency(ActError):
    """A passing commutation test is incompatible with the reconstruction.

    For valid algebraic curvature tensors this is unreachable: the case
    split Zero / constant-curvature / complex-form is exhaustive.  Reaching
    it signals broken arithmetic or an invalid input.
    """


class FormatError(ActError):
    """A tensor file does not parse against the documented schema."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConflictingEntry(ActError):
    """Two sparse entries (or a dense array) conflict under the tensor symmetries."""

    def __init__(self, indices, detail: str = ""):
        self.indices = tuple(indices)
        super().__init__(
            f"conflicting value at index {self.indices}" + (f": {detail}" if detail else "")
        )


class BianchiViolation(ActError):
    """The loaded components violate the first Bianchi identity."""

    def __init__(self, max_violation, indices):
        self.max_violation = max_violation
        self.indices = tuple(indices)
        super().__init__(
            f"first Bianchi identity violated (max {max_violation} at {self.indices})"
        )
