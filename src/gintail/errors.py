"""Exception hierarchy shared across the library."""


class GintailError(Exception):
    """Base class for all library errors."""


class RingMismatchError(GintailError):
    """Operands live in rings with different variable counts or fields."""


class SingularMatrixError(GintailError):
    """A coordinate change matrix is not invertible."""


class InhomogeneousError(GintailError):
    """A generator is not homogeneous (or is zero where nonzero is required)."""


class UnitIdealError(GintailError):
    """A monomial ideal would contain 1."""


class NotBorelFixedError(GintailError):
    """Operation requires a Borel-fixed monomial ideal."""


class RegularityError(GintailError):
    """Input regularity exceeds what the requested computation allows."""


class GenericityError(GintailError):
    """Random coordinate changes disagreed; retry with new seeds or a larger
    coefficient bound."""

    def __init__(self, message, seeds=()):
        super().__init__(message)
        self.seeds = tuple(seeds)


class SaturationRetryError(GintailError):
    """The random linear form L of a saturation lies in an associated prime
    other than the irrelevant ideal m, so I : L^infinity is larger than the
    saturation.  Retry with a new seed."""


class HypothesisError(GintailError):
    """Input does not satisfy the hypotheses the requested formula needs
    (3-regularity, ND(1), saturatedness).  Use force=True to compute anyway."""


class InternalCheckError(GintailError):
    """Two routes that must agree on certified input disagreed; this is a
    library bug, not a user error."""


class ParseError(GintailError):
    """Ideal-file syntax or validation error, with source position."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col
