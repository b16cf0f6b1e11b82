"""Exception hierarchy shared by all toolkit layers."""


class ArquiverError(Exception):
    """Base class for all toolkit errors."""


class InputSyntaxError(ArquiverError):
    """Malformed input file; carries the line number when there is one."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionError(ArquiverError):
    """Shape mismatch in an exact linear-algebra operation."""


class NotFiniteDimensional(ArquiverError):
    """Path-length bound exceeded while building a quotient basis."""


class InadmissibleIdeal(ArquiverError):
    """A relation with a component of length < 2 slipped past validation."""


class NonSplitEndomorphismRing(ArquiverError):
    """End(M)/rad is not a product of copies of the ground field."""


class NonLocalEndRing(ArquiverError):
    """Module is not certified indecomposable (End(M) not local)."""


class UnsupportedRadicalComputation(ArquiverError):
    """Radical via the trace form is unreliable over this field."""


class LimitExceeded(ArquiverError):
    """Knitting limit hit; a partial quiver may be attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CapExceeded(ArquiverError):
    """Cut enumeration exceeded the candidate cap."""


class InternalError(ArquiverError):
    """An internal invariant failed: a defect in the toolkit, not in the input."""


class PreconditionError(ArquiverError):
    """Operation invoked with its stated hypotheses violated."""
