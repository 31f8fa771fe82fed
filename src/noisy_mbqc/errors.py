"""Exception types shared across the library."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotAChannel(ValueError):
    """Kraus operators exceed the trace-non-increasing bound."""


class NotPauliChannel(ValueError):
    """A Kraus operator is not proportional to a single Pauli."""


class ZBasisUnsupported(ValueError):
    """Noise composition is only defined for equatorial measurements."""


class SiteOutOfRange(IndexError):
    """Circuit operation addresses a site outside the register."""


class SizeLimit(ValueError):
    """Requested system exceeds the dense-simulation cap."""


class AlreadyMeasured(ValueError):
    """Site has already been collapsed by a measurement."""


class NotUnitary(ValueError):
    """Matrix fails the unitarity check."""


class NotNormalized(ValueError):
    """Vector is not normalised to unit length."""


class UnmeasuredSites(ValueError):
    """Logical output requires every non-boundary site to be measured."""


class ParseError(ValueError):
    """Experiment document is malformed."""


class UnknownChannelRef(ParseError):
    """Experiment references a channel name that was never defined."""
