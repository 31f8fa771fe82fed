"""Exception types shared across the library."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotAChannel(ValueError):
    """Kraus operators have a non-finite entry, an entry of modulus above
    1 + ATOL, or a sum K^dag K above the identity."""


class ZBasisUnsupported(ValueError):
    """A Z-basis step was given noise (its channel is the ideal one), or was
    passed to the equatorial-only oracle step channel."""


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
