"""Error/correct-decoding exponents of DMCs, iterative exponent minimization,
and one-bit-feedback channel input adaptation."""

__version__ = "0.1.0"

from .itcore import (  # noqa: F401
    Channel,
    Distribution,
    JointDistribution,
    ResourceLimitError,
    TypeWithDenominator,
    mutual_information,
)
