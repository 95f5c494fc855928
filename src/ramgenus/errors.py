"""Exception types shared across the package."""


class RamgenusError(Exception):
    """Base class for all errors raised by this package."""


class ZeroValuationError(RamgenusError, ValueError):
    """Valuation (or factorization) of zero was requested.

    v(0) = +infinity is not representable as an integer; callers must
    handle zero separately instead of relying on a sentinel.
    """


class PrimalityRangeError(RamgenusError, ValueError):
    """Primality certification was requested beyond the deterministic
    Miller-Rabin range (~3.3e24); we refuse rather than risk a pseudoprime."""


class SplitAlgebraError(RamgenusError, ValueError):
    """An operation that needs a division algebra received a split one.

    Every quadratic field embeds into the 2x2 matrix algebra, so the
    embedding criterion is vacuous for split input; we surface that
    instead of guessing an answer.
    """


class WitnessSearchExhausted(RamgenusError, RuntimeError):
    """The distinguishing-field search hit its bound without a witness."""


class FactorBudgetExhausted(RamgenusError, RuntimeError):
    """Brent-rho spent its fixed budget without splitting a composite;
    its smallest prime factor is too large to find in bounded time."""


class UnsupportedFieldError(RamgenusError, ValueError):
    """The requested (base field, degree) combination is not supported."""


class ParseError(RamgenusError, ValueError):
    """Input text failed to parse; carries the offending position."""

    def __init__(self, message: str, text: str = "", position: int = 0):
        self.position = position
        self.text = text
        super().__init__(f"{message} (at position {position})")
