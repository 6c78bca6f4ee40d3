"""Exception and warning types shared across the package."""


class CirJumpError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveSigma(CirJumpError):
    """The volatility scale must be strictly positive on the whole horizon."""


class PermanentConditionViolated(CirJumpError):
    """The jump measure fails the summable-jumps requirement
    (integral of (y & 1) against the measure is infinite)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class RestrictiveConditionViolated(CirJumpError):
    """Infinite-activity jump measure fails the square-root integrability
    requirement; exact samplers and the branching builder are unavailable."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonIntegrable(CirJumpError):
    """Requested integral against the jump measure diverges near zero."""


class InvalidDelta(CirJumpError):
    """Truncation level must be strictly positive."""


class TooManyPoints(CirJumpError):
    """A batch draw expects more points than one call lays out."""


class DegenerateInterval(CirJumpError):
    """Kernel quantities need a nondegenerate time interval s < t."""


class DegenerateIntermediate(CirJumpError):
    """Two-step comparison needs an intermediate time strictly inside (s, t)."""


class InsufficientSamples(CirJumpError):
    """At least two samples are needed for an empirical standard error."""


class ConfigError(CirJumpError):
    """Run configuration file is malformed; message carries field context."""


class BetaNotStrictlyPositiveWarning(UserWarning):
    """The transition-transform formula is applied with a mean-reversion rate
    that vanishes somewhere; the computation proceeds but the closed form is
    only proved under strictly positive rates."""
