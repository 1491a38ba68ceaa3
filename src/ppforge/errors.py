"""Exception types shared across the package."""


class PPForgeError(Exception):
    """Base class for all errors raised by this package."""


class FieldError(PPForgeError, ValueError):
    """Bad field parameters or an invalid element/coefficient."""


class ExpansionTooLargeError(FieldError):
    """A polynomial or mu_d with more terms than field.EXPANSION_MAX_TERMS."""


class PolyParseError(PPForgeError, ValueError):
    """Polynomial or field text that does not match the grammar."""


class ScopeError(PPForgeError, ValueError):
    """Input outside the stated hypotheses of a criterion (refused, not extrapolated)."""


class OracleBoundError(PPForgeError, ValueError):
    """Brute-force verification requested beyond the configured field-size bound."""


class UnknownSuiteError(PPForgeError, ValueError):
    """Self-test suite name that is not registered."""
