"""Exception types shared across the package.

Everything raised on purpose derives from EntlabError so callers can catch
one base class.  Plain OverflowError is reused for matrix-exponential inputs
past the documented norm cap, since that is what it is.
"""


class EntlabError(Exception):
    """Base class for all errors raised by entlab."""


class DimensionMismatchError(EntlabError, ValueError):
    """Operands have incompatible or invalid shapes."""


class NonConvergenceError(EntlabError):
    """An iterative or backend solver failed to converge."""


class BadAngleError(EntlabError, ValueError):
    """An angle is not an exact rational number of turns."""


class NotPowerBoundedError(EntlabError):
    """Operator fails the power-boundedness certificate."""


class NotUnimodularError(EntlabError, ValueError):
    """A scalar expected on the unit circle is not there."""


class SpectralFailureError(EntlabError):
    """Spectral splitting failed (clusters too close, Sylvester breakdown)."""


class NotSurjectiveError(EntlabError, ValueError):
    """Index map does not cover its stated range."""


class EmptyAlphaError(EntlabError, ValueError):
    """Index map has no positions."""


class NotInvertibleError(EntlabError):
    """Matrix required to be invertible is singular to working precision."""


class NotBoundedSemigroupError(EntlabError):
    """Generator fails the bounded-semigroup certificate."""


class EmptySequenceError(EntlabError, ValueError):
    """A nonempty sequence was required."""


class BudgetExceededError(EntlabError):
    """Estimated work or memory exceeds the declared budget."""


class ConfigError(EntlabError):
    """Base for experiment-configuration problems."""


class ParseError(ConfigError):
    """Configuration text is not valid JSON."""


class ValidationError(ConfigError):
    """Configuration parsed but violates the schema or its constraints."""
