"""Exception and warning types shared across the package.

Validation-type errors derive from ValueError so that callers can tell bad
inputs from numerical non-convergence (ConvergenceError, a RuntimeError).  The
CLI catches these errors only: ConvergenceError exits 3 and the others 2.
"""


class MixPoisError(Exception):
    """Base class for package errors."""


class DomainError(MixPoisError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ParseError(MixPoisError, ValueError):
    """A distribution/service specification string could not be parsed."""


class InfeasibleTargetError(DomainError):
    """The requested target mean cannot be reached by any exponential tilt."""


class LatticeError(DomainError):
    """Operation requires a non-lattice distribution."""


class RegimeError(DomainError):
    """The resampling exponent lies outside the operation's regime."""


class RarityError(DomainError):
    """Target level does not exceed the mean load, so the event is not rare."""


class MgfDomainError(DomainError):
    """The tilt needed exceeds the finite domain of the moment generating
    function; the message reports the feasible interval."""


class BudgetError(MixPoisError, ValueError):
    """A simulation would exceed the configured operation budget."""


class ConvergenceError(MixPoisError, RuntimeError):
    """An iterative numerical procedure failed to meet its tolerance."""


class RegimeWarning(UserWarning):
    """An estimator or series is being used outside its intended regime."""


class TruncationBoundaryWarning(UserWarning):
    """A series truncation index sits numerically on a jump boundary."""


class HypothesisWarning(UserWarning):
    """A formula is evaluated although one of its hypotheses is violated."""
