"""Exception hierarchy shared by all solver modules.

The CLI maps these onto exit codes: validation/parse problems exit with 2,
numerical failures with 3, and violated mathematical preconditions (such as
requesting asymptotic quantities from a null-recurrent model) with 4.
"""


class QbdError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"


class ModelParseError(QbdError):
    """A model or parameter file could not be parsed."""

    category = "parse"


class StructuralError(QbdError):
    """Block dimensions or model structure are inconsistent."""

    category = "validation"


class ModelError(QbdError):
    """The model violates a mathematical assumption (e.g. reducibility)."""

    category = "validation"


class NumericalError(QbdError):
    """A numerical computation failed."""

    category = "numerical"


class IterationLimitError(NumericalError):
    """An iterative solver broke down, diverged or did not settle within
    its sweep budget.

    Carries the residual of its last finite iterate so callers can judge
    how far from a solution it stopped.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NumericalRankError(NumericalError):
    """A system expected to have a one-dimensional kernel does not."""


class UpdateError(NumericalError):
    """A low-rank update step produced a singular inner system."""


class PreconditionError(QbdError):
    """A documented operation precondition does not hold."""

    category = "precondition"


class AsymptoticsUndefinedError(PreconditionError):
    """Asymptotic quantities were requested for a null-recurrent model."""

