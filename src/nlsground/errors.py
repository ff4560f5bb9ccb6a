"""Exception taxonomy shared across the package.

Each class carries the command line's exit code and stderr label for
its failures; subclasses inherit them.
"""


class NlsgroundError(Exception):
    """Base class for all package errors."""

    exit_code, label = 1, "error"


class DomainError(NlsgroundError, ValueError):
    """Invalid argument: bad dimension, grid size, dilation factor, ..."""

    label = "config error"


class ZeroFunctionError(DomainError):
    """An operation that requires u != 0 received the zero function."""


class NotInLambdaError(NlsgroundError):
    """Fiber projection requested for a function outside the admissible set."""

    exit_code, label = 2, "non-convergence"


class NoSignChangeError(NlsgroundError):
    """The Pohozaev fiber value has no sign change on the search bracket."""

    exit_code, label = 2, "non-convergence"


class MultipleSignChangesError(NlsgroundError):
    """More than one sign change on the bracket; refuses to pick one.

    Uniqueness of the fiber root is expected for admissible potentials;
    multiple discrete crossings signal a discretization artifact and the
    caller should refine rather than trust any single root.
    """

    exit_code, label = 2, "non-convergence"


class ConvergenceError(NlsgroundError):
    """An iterative solve hit its iteration cap or stalled out of tolerance."""

    exit_code, label = 2, "non-convergence"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class LeftLambdaError(ConvergenceError):
    """A descent step exited the admissible set and rescue rescaling failed."""


class BracketNotFoundError(NlsgroundError):
    """Shooting could not bracket the separatrix amplitude."""

    exit_code, label = 2, "non-convergence"


class StiffIntegrationError(NlsgroundError):
    """The ODE integration produced non-finite values."""

    exit_code, label = 2, "non-convergence"


class SingularSystemError(NlsgroundError):
    """Factoring a linear system met a zero or non-finite pivot or factor."""

    exit_code, label = 2, "non-convergence"


class PositivityBallError(NlsgroundError):
    """No sampled ball has V_inf - V > 0 together with a nonvanishing profile."""

    exit_code, label = 3, "verification failure"


class PreconditionError(NlsgroundError):
    """A verification suite was invoked on a context failing its hypotheses."""

    exit_code, label = 3, "verification failure"


class ConfigError(NlsgroundError):
    """Malformed or inconsistent run configuration."""

    label = "config error"
