"""Exception hierarchy.

Two families matter for the CLI exit code: configuration problems
(exit 1) and numerical failures (exit 2).  I/O errors are plain OSError
(exit 3).  A grid solver records the error of a cell as its outcome
(`caught`), and a CSV writes it as `error_cell` gives it; a point entry
raises the one outcome of its batch (`one`).
"""


class LevringError(Exception):
    """Base class for all package errors."""


class ConfigError(LevringError):
    """Configuration family: bad input files or invalid parameter sets."""


class ParseError(ConfigError):
    """Malformed config file; message carries the line number(s)."""


class ValidationError(ConfigError):
    """Config parsed but violates a documented requirement."""


class ConfigInvalid(ConfigError):
    """A SystemConfig invariant is violated; names the offending field."""


class NumericalError(LevringError):
    """Numerical family: solver or model failures on valid configs."""


class NonPositiveFrequency(NumericalError):
    """Mechanical frequency must be strictly positive."""


class NoRootInInterval(NumericalError):
    """The force-balance equation has no sign change in the trap interval."""


class AllRootsUnstable(NumericalError):
    """Roots exist but none yields a Hurwitz drift matrix."""


class UnstableTrap(NumericalError):
    """cos(2 k x_s) < 0: the optical trap curvature is negative."""


class NoResonantSolution(NumericalError):
    """The resonance-matching system has no admissible root."""


class UnstableResonance(NumericalError):
    """Resonant operating point found but the drift matrix is not Hurwitz."""


class NotConverged(NumericalError):
    """Time integration did not settle before t_max."""


class NonFiniteResult(NumericalError):
    """A transfer denominator underflowed (instability boundary)."""


class UnstableModel(NumericalError):
    """No stationary state: drift matrix is not Hurwitz."""


class SingularSystem(NumericalError):
    """The Lyapunov linear system degenerated (marginal stability)."""


class UnphysicalCovariance(NumericalError):
    """Covariance matrix violates the symplectic positivity requirement."""


def caught(fun, *args):
    """fun(*args), or the LevringError it raises, without its traceback.

    A kept traceback would hold the raising frames, and the models in
    them, until the cycle collector runs.
    """
    try:
        return fun(*args)
    except LevringError as exc:
        return exc.with_traceback(None)


def error_cell(exc: LevringError) -> str:
    """An error as a CSV cell writes it: its class name and message."""
    return f"{type(exc).__name__}: {exc}"


def one(outcomes):
    """The only entry of a batch of outcomes, raised if it is an error."""
    outcome, = outcomes
    if isinstance(outcome, LevringError):
        raise outcome
    return outcome
