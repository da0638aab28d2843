"""Exception taxonomy for the library.

Everything raised on purpose derives from PairLawError.  The command line
front end maps the leaf groups onto process exit codes: input validation
problems (exit 2), numerical tolerance failures and competing maxima
(exit 3), simulation truncation overflow (exit 4), and internal faults
that no input should provoke (exit 5).
"""


class PairLawError(Exception):
    """Base class for all library errors."""


class InputError(PairLawError):
    """Invalid input; maps to exit code 2."""


class NegativeEntry(InputError):
    """A probability entry is below zero."""


class BadSum(InputError):
    """Probability entries do not sum to one within tolerance."""


class Empty(InputError):
    """A distribution needs at least one entry."""


class TooManyColors(InputError):
    """Input exceeds the state-space cap of an exhaustive solve."""


class IndexMismatch(InputError):
    """Two laws were compared over different color index sets."""


class DomainError(InputError):
    """Parameter outside the domain of the requested operation."""


class NoSignChange(InputError):
    """Root bracket endpoints do not straddle zero."""


class NonPositiveC(InputError):
    """The limit-curve parameter c must be positive and finite."""


class NonPositiveParameter(InputError):
    """Both limit-surface parameters must be positive and finite."""


class InvalidPair(InputError):
    """Left and right distributions share no color with positive mass."""


class NTooSmall(InputError):
    """Family index below the smallest admissible size."""


class ToleranceNotMet(PairLawError):
    """A numerical routine could not vouch for its result: a quadrature
    hit its subdivision limit or produced a non-finite error estimate, or
    the three total-variation forms disagreed; maps to exit code 3."""


class ExcessTruncation(PairLawError):
    """Too many simulation trials hit the step horizon; maps to exit code 4."""


class UnimodalityError(PairLawError):
    """Grid pre-scan found a competing mode where one maximum was assumed;
    maps to exit code 3."""


class InternalFault(PairLawError):
    """A self-check of a derived result failed: a bug, not bad input;
    maps to exit code 5."""
