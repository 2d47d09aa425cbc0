"""Exception hierarchy for the whole package.

Every failure mode callers are expected to handle gets its own class; the CLI
maps each one to a distinct exit code (see padlab.cli.EXIT_CODES).
"""


class PadlabError(Exception):
    """Base class for all package errors."""


class PrecisionExhausted(PadlabError):
    """An addition cancelled every jointly certified digit.

    The result cannot be certified nonzero at working precision, and the
    floating-valuation representation has no way to carry it.
    """


class DivisionByZero(PadlabError):
    """Inversion or division by an exact zero."""


class SingularAtPrecision(PadlabError):
    """No usable pivot: the matrix is singular as far as certified digits go."""


class NotSplitAtPrecision(PadlabError):
    """Root clusters could not be separated within the precision budget."""


class DomainError(PadlabError):
    """Input outside the convergence domain of a series (exp, log, bch)."""


class NoConvergence(PadlabError):
    """An iteration failed to contract (factorization residual stalled)."""


class NotDiagonalizable(PadlabError):
    """The adjoint action does not split over Q_p at working precision."""


class NoHyperbolicity(PadlabError):
    """All adjoint eigenvalues are units: no contraction anywhere."""


class LevelTooSmall(PadlabError):
    """A congruence level below the validity threshold of the construction."""


class BudgetExceeded(PadlabError):
    """An enumeration would exceed its configured point budget."""


class SupportMismatch(PadlabError):
    """Reference distribution vanishes somewhere the observed one does not."""


class SymbolCountMismatch(PadlabError):
    """Symbolic model size does not match the p-power the construction needs."""


class IrreducibilityError(PadlabError):
    """A Markov chain has no usable stationary vector.

    Either the stationary vector is not unique (more than one closed class),
    or the chain mixes too slowly for the round budget, or the direct solve
    misses the residual tolerance (see padlab.entropylab.MarkovMeasure).
    """


class NegativeGap(PadlabError):
    """An entropy gap that should be nonnegative came out negative."""


class DivergentSeries(PadlabError):
    """A geometric series constant requested outside its convergence region."""


class NegativeExponent(PadlabError):
    """Cartan exponent differences must be nonnegative (descending input)."""
