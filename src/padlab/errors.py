"""Exception hierarchy for the whole package.

Every failure mode callers are expected to handle gets its own class; the CLI
maps each one to a distinct exit code (see padlab.cli.EXIT_CODES).  The
checks of a count and of a real number read from a JSON document, and of a
finite real read from a flag or a report, live here too: the CLI and the
Markov lab share them, and this module loads no numpy.
"""

import math


class PadlabError(Exception):
    """Base class for all package errors."""


class PrecisionExhausted(PadlabError):
    """The certified digits cannot give what is asked of a value.

    An output entry is the zero O(p^c) with c below the working precision,
    a division is by O(p^c), or a congruence is past the certified digits.
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
    """A result would pass a configured size limit."""


class SupportMismatch(PadlabError):
    """Reference distribution vanishes somewhere the observed one does not."""


class SymbolCountMismatch(PadlabError):
    """Symbolic model size does not match the p-power the construction needs."""


class IrreducibilityError(PadlabError):
    """A Markov chain has no usable stationary vector.

    Either the stationary vector is not unique (more than one closed class),
    or the chain mixes too slowly for the round budget, or the eigenvector
    misses the residual tolerance (see padlab.entropylab.MarkovMeasure).
    """


class NegativeGap(PadlabError):
    """An entropy gap that should be nonnegative came out negative."""


class DivergentSeries(PadlabError):
    """A geometric series constant requested outside its convergence region."""


class NegativeExponent(PadlabError):
    """Cartan exponent differences must be nonnegative (descending input)."""


def _json_int(value, name: str) -> int:
    """A count read from a document: a JSON integer, not a float, bool or string."""
    if type(value) is not int:
        raise ValueError(f"'{name}' must be a JSON integer, got {value!r}")
    return value


def _json_number(value, name: str) -> int | float:
    """A real read from a document: a JSON integer or float, not a bool or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'{name}' entries must be JSON numbers, got {value!r}")
    return value


def _finite_real(value, name: str = "value") -> float:
    """A finite real: a flag's text, a report's printed string or a JSON
    number; never a bool, a NaN or an infinity."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"'{name}' must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"'{name}' must be a finite real, got {value!r}")
    return x


# argparse names a flag's type by it: "invalid finite real value: 'nan'"
_finite_real.__name__ = "finite real"
