"""Exception hierarchy for the tsnet package.

Every error raised by the library derives from :class:`TsnetError`, so
callers (including the CLI) can catch one type.
"""


class TsnetError(Exception):
    """Base class for all tsnet errors."""


# --- series ingestion ---------------------------------------------------


class MissingColumn(TsnetError):
    """Requested CSV column is absent from the header, or the file has no
    header and the column was named (or the index is out of range)."""


class ParseError(TsnetError):
    """A CSV cell in the target column does not parse as a finite real number.

    Also raised for bytes that are not UTF-8, malformed CSV, a missing or
    blank date cell and timestamps out of order.  ``row`` is the 1-based
    line number in the file (a header, when the file has one, is row 1).
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EmptySeries(TsnetError):
    """No usable observations."""


class MomentOverflow(TsnetError):
    """The squared deviations of the values from their mean sum past float64."""


# --- graph construction -------------------------------------------------


class SeriesTooShort(TsnetError):
    """Fewer than two observations, so no graph can be built; also DFA's
    "no valid scale" error, for a series shorter than four times the
    smallest scale (n < 32 at order 2)."""


# --- fluctuation analysis -----------------------------------------------


class ScaleOutOfRange(TsnetError):
    """A requested window size violates order+2 <= n <= N/4."""


class DegenerateFit(TsnetError):
    """Too few usable points (or zero abscissa variance) for a regression."""


# --- network statistics --------------------------------------------------


class InsufficientTailPoints(TsnetError):
    """Fewer than three distinct positive-probability degrees in the fit range."""


class ZeroDegreeVariance(TsnetError):
    """Degree-mixing denominator is zero (all edge endpoints have equal degree)."""


class DisconnectedGraph(TsnetError):
    """Graph has unreachable node pairs (defensive; visibility graphs are connected)."""


# --- report stages -------------------------------------------------------


class Unavailable(TsnetError):
    """A stage did not run because a stage it needs failed."""


# --- arguments -----------------------------------------------------------


class InvalidParam(TsnetError):
    """An argument out of range: a generator spec's kind or parameter, a
    DFA order, scale list or non-finite Hurst exponent, a degree-tail
    range, a path or prefix size in ``netstats``, or an unknown dataset
    name in ``fetch``."""


# --- fetching ------------------------------------------------------------


class NetworkError(TsnetError):
    """Remote dataset could not be retrieved."""


class UnrecognizedFormat(TsnetError):
    """Downloaded payload does not match any known dataset layout, is a
    CSV or xlsx workbook that cannot be read, or gives one date twice."""
