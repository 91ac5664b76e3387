"""Exception taxonomy shared across the package.

Every error raised by debtkit derives from DebtkitError, so callers can
catch one base class. Ingestion errors carry the offending 1-based CSV
line number in ``line`` when known.
"""

from __future__ import annotations


class DebtkitError(Exception):
    """Base class for all debtkit errors."""


class IngestionError(DebtkitError):
    """Base for row-level CSV validation failures."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MalformedRow(IngestionError):
    """A CSV field could not be parsed into its declared type."""


class DuplicateKey(IngestionError):
    """The same (country_code, year) appeared more than once."""


class MissingDeflator(IngestionError):
    """A record's year has no entry in the deflator series."""


class NonPositive(IngestionError):
    """Population, GDP or deflator not finite and > 0; debt not finite and >= 0."""


class EmptyPanel(IngestionError):
    """The panel CSV has a header but no data rows."""


class EmptyCrossSection(DebtkitError):
    """No country has data for the requested year."""


class TooFewPoints(DebtkitError):
    """Fewer data points than the estimator requires."""


class DegenerateX(DebtkitError):
    """Regressor has zero variance; the slope is undefined."""


class NonPositiveValue(DebtkitError):
    """Growth rates need strictly positive start and end values."""


class TooFewCountries(DebtkitError):
    """Fewer than three usable countries for a cross-country fit."""


class EmptySample(DebtkitError):
    """An empty sample was passed to a distribution routine."""


class NonFiniteValue(DebtkitError):
    """Sample contains NaN or infinity."""


class NonPositiveSample(DebtkitError):
    """Gamma MLE requires strictly positive samples."""


class NoConvergence(DebtkitError):
    """Iterative solver did not converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate: float | None = None):
        if last_iterate is not None:
            message = f"{message} (last iterate {last_iterate!r})"
        super().__init__(message)
        self.last_iterate = last_iterate


class DegenerateSample(DebtkitError):
    """Sample admits no finite fit (e.g. zero variance drives k to infinity)."""


class WindowTooSmall(DebtkitError):
    """Rank window holds fewer than three ranks."""


class NonPositiveInWindow(DebtkitError):
    """Rank window contains values <= 0; log-log fit is undefined."""


class SeriesLengthMismatch(DebtkitError):
    """Interest or deficit series length does not match the horizon."""


class NonPositiveDebt(DebtkitError):
    """Model derivative requested at debt <= 0."""


class InvalidBeta(DebtkitError):
    """Convergence speed too large for the requested year span."""
