"""Scale-invariant GDP-debt relation g ~ A * d**gamma per cross-section year.

gamma < 1 means per-capita GDP grows less than proportionally with
per-capita debt across countries; the regression direction is fixed to log g
on log d, matching the power-law form above.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import TooFewCountries
# cross_section and ols are not called here, but perfbench/tracer.py wraps
# scaling.cross_section and scaling.ols by name
from .panel import (PanelColumns, Variable, YearMatrix, cross_section,
                    write_table, year_matrix)
from .regress import _log_columns, _log_log_fit, ols

TREND_CSV_HEADER = ["year", "gamma", "log_A", "r_squared", "n_countries"]


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit for one year: log g = log_A + gamma * log d (natural logs)."""

    year: int
    gamma: float
    log_A: float
    r_squared: float
    n_countries: int
    n_excluded: int = 0  # countries with d <= 0 or g <= 0 that year


def _fit_year(d: YearMatrix, g: YearMatrix, year: int) -> ScalingFit:
    """OLS of log g on log d over the rows with positive d and g in year."""
    fit, n_excluded = _log_log_fit(_log_columns(*d.column(year)),
                                   _log_columns(*g.column(year)),
                                   f"d and g in {year}")
    return ScalingFit(year=year, gamma=fit.slope, log_A=fit.intercept,
                      r_squared=fit.r_squared, n_countries=fit.n,
                      n_excluded=n_excluded)


def _d_and_g(obs: PanelColumns) -> tuple[YearMatrix, YearMatrix]:
    return (year_matrix(obs, Variable.DEBT_PER_CAPITA),
            year_matrix(obs, Variable.GDP_PER_CAPITA))


def fit_gdp_debt_scaling(obs: PanelColumns, year: int) -> ScalingFit:
    """OLS of log g on log d over countries with positive d and g in a year."""
    return _fit_year(*_d_and_g(obs), year)


def gamma_trend(obs: PanelColumns, years: Sequence[int]) -> list[ScalingFit]:
    """fit_gdp_debt_scaling per year; years without enough data are skipped.

    Skipped years are recoverable as set(years) minus the fitted years.
    """
    if not years:
        raise ValueError("years must be nonempty")
    d, g = _d_and_g(obs)
    fits = []
    for year in (year for year in years if year in d.columns):
        with suppress(TooFewCountries):
            fits.append(_fit_year(d, g, year))
    return fits


def write_trend_csv(fits: Iterable[ScalingFit], path,
                    header_comment: "str | None" = None) -> None:
    """Serialize ScalingFits to CSV: year,gamma,log_A,r_squared,n_countries."""
    write_table(path, TREND_CSV_HEADER, list(zip(*(
        (fit.year, fit.gamma, fit.log_A, fit.r_squared, fit.n_countries)
        for fit in fits))), header_comment)
