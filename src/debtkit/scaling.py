"""Scale-invariant GDP-debt relation g ~ A * d**gamma per cross-section year.

gamma < 1 means per-capita GDP grows less than proportionally with
per-capita debt across countries; the regression direction is fixed to log g
on log d, matching the power-law form above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# cross_section and ols are not called here, but perfbench/tracer.py wraps
# scaling.cross_section and scaling.ols by name
from .panel import PanelColumns, cross_section, write_table
from .regress import _log_log_fit, ols

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


def _fit_year(obs: PanelColumns, rows, year: int) -> ScalingFit:
    """OLS of log g on log d over the rows of year with positive d and g."""
    d, g = obs.d[rows], obs.g[rows]
    usable = (d > 0) & (g > 0)
    fit, n_excluded = _log_log_fit((np.log(d[usable]), len(rows)),
                                   (np.log(g[usable]), 0), f"d and g in {year}")
    return ScalingFit(year=year, gamma=fit.slope, log_A=fit.intercept,
                      r_squared=fit.r_squared, n_countries=fit.n,
                      n_excluded=n_excluded)


def fit_gdp_debt_scaling(obs: PanelColumns, year: int) -> ScalingFit:
    """OLS of log g on log d over countries with positive d and g in a year."""
    return _fit_year(obs, obs.index.year(year), year)


def gamma_trend(obs: PanelColumns, years: Sequence[int]) -> list[ScalingFit]:
    """fit_gdp_debt_scaling per year; years without enough data are skipped.

    Skipped years are recoverable as set(years) minus the fitted years.
    """
    if not years:
        raise ValueError("years must be nonempty")
    rows = obs.index.rows
    usable = (obs.d > 0) & (obs.g > 0)
    return [_fit_year(obs, rows[year], year) for year in years
            if year in rows and np.count_nonzero(usable[rows[year]]) >= 3]


def write_trend_csv(fits: Iterable[ScalingFit], path,
                    header_comment: "str | None" = None) -> None:
    """Serialize ScalingFits to CSV: year,gamma,log_A,r_squared,n_countries."""
    write_table(path, TREND_CSV_HEADER, list(zip(*(
        (fit.year, fit.gamma, fit.log_A, fit.r_squared, fit.n_countries)
        for fit in fits))), header_comment)
