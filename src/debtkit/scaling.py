"""Scale-invariant GDP-debt relation g ~ A * d**gamma per cross-section year.

gamma < 1 means per-capita GDP grows less than proportionally with
per-capita debt across countries; the regression direction is fixed to log g
on log d, matching the power-law form above.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# cross_section and ols are not called here, but perfbench/tracer.py wraps
# scaling.cross_section and scaling.ols by name
from .panel import PanelColumns, cross_section, write_table
from .regress import _log_log_fit, _segment_fits, ols

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


def _logs(obs: PanelColumns, rows) -> tuple[np.ndarray, np.ndarray]:
    """log d and log g over the rows with positive d and g, in row order."""
    d, g = obs.d[rows], obs.g[rows]
    usable = (d > 0) & (g > 0)
    return np.log(d[usable]), np.log(g[usable])


def fit_gdp_debt_scaling(obs: PanelColumns, year: int) -> ScalingFit:
    """OLS of log g on log d over countries with positive d and g in a year."""
    year = operator.index(year)
    rows = obs.index.year(year)
    fit = _log_log_fit(*_logs(obs, rows), "d and g in {}", year)
    return ScalingFit(year=year, gamma=fit.slope, log_A=fit.intercept,
                      r_squared=fit.r_squared, n_countries=fit.n,
                      n_excluded=len(rows) - fit.n)


def gamma_trend(obs: PanelColumns, years: Sequence[int]) -> list[ScalingFit]:
    """fit_gdp_debt_scaling per year; a year with fewer than 3 countries
    positive in d and g, or with no spread in log d, is skipped.

    Skipped years are recoverable as set(years) minus the fitted years.
    Every panel year among years is fitted in one _segment_fits pass, which
    gives no fit for a skipped year, as slope_surface skips a cell.
    """
    years = list(map(operator.index, years))
    if not years:
        raise ValueError("years must be nonempty")
    rows = obs.index.rows
    years = [year for year in years if year in rows]
    if not years:
        return []
    logs = [_logs(obs, rows[year]) for year in years]
    counts = [len(x) for x, _ in logs]
    x, y = (np.concatenate(column) for column in zip(*logs))
    # a fit starts (slope, intercept, r_squared), in ScalingFit's order
    return [ScalingFit(year, *fit[:3], n, len(rows[year]) - n)
            for year, n, fit in zip(years, counts, _segment_fits(x, y, counts))
            if fit is not None]


def write_trend_csv(fits: Iterable[ScalingFit], path,
                    header_comment: "str | None" = None) -> None:
    """Serialize ScalingFits to CSV: year,gamma,log_A,r_squared,n_countries."""
    write_table(path, TREND_CSV_HEADER, list(zip(*(
        (fit.year, fit.gamma, fit.log_A, fit.r_squared, fit.n_countries)
        for fit in fits))), header_comment)
