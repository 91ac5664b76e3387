"""Scale-invariant GDP-debt relation g ~ A * d**gamma per cross-section year.

gamma < 1 means per-capita GDP grows less than proportionally with
per-capita debt across countries; the regression direction is fixed to log g
on log d, matching the power-law form above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCrossSection, TooFewCountries
from .panel import PerCapitaObservation, Variable, cross_section, write_table
from .regress import ols

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


def fit_gdp_debt_scaling(obs: Iterable[PerCapitaObservation],
                         year: int) -> ScalingFit:
    """OLS of log g on log d over countries with positive d and g in a year."""
    obs = list(obs)
    d_map = cross_section(obs, year, Variable.DEBT_PER_CAPITA)
    g_map = cross_section(obs, year, Variable.GDP_PER_CAPITA)
    usable = [c for c in d_map if d_map[c] > 0 and g_map.get(c, 0.0) > 0]
    n_excluded = len(d_map) - len(usable)
    if len(usable) < 3:
        raise TooFewCountries(
            f"{len(usable)} countries with positive d and g in {year}; need >= 3")
    fit = ols(np.log([d_map[c] for c in usable]),
              np.log([g_map[c] for c in usable]))
    return ScalingFit(year=year, gamma=fit.slope, log_A=fit.intercept,
                      r_squared=fit.r_squared, n_countries=fit.n,
                      n_excluded=n_excluded)


def gamma_trend(obs: Iterable[PerCapitaObservation],
                years: Sequence[int]) -> list[ScalingFit]:
    """fit_gdp_debt_scaling per year; years without enough data are skipped.

    Skipped years are recoverable as set(years) minus the fitted years.
    """
    if not years:
        raise ValueError("years must be nonempty")
    obs = list(obs)
    fits = []
    for year in years:
        try:
            fits.append(fit_gdp_debt_scaling(obs, year))
        except (TooFewCountries, EmptyCrossSection):
            continue
    return fits


def write_trend_csv(fits: Iterable[ScalingFit], path,
                    header_comment: "str | None" = None) -> None:
    """Serialize ScalingFits to CSV: year,gamma,log_A,r_squared,n_countries."""
    write_table(path, TREND_CSV_HEADER, (
        (fit.year, fit.gamma, fit.log_A, fit.r_squared, fit.n_countries)
        for fit in fits), header_comment)
