"""Least-squares core and cross-country convergence-speed estimation.

The central object is the log-log regression of a variable v at year t+dt on
its value at year t,

    log v_i(t+dt) = intercept + S * log v_i(t),

whose slope S maps to a per-year convergence speed beta through
S = 1 - beta*dt. beta > 0 means initially small values grow faster
(convergence); beta < 0 means divergence. All logarithms are natural.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateX, NonPositiveValue, TooFewCountries, TooFewPoints
# cross_section is not called here, but perfbench/tracer.py wraps
# regress.cross_section by name
from .panel import (PanelColumns, Variable, YearMatrix, as_variable,
                    cross_section, write_table, year_matrix)

SURFACE_CSV_HEADER = ["variable", "t", "dt", "S", "beta", "alpha",
                      "r_squared", "n_countries"]


@dataclass(frozen=True)
class OlsFit:
    """Plain unweighted least-squares line fit.

    constant_y flags the SS_tot = 0 case where r_squared is defined as 0.
    """

    slope: float
    intercept: float
    r_squared: float
    n: int
    constant_y: bool = False


@dataclass(frozen=True)
class ConvergenceFit:
    """One convergence regression at initial year t over horizon dt.

    S is the log-log slope; beta = (1 - S)/dt and alpha = intercept/dt are
    the per-year convergence speed and drift. n_excluded counts countries
    that appear at t or t+dt but were dropped (missing endpoint or value
    not strictly positive).
    """

    variable: Variable
    t: int
    dt: int
    S: float
    beta: float
    alpha: float
    r_squared: float
    n_countries: int
    n_excluded: int = 0

    @property
    def converges(self) -> bool:
        return self.beta > 0


@dataclass(frozen=True)
class SlopeSurface:
    """ConvergenceFits over a (t, dt) grid, filtered by a minimum r-squared."""

    variable: Variable
    entries: tuple[ConvergenceFit, ...]
    r2_min: float
    n_dropped: int = 0   # fits below r2_min
    n_skipped: int = 0   # grid cells without enough data


def ols(x: Sequence[float], y: Sequence[float]) -> OlsFit:
    """Least squares of y on x via mean-centered normal equations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    xc = x - x.mean()
    yc = y - y.mean()
    s_xx = float(xc @ xc)
    if s_xx == 0.0:
        raise DegenerateX("x has zero variance")
    slope = float(xc @ yc) / s_xx
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float(yc @ yc)
    if ss_tot == 0.0:
        return OlsFit(slope=slope, intercept=intercept, r_squared=0.0, n=n,
                      constant_y=True)
    residual = y - (intercept + slope * x)
    r_squared = 1.0 - float(residual @ residual) / ss_tot
    r_squared = min(max(r_squared, 0.0), 1.0)
    return OlsFit(slope=slope, intercept=intercept, r_squared=r_squared, n=n)


def growth_rate(v_start: float, v_end: float, dt: float) -> float:
    """Annualized logarithmic growth rate log(v_end/v_start)/dt (natural log)."""
    if v_start <= 0 or v_end <= 0:
        raise NonPositiveValue(
            f"growth rate needs positive values, got ({v_start!r}, {v_end!r})")
    if dt < 1:
        raise ValueError(f"dt must be >= 1 year, got {dt!r}")
    return math.log(v_end / v_start) / dt


def _log_log_fit(x_column, y_column, label: str) -> tuple[OlsFit, int]:
    """OLS of log y on log x over rows present and > 0 in both (values,
    present) columns; also counts the rows present in either but left out."""
    (x, x_present), (y, y_present) = x_column, y_column
    usable = x_present & y_present & (x > 0) & (y > 0)
    n_usable = int(np.count_nonzero(usable))
    if n_usable < 3:
        raise TooFewCountries(
            f"{n_usable} countries with positive {label}; need >= 3")
    return (ols(np.log(x[usable]), np.log(y[usable])),
            int(np.count_nonzero(x_present | y_present)) - n_usable)


def _fit_cell(matrix: YearMatrix, variable: Variable, t: int,
              dt: int) -> ConvergenceFit:
    """Regress log v(t+dt) on log v(t) over the rows positive at both ends."""
    fit, n_excluded = _log_log_fit(
        matrix.column(t), matrix.column(t + dt),
        f"{variable.value} at both {t} and {t + dt}")
    return ConvergenceFit(variable=variable, t=t, dt=dt, S=fit.slope,
                          beta=(1.0 - fit.slope) / dt, alpha=fit.intercept / dt,
                          r_squared=fit.r_squared, n_countries=fit.n,
                          n_excluded=n_excluded)


def convergence_regression(obs: PanelColumns, variable: "Variable | str",
                           t: int, dt: int) -> ConvergenceFit:
    """Regress log v(t+dt) on log v(t) across countries.

    Countries lacking either endpoint, or with a non-positive value at
    either endpoint, are excluded and counted in n_excluded.
    """
    variable = as_variable(variable)
    return _fit_cell(year_matrix(obs, variable), variable, t, dt)


def slope_surface(obs: PanelColumns, variable: "Variable | str",
                  t_list: Sequence[int], dt_max: int,
                  r2_min: float = 0.0) -> SlopeSurface:
    """One ConvergenceFit per (t in t_list, 1 <= dt <= dt_max) with enough data.

    Fits with r_squared below r2_min are dropped and counted. Only cells
    whose years are both panel years are fitted; every other grid cell, and
    a fitted one with too few countries, is skipped and counted. Entry order
    follows the grid order (t outer, dt inner), never completion order.
    """
    if not t_list:
        raise ValueError("t_list must be nonempty")
    if dt_max < 1:
        raise ValueError(f"dt_max must be >= 1, got {dt_max}")
    variable = as_variable(variable)
    matrix = year_matrix(obs, variable)
    years = list(matrix.columns)  # ascending
    fits: list[ConvergenceFit] = []
    for t in t_list:
        if t in matrix.columns:
            for end in years[bisect_right(years, t):
                             bisect_right(years, t + dt_max)]:
                with suppress(TooFewCountries):
                    fits.append(_fit_cell(matrix, variable, t, end - t))
    entries = tuple(fit for fit in fits if not fit.r_squared < r2_min)
    return SlopeSurface(variable=variable, entries=entries, r2_min=r2_min,
                        n_dropped=len(fits) - len(entries),
                        n_skipped=len(t_list) * dt_max - len(fits))


def write_surface_csv(surface: SlopeSurface, path,
                      header_comment: "str | None" = None) -> None:
    """Serialize a SlopeSurface to CSV: variable,t,dt,S,beta,alpha,r_squared,n_countries."""
    write_table(path, SURFACE_CSV_HEADER, list(zip(*(
        (e.variable.value, e.t, e.dt, e.S, e.beta, e.alpha, e.r_squared,
         e.n_countries) for e in surface.entries))), header_comment)
