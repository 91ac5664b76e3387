"""Least-squares core and cross-country convergence-speed estimation.

The central object is the log-log regression of a variable v at year t+dt on
its value at year t,

    log v_i(t+dt) = intercept + S * log v_i(t),

whose slope S maps to a per-year convergence speed beta through
S = 1 - beta*dt. beta > 0 means initially small values grow faster
(convergence); beta < 0 means divergence. All logarithms are natural.

Each fit pairs the rows of two years by country through obs.index, the
panel's one YearIndex, so memory grows with the rows, not countries x years.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DegenerateX, NonFiniteValue, NonPositiveValue,
                     TooFewCountries, TooFewPoints)
# cross_section is not called here, but perfbench/tracer.py wraps
# regress.cross_section by name
from .panel import (_ATTRIBUTES, PanelColumns, Variable, cross_section,
                    write_table)

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
    """Least squares of y on x via mean-centered normal equations.

    Each mean is taken once, as np.add.reduce(v) / n: the sum and division
    that np.mean makes of a 1-d float64 array, so the bits are np.mean's
    without its wrapper.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    x_mean = np.add.reduce(x) / n
    y_mean = np.add.reduce(y) / n
    xc = x - x_mean
    yc = y - y_mean
    s_xx = float(xc @ xc)
    if s_xx == 0.0:
        raise DegenerateX("x has zero variance")
    slope = float(xc @ yc) / s_xx
    intercept = float(y_mean - slope * x_mean)
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
    if not (math.isfinite(v_start) and math.isfinite(v_end)):
        raise NonFiniteValue(
            f"growth rate needs finite values, got ({v_start!r}, {v_end!r})")
    if v_start <= 0 or v_end <= 0:
        raise NonPositiveValue(
            f"growth rate needs positive values, got ({v_start!r}, {v_end!r})")
    if not 1 <= dt < math.inf:
        raise ValueError(f"dt must be finite and >= 1 year, got {dt!r}")
    return math.log(v_end / v_start) / dt


def _log_log_fit(x_column, y_column, label: str) -> tuple[OlsFit, int]:
    """OLS of y on x, each column given as (logs, n): the logs of the rows
    usable at both, and n rows present there and not counted by the other
    column. Rows counted but not usable are counted as excluded."""
    (x, n_x), (y, n_y) = x_column, y_column
    if len(x) < 3:
        raise TooFewCountries(
            f"{len(x)} countries with positive {label}; need >= 3")
    return ols(x, y), n_x + n_y - len(x)


def _fit_cell(variable: Variable, t: int, dt: int, start,
              end) -> ConvergenceFit:
    """Regress log v(t+dt) on log v(t) over start and end, the _log_log_fit
    columns of years t and t + dt."""
    fit, n_excluded = _log_log_fit(
        start, end, f"{variable.value} at both {t} and {t + dt}")
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
    if dt < 1:
        raise ValueError(f"dt must be >= 1, got {dt}")
    variable = Variable(variable)
    index = obs.index
    start, end = index.year(t), index.year(t + dt)
    both, i, k = np.intersect1d(index.rank[start], index.rank[end],
                                return_indices=True)
    x, y = (getattr(obs, _ATTRIBUTES[variable])[rows]
            for rows in (start[i], end[k]))
    usable = (x > 0) & (y > 0)
    return _fit_cell(variable, t, dt, (np.log(x[usable]), len(start)),
                     (np.log(y[usable]), len(end) - len(both)))


def slope_surface(obs: PanelColumns, variable: "Variable | str",
                  t_list: Sequence[int], dt_max: int,
                  r2_min: float = 0.0) -> SlopeSurface:
    """One ConvergenceFit per (t in t_list, 1 <= dt <= dt_max) with enough data.

    Fits with r_squared below r2_min are dropped and counted. Only cells of
    two panel years with at least 3 countries positive at both are fitted;
    every other grid cell is skipped and counted. Entry order follows the
    grid order (t outer, dt inner), never completion order.
    """
    if not t_list:
        raise ValueError("t_list must be nonempty")
    if dt_max < 1:
        raise ValueError(f"dt_max must be >= 1, got {dt_max}")
    variable = Variable(variable)
    index = obs.index
    years = list(index.rows)
    # the rows of years[j] are bounds[j] to bounds[j + 1] of these arrays
    bounds = np.cumsum([0, *map(len, index.rows.values())]).tolist()
    ranks = index.rank[index.order]
    values = getattr(obs, _ATTRIBUTES[variable])[index.order]
    positive = values > 0
    logs = np.log(values, out=np.zeros_like(values), where=positive)
    n_positive = np.add.reduceat(positive, bounds[:-1], dtype=np.intp)
    starts = {years[j]: j for j in np.flatnonzero(n_positive >= 3).tolist()}
    # year t is scattered by country rank, the years after it gathered
    logs_at = np.zeros(len(index.codes))
    positive_at, present_at = np.zeros((2, len(index.codes)), dtype=bool)
    fits: list[ConvergenceFit] = []
    for t, j in ((t, starts[t]) for t in t_list if t in starts):
        a, b = bounds[j], bounds[j + 1]
        logs_at[ranks[a:b]] = logs[a:b]
        positive_at[ranks[a:b]], present_at[ranks[a:b]] = positive[a:b], True
        end = bisect_right(years, t + dt_max)
        there = ranks[b:bounds[end]]
        usable = positive_at[there] & positive[b:bounds[end]]
        x, y = logs_at[there], logs[b:bounds[end]]
        offsets = np.array(bounds[j + 1:end], dtype=np.intp) - b
        n_usable = np.add.reduceat(usable, offsets, dtype=np.intp).tolist()
        n_both = np.add.reduceat(present_at[there], offsets,
                                 dtype=np.intp).tolist()
        for k, n, n_in_both in zip(range(j + 1, end), n_usable, n_both):
            if n >= 3:
                cell = slice(bounds[k] - b, bounds[k + 1] - b)
                ok = usable[cell]
                fits.append(_fit_cell(
                    variable, t, years[k] - t, (x[cell][ok], b - a),
                    (y[cell][ok], len(ok) - n_in_both)))
        positive_at[ranks[a:b]] = present_at[ranks[a:b]] = False
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
