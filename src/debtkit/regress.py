"""Least-squares core and cross-country convergence-speed estimation.

The central object is the log-log regression of a variable v at year t+dt on
its value at year t,

    log v_i(t+dt) = intercept + S * log v_i(t),

whose slope S maps to a per-year convergence speed beta through
S = 1 - beta*dt. beta > 0 means initially small values grow faster
(convergence); beta < 0 means divergence. All logarithms are natural.

Every cell, of slope_surface's grid or of convergence_regression, comes
from one pass, _cells, over obs.index, the panel's one YearIndex: each
start year t meets all its later years in one slice of the rows in (year,
code) order, so memory grows with the rows, not countries x years.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
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
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    x_mean, y_mean = np.add.reduce(x) / n, np.add.reduce(y) / n
    xc, yc = x - x_mean, y - y_mean
    s_xx = float(xc.dot(xc))
    if s_xx == 0.0:
        raise DegenerateX("x has zero variance")
    slope = float(xc.dot(yc)) / s_xx
    intercept = float(y_mean - slope * x_mean)
    ss_tot = float(yc.dot(yc))
    if ss_tot == 0.0:
        return OlsFit(slope=slope, intercept=intercept, r_squared=0.0, n=n,
                      constant_y=True)
    r = x * slope  # y - (intercept + slope * x), in one buffer
    r += intercept
    np.subtract(y, r, out=r)
    r_squared = min(max(1.0 - float(r.dot(r)) / ss_tot, 0.0), 1.0)
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


def _log_log_fit(x: np.ndarray, y: np.ndarray, label: str, *args) -> OlsFit:
    """OLS of y on x, the logs of the countries usable at both; fewer than
    3 of them raise TooFewCountries, naming label.format(*args)."""
    if len(x) < 3:
        raise TooFewCountries(
            f"{len(x)} countries with positive {label.format(*args)}; "
            f"need >= 3")
    return ols(x, y)


def _fitted(fit, cells) -> list:
    """fit(*cell) for each of cells that has at least 3 countries and spread
    in x; the rest are skipped."""
    fits = []
    for cell in cells:
        try:
            fits.append(fit(*cell))
        except (TooFewCountries, DegenerateX):
            pass
    return fits


def _cells(obs: PanelColumns, variable: Variable, t_list: Sequence[int],
           dts: range):
    """(variable, t, dt, x, y, n_excluded) for each t in t_list and dt in
    dts with t and t + dt panel years: x and y are the logs of v at t and
    t + dt of the countries positive at both, in country-code order, and
    n_excluded counts the others present at either. x and y are views
    into the arrays of t's slice."""
    index = obs.index
    years = list(index.rows)
    # per start year, its position in years and the run [j, k) of its later
    # years; the rows of these years alone are read, in one order
    runs = [(bisect_left(years, t), bisect_left(years, t + dts.start),
             bisect_left(years, t + dts.stop)) for t in t_list
            if t in index.rows]
    if not runs:
        return
    positions = sorted({p for i, j, k in runs for p in (i, *range(j, k))})
    read = [years[p] for p in positions]
    sizes = [len(index.rows[year]) for year in read]
    edges = list(accumulate(sizes, initial=0))
    order = np.concatenate([index.rows[year] for year in read])
    values = getattr(obs, _ATTRIBUTES[variable])[order]
    ranks, positive = index.rank[order], values > 0
    logs = np.log(values, out=np.zeros_like(values), where=positive)
    # year t is scattered by country rank, the years after it gathered
    logs_at = np.zeros(len(index.codes))
    positive_at, present_at = np.zeros((2, len(index.codes)), dtype=bool)
    for i, j, k in runs:
        # the same positions in read, where each run is still one run
        t, (i, j, k) = years[i], [bisect_left(positions, p) for p in (i, j, k)]
        at_t, later = slice(edges[i], edges[i + 1]), slice(edges[j], edges[k])
        here, there = ranks[at_t], ranks[later]
        logs_at[here], positive_at[here] = logs[at_t], positive[at_t]
        present_at[here] = True
        usable = positive_at[there] & positive[later]
        offsets = [edge - edges[j] for edge in edges[j:k]]
        n_usable, n_both = np.add.reduceat([usable, present_at[there]],
                                           offsets, axis=1,
                                           dtype=np.intp).tolist()
        x, y = logs_at[there[usable]], logs[later][usable]
        cut = 0
        for end, size, n, both in zip(read[j:k], sizes[j:k], n_usable, n_both):
            yield (variable, t, end - t, x[cut:cut + n], y[cut:cut + n],
                   sizes[i] + size - both - n)
            cut += n
        positive_at[here] = present_at[here] = False


def _fit_cell(variable: Variable, t: int, dt: int, x: np.ndarray,
              y: np.ndarray, n_excluded: int) -> ConvergenceFit:
    """Regress y, log v(t+dt), on x, log v(t): one cell of _cells."""
    fit = _log_log_fit(x, y, "{} at both {} and {}", variable.value, t,
                       t + dt)
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
    t, dt = operator.index(t), operator.index(dt)
    if dt < 1:
        raise ValueError(f"dt must be >= 1, got {dt}")
    obs.index.year(t), obs.index.year(t + dt)  # EmptyCrossSection if absent
    return _fit_cell(*next(_cells(obs, Variable(variable), [t],
                                  range(dt, dt + 1))))


def slope_surface(obs: PanelColumns, variable: "Variable | str",
                  t_list: Sequence[int], dt_max: int,
                  r2_min: float = 0.0) -> SlopeSurface:
    """One ConvergenceFit per (t in t_list, 1 <= dt <= dt_max) with enough data.

    Fits with r_squared below r2_min are dropped and counted. Only cells of
    two panel years with at least 3 countries positive at both and spread
    in log v(t) are fitted; every other grid cell is skipped and counted.
    Entry order follows the grid order (t outer, dt inner).
    """
    t_list, dt_max = list(map(operator.index, t_list)), operator.index(dt_max)
    if not t_list:
        raise ValueError("t_list must be nonempty")
    if dt_max < 1:
        raise ValueError(f"dt_max must be >= 1, got {dt_max}")
    variable = Variable(variable)
    fits = _fitted(_fit_cell,
                   _cells(obs, variable, t_list, range(1, dt_max + 1)))
    entries = tuple(fit for fit in fits if not fit.r_squared < r2_min)
    return SlopeSurface(variable=variable, entries=entries, r2_min=r2_min,
                        n_dropped=len(fits) - len(entries),
                        n_skipped=len(t_list) * dt_max - len(fits))


def write_surface_csv(surface: SlopeSurface, path,
                      header_comment: "str | None" = None) -> None:
    """Serialize a SlopeSurface to CSV: variable,t,dt,S,beta,alpha,r_squared,n_countries."""
    write_table(path, SURFACE_CSV_HEADER, [
        [surface.variable.value] * len(surface.entries),
        *([getattr(e, name) for e in surface.entries]
          for name in SURFACE_CSV_HEADER[1:])], header_comment)
