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
code) order, so memory grows with the rows, not countries x years. Every
least-squares line, of a cell, a scaling year or a Zipf fit, comes from one
kernel, _segment_fits: slope_surface hands it a start year's cells at once,
scaling.gamma_trend all its years at once, and both skip each segment it
does not fit, by one rule; ols is its one-segment case.
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


def _segment_fits(x: np.ndarray, y: np.ndarray,
                  counts: Sequence[int]) -> list:
    """Least squares of y on x over each consecutive segment of x and y,
    counts[k] points long: (slope, intercept, r_squared, constant_y) per
    segment, or None where ols raises TooFewPoints or DegenerateX.

    Each segment gets the bits of ols on it alone. Its means are
    np.add.reduce(v) / n, the sum and division that np.mean makes of a 1-d
    float64 array, and its sums of squares are dot products of its own
    slices. The centring and the residuals are one array operation over all
    segments, each in a (2, len(x)) buffer of repeated means, or of repeated
    slopes and intercepts; the first buffer is freed before the second is
    made, so a pass holds two arrays of the points besides x and y.
    """
    m = len(counts)
    # the segments that ols would not reject for having fewer than 3 points
    starts = accumulate(counts, initial=0)
    segments = [(k, slice(a, a + n), n)
                for k, (a, n) in enumerate(zip(starts, counts)) if n >= 3]
    x_means, y_means = [0.0] * m, [0.0] * m
    for k, at, n in segments:
        x_means[k] = float(np.add.reduce(x[at])) / n
        y_means[k] = float(np.add.reduce(y[at])) / n
    xs, ys = centred = np.repeat([x_means, y_means], counts, axis=1)
    np.subtract(x, xs, out=xs)
    np.subtract(y, ys, out=ys)
    # a segment with no residual to sum keeps slope and intercept 0
    fits, slopes, intercepts, lines = [None] * m, [0.0] * m, [0.0] * m, []
    for k, at, n in segments:
        xs, ys = centred[0, at], centred[1, at]
        s_xx = float(xs.dot(xs))
        if s_xx == 0.0:
            continue
        slope = float(xs.dot(ys)) / s_xx
        intercept = y_means[k] - slope * x_means[k]
        ss_tot = float(ys.dot(ys))
        if ss_tot == 0.0:
            fits[k] = slope, intercept, 0.0, True
        else:
            slopes[k], intercepts[k] = slope, intercept
            lines.append((k, at, ss_tot))
    del centred, xs, ys  # free the buffer, which the last slices hold too
    if lines:
        r, intercept = np.repeat([slopes, intercepts], counts, axis=1)
        np.multiply(x, r, out=r)  # y - (intercept + slope * x)
        r += intercept
        np.subtract(y, r, out=r)
    for k, at, ss_tot in lines:
        rs = r[at]
        fits[k] = (slopes[k], intercepts[k],
                   min(max(1.0 - float(rs.dot(rs)) / ss_tot, 0.0), 1.0), False)
    return fits


def ols(x: Sequence[float], y: Sequence[float]) -> OlsFit:
    """Least squares of y on x via mean-centered normal equations: the
    one-segment case of _segment_fits. x and y must be finite."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteValue("x and y must be finite")
    fit, = _segment_fits(x, y, [n])
    if fit is None:
        raise DegenerateX("x has zero variance")
    slope, intercept, r_squared, constant_y = fit
    return OlsFit(slope=slope, intercept=intercept, r_squared=r_squared, n=n,
                  constant_y=constant_y)


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


def _cells(obs: PanelColumns, variable: Variable, t_list: Sequence[int],
           dts: range):
    """(t, x, y, cells) for each panel year t in t_list; cells holds
    (dt, n, n_excluded) for each dt in dts with t + dt a panel year, in
    order. x and y are the logs of v at t and t + dt of the countries
    positive at both, cell after cell, n points each in country-code order;
    n_excluded counts the others present at either."""
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
        yield t, logs_at[there[usable]], logs[later][usable], [
            (end - t, n, sizes[i] + size - both - n) for end, size, n, both
            in zip(read[j:k], sizes[j:k], n_usable, n_both)]
        positive_at[here] = present_at[here] = False


def _convergence_fit(variable: Variable, t: int, dt: int, n: int,
                     n_excluded: int, slope: float, intercept: float,
                     r_squared: float) -> ConvergenceFit:
    """The ConvergenceFit of cell (t, dt) from its least-squares line."""
    return ConvergenceFit(variable=variable, t=t, dt=dt, S=slope,
                          beta=(1.0 - slope) / dt, alpha=intercept / dt,
                          r_squared=r_squared, n_countries=n,
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
    variable = Variable(variable)
    _, x, y, [(_, n, n_excluded)] = next(_cells(obs, variable, [t],
                                                range(dt, dt + 1)))
    fit = _log_log_fit(x, y, "{} at both {} and {}", variable.value, t,
                       t + dt)
    return _convergence_fit(variable, t, dt, n, n_excluded, fit.slope,
                            fit.intercept, fit.r_squared)


def slope_surface(obs: PanelColumns, variable: "Variable | str",
                  t_list: Sequence[int], dt_max: int,
                  r2_min: float = 0.0) -> SlopeSurface:
    """One ConvergenceFit per (t in t_list, 1 <= dt <= dt_max) with enough data.

    Fits with r_squared below r2_min are dropped and counted. Only cells of
    two panel years with at least 3 countries positive at both and spread
    in log v(t) are fitted; every other grid cell is skipped and counted.
    Entry order follows the grid order (t outer, dt inner). Each start
    year's cells are fitted in one _segment_fits pass.
    """
    t_list, dt_max = list(map(operator.index, t_list)), operator.index(dt_max)
    if not t_list:
        raise ValueError("t_list must be nonempty")
    if dt_max < 1:
        raise ValueError(f"dt_max must be >= 1, got {dt_max}")
    variable = Variable(variable)
    fits = [_convergence_fit(variable, t, *cell, *fit[:3])
            for t, x, y, cells in _cells(obs, variable, t_list,
                                         range(1, dt_max + 1))
            for cell, fit in zip(cells, _segment_fits(
                x, y, [n for _, n, _ in cells])) if fit is not None]
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
