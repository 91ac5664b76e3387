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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateX,
    EmptyCrossSection,
    NonPositiveValue,
    TooFewCountries,
    TooFewPoints,
)
from .panel import (PerCapitaObservation, Variable, as_variable, cross_section,
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


def convergence_regression(obs: Iterable[PerCapitaObservation],
                           variable: "Variable | str", t: int,
                           dt: int) -> ConvergenceFit:
    """Regress log v(t+dt) on log v(t) across countries.

    Countries lacking either endpoint, or with a non-positive value at
    either endpoint, are excluded and counted in n_excluded.
    """
    variable = as_variable(variable)
    obs = list(obs)
    start = cross_section(obs, t, variable)
    end = cross_section(obs, t + dt, variable)
    usable = [c for c in start
              if c in end and start[c] > 0 and end[c] > 0]
    n_excluded = len(set(start) | set(end)) - len(usable)
    if len(usable) < 3:
        raise TooFewCountries(
            f"{len(usable)} countries with positive {variable.value} at both "
            f"{t} and {t + dt}; need >= 3")
    log_start = np.log([start[c] for c in usable])
    log_end = np.log([end[c] for c in usable])
    fit = ols(log_start, log_end)
    return ConvergenceFit(
        variable=variable,
        t=t,
        dt=dt,
        S=fit.slope,
        beta=(1.0 - fit.slope) / dt,
        alpha=fit.intercept / dt,
        r_squared=fit.r_squared,
        n_countries=fit.n,
        n_excluded=n_excluded,
    )


def slope_surface(obs: Iterable[PerCapitaObservation], variable: "Variable | str",
                  t_list: Sequence[int], dt_max: int,
                  r2_min: float = 0.0) -> SlopeSurface:
    """One ConvergenceFit per (t in t_list, 1 <= dt <= dt_max) with enough data.

    Fits with r_squared below r2_min are dropped and counted; grid cells
    with too little data are skipped and counted. Entry order follows the
    grid order (t outer, dt inner), never completion order.
    """
    if not t_list:
        raise ValueError("t_list must be nonempty")
    if dt_max < 1:
        raise ValueError(f"dt_max must be >= 1, got {dt_max}")
    variable = as_variable(variable)
    obs = list(obs)
    entries: list[ConvergenceFit] = []
    n_dropped = 0
    n_skipped = 0
    for t in t_list:
        for dt in range(1, dt_max + 1):
            try:
                fit = convergence_regression(obs, variable, t, dt)
            except (TooFewCountries, EmptyCrossSection):
                n_skipped += 1
                continue
            if fit.r_squared < r2_min:
                n_dropped += 1
                continue
            entries.append(fit)
    return SlopeSurface(variable=variable, entries=tuple(entries),
                        r2_min=r2_min, n_dropped=n_dropped, n_skipped=n_skipped)


def write_surface_csv(surface: SlopeSurface, path,
                      header_comment: "str | None" = None) -> None:
    """Serialize a SlopeSurface to CSV: variable,t,dt,S,beta,alpha,r_squared,n_countries."""
    write_table(path, SURFACE_CSV_HEADER, (
        (e.variable.value, e.t, e.dt, e.S, e.beta, e.alpha, e.r_squared,
         e.n_countries) for e in surface.entries), header_comment)
