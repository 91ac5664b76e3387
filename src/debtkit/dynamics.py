"""Debt-dynamics simulation and synthetic oracle panels.

Two mechanisms live here:

* the annual budget recursion for total debt,
  D(t) = (1 + I(t-1)) * D(t-1) + deficit(t), and
* a per-capita phenomenological model whose log growth rate is
  r_d(d) = c / d**(1-gamma) - r_pop, integrated by explicit Euler on log d
  (positivity-preserving, first order).

The synthetic panel generator evolves log d_i(t+1) = alpha +
(1-beta) * log d_i(t) + noise and pairs it with g = A * d**gamma, giving
panels with a known ground-truth convergence speed for estimator tests.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvalidBeta, NonPositiveDebt, SeriesLengthMismatch
from .panel import MAX_YEAR_SPAN, IncomeGroup, PanelColumns, write_table

BLOWUP_THRESHOLD = 1e12
UNDERFLOW_THRESHOLD = 1e-12
# most Euler steps or budget years one call may ask for, and most
# country-years a synthetic panel may evolve
MAX_STEPS = 10_000_000


class TerminalFlag(Enum):
    COMPLETED = "Completed"
    BLOWUP = "Blowup"
    UNDERFLOW = "Underflow"


@dataclass(frozen=True)
class BudgetParams:
    """Inputs to the total-debt budget recursion.

    interest and primary_deficit may be constants or per-year series of
    length ``horizon``; entry i applies to the step from year i to i+1.
    """

    d0: float
    interest: "float | Sequence[float]"
    primary_deficit: "float | Sequence[float]"
    horizon: int

    def __post_init__(self):
        if not 1 <= self.horizon <= MAX_STEPS:
            raise ValueError(f"horizon must lie in [1, {MAX_STEPS}] years, "
                             f"got {self.horizon}")
        for name in ("d0", "interest", "primary_deficit"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"budget {name} must be finite")


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the per-capita debt model d' = d * (c/d**(1-gamma) - r_pop).

    c is the composite borrowing constant multiplying d**(gamma-1); gamma is
    the GDP-debt scaling exponent; r_pop the population growth rate.
    """

    c: float
    gamma: float
    r_pop: float
    d0: float
    dt_step: float
    horizon: float

    def __post_init__(self):
        for name in ("c", "r_pop"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        # chained comparisons are false for NaN, so they reject it too
        if not 0 < self.d0 < math.inf:
            raise ValueError(f"d0 must be finite and > 0, got {self.d0!r}")
        if not 0 < self.dt_step < math.inf:
            raise ValueError(
                f"dt_step must be finite and > 0, got {self.dt_step!r}")
        if not 0 < self.gamma <= 1.2:
            raise ValueError(f"gamma must lie in (0, 1.2], got {self.gamma!r}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon must be finite and > 0, got {self.horizon!r}")
        if not self.horizon / self.dt_step <= MAX_STEPS:
            raise ValueError(f"more than {MAX_STEPS} Euler steps requested")


@dataclass(eq=False)
class SimPath:
    """Simulated per-capita debt trajectory; truncated early on blowup/underflow.

    times and d_values are 1-D float64 arrays, 16 bytes per point together.
    """

    times: np.ndarray
    d_values: np.ndarray
    terminal_flag: TerminalFlag


def _as_series(value: "float | Sequence[float]", horizon: int,
               name: str) -> np.ndarray:
    if np.isscalar(value):
        return np.full(horizon, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (horizon,):
        raise SeriesLengthMismatch(
            f"{name} series has length {arr.size}, horizon is {horizon}")
    return arr


def step_debt(params: BudgetParams) -> np.ndarray:
    """Total debt D(0..horizon) under the exact budget recursion."""
    interest = _as_series(params.interest, params.horizon, "interest")
    deficit = _as_series(params.primary_deficit, params.horizon,
                         "primary_deficit")
    debt = np.empty(params.horizon + 1)
    debt[0] = params.d0
    with np.errstate(over="ignore"):  # inf, as Python float arithmetic gives
        for t in range(1, params.horizon + 1):
            debt[t] = (1.0 + interest[t - 1]) * debt[t - 1] + deficit[t - 1]
    return debt


def model_growth_rate(params: ModelParams, d: float) -> float:
    """Per-year log growth rate r_d(d) = c * d**(gamma-1) - r_pop.

    Where d**(gamma-1) overflows, as at a subnormal d, the rate term is
    c * inf, or 0 with c = 0, as in simulate_model.
    """
    if d <= 0:
        raise NonPositiveDebt(f"debt must be > 0, got {d!r}")
    try:
        return params.c * d ** (params.gamma - 1.0) - params.r_pop
    except OverflowError:
        return (params.c * math.inf if params.c else 0.0) - params.r_pop


def local_slope(params: ModelParams, d: float) -> float:
    """Closed-form derivative of the growth rate: -c*(1-gamma)/d**(2-gamma).

    Where d**(2-gamma) underflows to 0 or overflows, it is divided out as
    two factors d**(1-gamma/2), each a float, so the slope is its value,
    or an infinity or signed 0 where that is past the floats.
    """
    if d <= 0:
        raise NonPositiveDebt(f"debt must be > 0, got {d!r}")
    slope = -params.c * (1.0 - params.gamma)
    try:
        return slope / d ** (2.0 - params.gamma)
    except (OverflowError, ZeroDivisionError):
        root = d ** (1.0 - params.gamma / 2.0)
        return slope / root / root


def simulate_model(params: ModelParams) -> SimPath:
    """Integrate the per-capita model by explicit Euler on log d.

    Terminates early with BLOWUP above 1e12 or UNDERFLOW below 1e-12 (model
    units); the crossing value is kept as the last point. A d past the
    largest float is kept as inf (BLOWUP). The path is filled in a float64
    buffer, so the returned arrays hold 16 bytes per point.
    """
    n_steps = int(round(params.horizon / params.dt_step))
    c, r_pop, dt = params.c, params.r_pop, params.dt_step
    # with c = 0 the rate term is 0 at any d, even where d**(gamma-1) overflows
    exponent = params.gamma - 1.0 if c else 0.0
    exp = math.exp
    log_d = math.log(params.d0)
    values = array.array("d", [params.d0])
    append = values.append
    flag = TerminalFlag.COMPLETED
    try:
        for _ in range(n_steps):
            log_d += dt * (c * exp(exponent * log_d) - r_pop)
            d = exp(log_d)
            append(d)
            if d > BLOWUP_THRESHOLD:
                flag = TerminalFlag.BLOWUP
                break
            if d < UNDERFLOW_THRESHOLD:
                flag = TerminalFlag.UNDERFLOW
                break
    except OverflowError:
        # exp(log_d) overflowed, so d is past any float; or, from a subnormal
        # d0 with gamma near 0, the first step's rate term did, and log_d,
        # not yet updated, is below 0: the sign of c then sends d to inf or 0
        if log_d > 0 or c > 0:
            append(math.inf)
            flag = TerminalFlag.BLOWUP
        else:
            append(0.0)
            flag = TerminalFlag.UNDERFLOW
    # step i is at float(i) * dt_step, the bits int64 i * dt_step gives
    # for i < 2**53, without an int64 temporary
    times = np.arange(len(values), dtype=float)
    times *= dt
    return SimPath(times=times, d_values=np.frombuffer(values),
                   terminal_flag=flag)


def _country_code(index: int) -> str:
    """Three-letter synthetic code: 0 -> AAA, 1 -> AAB, ..."""
    a, rem = divmod(index, 26 * 26)
    b, c = divmod(rem, 26)
    return chr(65 + a) + chr(65 + b) + chr(65 + c)


def synthetic_convergent_panel(
    n_countries: int,
    years: Sequence[int],
    alpha: float,
    beta: float,
    sigma: float,
    seed: int,
    log_d0_range: tuple[float, float] = (-1.0, 3.0),
    a_prefactor: float = 2.0,
    scaling_gamma: float = 0.9,
) -> PanelColumns:
    """Seeded synthetic panel with known convergence speed beta.

    Initial log d_i is uniform on log_d0_range; each year applies
    log d(t+1) = alpha + (1-beta) * log d(t) + N(0, sigma). Per-capita GDP
    follows g = a_prefactor * d**scaling_gamma, so the ratio R = d/g.
    Income groups are assigned by terciles of the initial debt level.
    Observations are emitted year-major, country index order, and are fully
    determined by the arguments.
    """
    if not 3 <= n_countries <= 26 ** 3:  # one three-letter code each
        raise ValueError(f"need 3 to {26 ** 3} countries, got {n_countries}")
    year_list = sorted({int(y) for y in years})
    if not year_list:
        raise ValueError("years must be nonempty")
    # the panel is evolved through every year from the first to the last
    if year_list[-1] - year_list[0] >= MAX_YEAR_SPAN:
        raise ValueError(f"years span more than {MAX_YEAR_SPAN} years from "
                         "first to last")
    if n_countries * (year_list[-1] - year_list[0] + 1) > MAX_STEPS:
        raise ValueError(f"more than {MAX_STEPS} country-years from the first "
                         "to the last year")
    # evolution is annual, so the per-step factor (1 - beta) must stay positive
    if beta >= 1.0:
        raise InvalidBeta(f"beta = {beta!r} >= 1; yearly slope would cross zero")
    lo, hi = log_d0_range
    if not hi > lo:
        raise ValueError(f"empty log_d0_range {log_d0_range!r}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"log_d0_range {log_d0_range!r} is wider than a "
                         "float can hold")
    rng = np.random.default_rng(seed)
    log_d = rng.uniform(lo, hi, n_countries)
    codes = [_country_code(i) for i in range(n_countries)]
    # static income labels by initial-debt tercile
    order = np.argsort(np.argsort(log_d))
    groups = np.array(list(IncomeGroup), dtype=object)[3 * order // n_countries]
    wanted = set(year_list)
    d_parts = []
    # values that overflow stay inf or NaN, which the panel row rules reject
    with np.errstate(all="ignore"):
        for year in range(year_list[0], year_list[-1] + 1):
            if year in wanted:
                d_parts.append(np.exp(log_d))
            if year < year_list[-1]:
                log_d = alpha + (1.0 - beta) * log_d + rng.normal(
                    0.0, sigma, n_countries)
        d = np.concatenate(d_parts)
        g = a_prefactor * d ** scaling_gamma
        ratio_R = d / g
    return PanelColumns(
        country_code=np.array(codes * len(year_list), dtype=object),
        year=np.repeat(np.array(year_list, dtype=np.int64), n_countries),
        d=d, g=g, ratio_R=ratio_R,
        income_group=np.tile(groups, len(year_list)))


def write_simpath_csv(path_result: SimPath, path,
                      header_comment: "str | None" = None) -> None:
    """Serialize a SimPath to CSV: t,d."""
    write_table(path, ["t", "d"], [path_result.times, path_result.d_values],
                header_comment)
