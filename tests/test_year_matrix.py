"""The panel's YearIndex against a row-scan reference, and the dense matrix.

slope_surface, convergence_regression, gamma_trend, fit_gdp_debt_scaling
and panel.cross_section read each year's rows through obs.index, the
YearIndex that a PanelColumns builds on first read and then keeps.
The reference below is the earlier implementation, which rescanned the
observations through cross_section for each cell; on any panel both must
give equal results, or raise the same error with the same message.

The dense country x year matrix that the fits read before the index is kept
below as year_matrix, the oracle that tests/test_regress.py holds the fits
to bit for bit. It takes memory in proportion to countries x years; the
index takes it in proportion to the rows, and the last tests bound it.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import islice, product
from pathlib import Path
from string import ascii_uppercase
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtkit import errors, panel, regress, scaling
from debtkit.errors import EmptyCrossSection
from debtkit.panel import _ATTRIBUTES, Variable

# the earlier observation row, which the reference scans; as a tuple of the
# fields in order it is also a row for PanelColumns.from_rows
PerCapitaObservation = namedtuple(
    "PerCapitaObservation", "country_code year d g ratio_R income_group")


# ------------------------------------------------ dense matrix reference

@dataclass(frozen=True, eq=False)
class YearMatrix:
    """One field as a dense country x year matrix.

    Rows are the country codes in sorted order and columns the years in
    sorted order. present marks the cells some observation filled, so a
    stored 0 or NaN stays distinct from a missing country-year.
    """

    codes: tuple[str, ...]
    columns: dict[int, int]  # year -> column index
    values: np.ndarray       # float, shape (len(codes), len(columns))
    present: np.ndarray      # bool, same shape

    def column(self, year: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, present) of one year, rows in country-code order."""
        j = self.columns.get(year)
        if j is None:
            raise EmptyCrossSection(f"no country has data for year {year}")
        return self.values[:, j], self.present[:, j]


def year_matrix(obs: panel.PanelColumns, field: "Variable | str") -> YearMatrix:
    """Build field's YearMatrix from the columns of obs.

    A duplicate country-year keeps its last value.
    """
    codes = sorted(set(obs.country_code.tolist()))
    row = np.fromiter(map({code: i for i, code in enumerate(codes)}.get,
                          obs.country_code.tolist()), np.intp, len(obs))
    years, col = np.unique(obs.year, return_inverse=True)
    # numpy leaves unspecified which repeated cell wins: assign last rows only
    cell = col * len(codes) + row
    last = len(cell) - 1 - np.unique(cell[::-1], return_index=True)[1]
    row, col = row[last], col[last]
    # column-major, so that each year's column is contiguous
    values = np.zeros((len(codes), len(years)), order="F")
    present = np.zeros(values.shape, dtype=bool, order="F")
    values[row, col] = getattr(obs, _ATTRIBUTES[Variable(field)])[last]
    present[row, col] = True
    columns = {year: j for j, year in enumerate(years.tolist())}
    return YearMatrix(tuple(codes), columns, values, present)


# ----------------------------------------------- cross_section reference

def cross_section(obs: Iterable[PerCapitaObservation], year: int,
                  field: "Variable | str") -> dict[str, float]:
    """Map country_code -> field value for one year, sorted by country code."""
    name = _ATTRIBUTES[Variable(field)]
    section = {o.country_code: getattr(o, name) for o in obs if o.year == year}
    if not section:
        raise EmptyCrossSection(f"no country has data for year {year}")
    return dict(sorted(section.items()))


def _ref_convergence_regression(obs, variable, t, dt):
    variable = Variable(variable)
    obs = list(obs)
    start = cross_section(obs, t, variable)
    end = cross_section(obs, t + dt, variable)
    usable = [c for c in start
              if c in end and start[c] > 0 and end[c] > 0]
    n_excluded = len(set(start) | set(end)) - len(usable)
    if len(usable) < 3:
        raise errors.TooFewCountries(
            f"{len(usable)} countries with positive {variable.value} at both "
            f"{t} and {t + dt}; need >= 3")
    log_start = np.log([start[c] for c in usable])
    log_end = np.log([end[c] for c in usable])
    fit = regress.ols(log_start, log_end)
    return regress.ConvergenceFit(
        variable=variable, t=t, dt=dt, S=fit.slope,
        beta=(1.0 - fit.slope) / dt, alpha=fit.intercept / dt,
        r_squared=fit.r_squared, n_countries=fit.n, n_excluded=n_excluded)


def _ref_slope_surface(obs, variable, t_list, dt_max, r2_min=0.0):
    variable = Variable(variable)
    obs = list(obs)
    entries = []
    n_dropped = 0
    n_skipped = 0
    for t in t_list:
        for dt in range(1, dt_max + 1):
            try:
                fit = _ref_convergence_regression(obs, variable, t, dt)
            except (errors.TooFewCountries, errors.EmptyCrossSection,
                    errors.DegenerateX):
                n_skipped += 1
                continue
            if fit.r_squared < r2_min:
                n_dropped += 1
                continue
            entries.append(fit)
    return regress.SlopeSurface(variable=variable, entries=tuple(entries),
                                r2_min=r2_min, n_dropped=n_dropped,
                                n_skipped=n_skipped)


def _ref_fit_gdp_debt_scaling(obs, year):
    obs = list(obs)
    d_map = cross_section(obs, year, Variable.DEBT_PER_CAPITA)
    g_map = cross_section(obs, year, Variable.GDP_PER_CAPITA)
    usable = [c for c in d_map if d_map[c] > 0 and g_map.get(c, 0.0) > 0]
    n_excluded = len(d_map) - len(usable)
    if len(usable) < 3:
        raise errors.TooFewCountries(
            f"{len(usable)} countries with positive d and g in {year}; need >= 3")
    fit = regress.ols(np.log([d_map[c] for c in usable]),
                      np.log([g_map[c] for c in usable]))
    return scaling.ScalingFit(year=year, gamma=fit.slope, log_A=fit.intercept,
                              r_squared=fit.r_squared, n_countries=fit.n,
                              n_excluded=n_excluded)


def _ref_gamma_trend(obs, years):
    obs = list(obs)
    fits = []
    for year in years:
        try:
            fits.append(_ref_fit_gdp_debt_scaling(obs, year))
        except (errors.TooFewCountries, errors.EmptyCrossSection,
                errors.DegenerateX):
            continue
    return fits


def _outcome(fn, *args):
    """The result of fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except errors.DebtkitError as exc:
        return type(exc), str(exc)


def _section_bits(fn, obs, year, variable):
    """fn's cross-section as (code, value.hex()) pairs in order, so that NaN
    equals NaN and -0.0 differs from 0.0."""
    return [(code, value.hex())
            for code, value in fn(obs, year, variable).items()]


# ------------------------------------------------------ random panels

FIRST_YEAR = 2000

# repeated values make constant-x cells; 0, negative and non-finite values
# are present but never usable
_SPECIAL = [0.0, -0.0, 1.0, 2.0, -1.0, math.nan, -math.inf]


@st.composite
def _ragged_panels(draw):
    """Observations with staggered entry, missing years and duplicates."""
    def value():
        if draw(st.integers(0, 5)) == 0:
            return draw(st.sampled_from(_SPECIAL))
        return draw(st.floats(min_value=1e-3, max_value=1e3))

    n_years = draw(st.sampled_from(range(3, 7)))
    obs = []
    for i in range(draw(st.sampled_from(range(2, 10)))):
        entry = draw(st.integers(0, n_years - 1))
        for year in range(FIRST_YEAR + entry, FIRST_YEAR + n_years):
            # 0 leaves the year missing, 2 makes a duplicate country-year
            for _ in range(draw(st.sampled_from([1, 1, 1, 1, 1, 0, 2]))):
                obs.append(PerCapitaObservation(
                    country_code=chr(65 + i) * 3, year=year, d=value(),
                    g=value(), ratio_R=value(),
                    income_group=panel.IncomeGroup.LOW))
    return draw(st.permutations(obs)), n_years


@settings(derandomize=True, database=None, max_examples=200)
@given(drawn=_ragged_panels(), data=st.data())
def test_matrix_fits_equal_cross_section_reference(drawn, data):
    obs, n_years = drawn
    columns = panel.PanelColumns.from_rows(obs)
    # initial years reach past both ends of the panel, so some cells are empty
    years = st.sampled_from(range(FIRST_YEAR - 1, FIRST_YEAR + n_years + 1))
    t_list = data.draw(st.lists(years, min_size=1, max_size=8))
    dt_max = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(FIRST_YEAR, FIRST_YEAR + n_years - 2))
    dt = data.draw(st.integers(1, dt_max))
    r2_min = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    for variable in Variable:
        assert (_outcome(regress.slope_surface, columns, variable, t_list,
                         dt_max, r2_min)
                == _outcome(_ref_slope_surface, obs, variable, t_list, dt_max,
                            r2_min))
        assert (_outcome(regress.convergence_regression, columns, variable, t,
                         dt)
                == _outcome(_ref_convergence_regression, obs, variable, t, dt))
        # t_list reaches years without rows, where both must raise
        for year in [t, *t_list]:
            assert (_outcome(_section_bits, panel.cross_section, columns,
                             year, variable)
                    == _outcome(_section_bits, cross_section, obs, year,
                                variable))
    assert (_outcome(scaling.gamma_trend, columns, t_list)
            == _outcome(_ref_gamma_trend, obs, t_list))
    assert (_outcome(scaling.fit_gdp_debt_scaling, columns, t)
            == _outcome(_ref_fit_gdp_debt_scaling, obs, t))


# ---------------------------------------------------------- examples

def _obs(code, year, value):
    return PerCapitaObservation(
        country_code=code, year=year, d=value, g=value, ratio_R=value,
        income_group=panel.IncomeGroup.HIGH)


def test_year_index_layout():
    obs = [_obs("CCC", 2001, 3.0), _obs("AAA", 2003, 0.0),
           _obs("BBB", 2001, math.nan), _obs("CCC", 2001, 4.0)]
    index = panel.PanelColumns.from_rows(obs).index
    assert index.codes == ("AAA", "BBB", "CCC")
    assert index.rank.tolist() == [2, 0, 1, 2]
    assert list(index.rows) == [2001, 2003]
    # rows come in code order, and a duplicate country-year keeps its last
    # row; the NaN row and the 0 row are there
    assert index.year(2001).tolist() == [2, 3]
    assert index.year(2003).tolist() == [1]
    with pytest.raises(errors.EmptyCrossSection, match="year 2002"):
        index.year(2002)


def test_index_is_built_once_per_columns():
    columns = panel.PanelColumns.from_rows(
        [_obs("BBB", 2001, 1.0), _obs("AAA", 2001, 2.0)])
    assert "index" not in vars(columns)
    assert columns.index is columns.index
    # the index is no field, and a subset builds one of its own
    assert [f.name for f in fields(columns)] == list(PerCapitaObservation._fields)
    subset = columns.compress(columns.country_code == "BBB")
    assert subset.index is not columns.index
    assert subset.index.codes == ("BBB",)


def test_constant_x_cell_raises_degenerate_x():
    # equal values in 2000 make log x constant there: the grid skips and
    # counts the cells that start in 2000, and a single cell still raises
    codes = ("AAA", "BBB", "CCC")
    obs = [_obs(code, 2000, 2.0) for code in codes]
    obs += [_obs(code, year, v * (year - 1999)) for year in (2001, 2002)
            for code, v in zip(codes, (1.0, 2.0, 4.0))]
    columns = panel.PanelColumns.from_rows(obs)
    surface = regress.slope_surface(columns, "d", [2000, 2001], 2)
    assert [(e.t, e.dt) for e in surface.entries] == [(2001, 1)]
    assert (surface.n_skipped, surface.n_dropped) == (3, 0)
    assert surface == _ref_slope_surface(obs, "d", [2000, 2001], 2)
    for dt in (1, 2):
        with pytest.raises(errors.DegenerateX):
            regress.convergence_regression(columns, "d", 2000, dt)
    # the scaling year 2000 has constant log d: skipped in the trend only
    assert [fit.year for fit in scaling.gamma_trend(columns, [2000, 2001])
            ] == [2001]
    assert (scaling.gamma_trend(columns, [2000, 2001])
            == _ref_gamma_trend(obs, [2000, 2001]))
    with pytest.raises(errors.DegenerateX):
        scaling.fit_gdp_debt_scaling(columns, 2000)


# ------------------------------------------------------------ memory

def _one_year_each(n):
    """n countries, each observed in a year of its own from 2000 on."""
    codes = map("".join, product(ascii_uppercase, repeat=3))
    return [_obs(code, 2000 + i, 1.0 + i)
            for i, code in enumerate(islice(codes, n))]


def test_one_year_per_country_panel_reads_in_little_memory():
    # the dense matrix of this panel held 4,000 x 4,000 cells, 277 MiB
    obs = panel.PanelColumns.from_rows(_one_year_each(4000))
    years = list(range(2000, 6000))
    tracemalloc.start()
    try:
        surface = regress.slope_surface(obs, "d", years[:-1], 15)
        fits = scaling.gamma_trend(obs, years)
        with pytest.raises(errors.TooFewCountries):
            regress.convergence_regression(obs, "d", 2000, 1)
        section = panel.cross_section(obs, 2000, "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (surface.entries, surface.n_skipped) == ((), 3999 * 15)
    assert fits == [] and section == {"AAA": 1.0}
    assert peak < 16 * 2 ** 20


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def test_one_year_per_country_cli_runs_in_one_gib(tmp_path):
    # 17,576 countries and years: a dense matrix of them needs 2.3 GiB
    rows = _one_year_each(26 ** 3)
    obs = panel.PanelColumns.from_rows(rows)
    panel.write_panel_csv(tmp_path / "panel.csv",
                          panel.records_from_observations(obs))
    panel.write_deflator_csv(tmp_path / "deflator.csv", panel.DeflatorSeries(
        {row.year: 1.0 for row in rows}))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for command, note in (("converge", "(0 fits, 0 below r2_min, 263625 "
                                       "skipped)"),
                          ("scaling", "(0 years)")):
        result = subprocess.run(
            [sys.executable, "-m", "debtkit.cli", command,
             "--panel", str(tmp_path / "panel.csv"),
             "--deflator", str(tmp_path / "deflator.csv"),
             "--out", str(tmp_path / command)],
            env=env, capture_output=True, text=True, timeout=300,
            preexec_fn=_one_gib_address_space)
        assert result.returncode == 0, result.stderr[-2000:]
        assert note in result.stdout
