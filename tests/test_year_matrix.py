"""The dense country x year matrix against the cross_section reference.

slope_surface, convergence_regression, gamma_trend and fit_gdp_debt_scaling
fit every cell from panel.year_matrix. The reference below is the earlier
implementation, which rescanned the observations through cross_section for
each cell; on any panel both must give equal results, or raise the same
error with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtkit import errors, panel, regress, scaling
from debtkit.panel import Variable, cross_section


# ----------------------------------------------- cross_section reference

def _ref_convergence_regression(obs, variable, t, dt):
    variable = panel.as_variable(variable)
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
    variable = panel.as_variable(variable)
    obs = list(obs)
    entries = []
    n_dropped = 0
    n_skipped = 0
    for t in t_list:
        for dt in range(1, dt_max + 1):
            try:
                fit = _ref_convergence_regression(obs, variable, t, dt)
            except (errors.TooFewCountries, errors.EmptyCrossSection):
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
        except (errors.TooFewCountries, errors.EmptyCrossSection):
            continue
    return fits


def _outcome(fn, *args):
    """The result of fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except errors.DebtkitError as exc:
        return type(exc), str(exc)


# ------------------------------------------------------ random panels

FIRST_YEAR = 2000

# repeated values make constant-x cells; 0, negative and non-finite values
# are present but never usable
_SPECIAL = [0.0, 1.0, 2.0, -1.0, math.nan, -math.inf]


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
                obs.append(panel.PerCapitaObservation(
                    country_code=chr(65 + i) * 3, year=year, d=value(),
                    g=value(), ratio_R=value(),
                    income_group=panel.IncomeGroup.LOW))
    return draw(st.permutations(obs)), n_years


@settings(derandomize=True, database=None, max_examples=200)
@given(drawn=_ragged_panels(), data=st.data())
def test_matrix_fits_equal_cross_section_reference(drawn, data):
    obs, n_years = drawn
    # initial years reach past both ends of the panel, so some cells are empty
    years = st.sampled_from(range(FIRST_YEAR - 1, FIRST_YEAR + n_years + 1))
    t_list = data.draw(st.lists(years, min_size=1, max_size=8))
    dt_max = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(FIRST_YEAR, FIRST_YEAR + n_years - 2))
    dt = data.draw(st.integers(1, dt_max))
    r2_min = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    for variable in Variable:
        assert (_outcome(regress.slope_surface, obs, variable, t_list, dt_max,
                         r2_min)
                == _outcome(_ref_slope_surface, obs, variable, t_list, dt_max,
                            r2_min))
        assert (_outcome(regress.convergence_regression, obs, variable, t, dt)
                == _outcome(_ref_convergence_regression, obs, variable, t, dt))
    assert (_outcome(scaling.gamma_trend, obs, t_list)
            == _outcome(_ref_gamma_trend, obs, t_list))
    assert (_outcome(scaling.fit_gdp_debt_scaling, obs, t)
            == _outcome(_ref_fit_gdp_debt_scaling, obs, t))


# ---------------------------------------------------------- examples

def _obs(code, year, value):
    return panel.PerCapitaObservation(
        country_code=code, year=year, d=value, g=value, ratio_R=value,
        income_group=panel.IncomeGroup.HIGH)


def test_year_matrix_layout_and_presence():
    obs = [_obs("CCC", 2001, 3.0), _obs("AAA", 2003, 0.0),
           _obs("BBB", 2001, math.nan), _obs("CCC", 2001, 4.0)]
    m = panel.year_matrix(obs, "d")
    assert m.codes == ("AAA", "BBB", "CCC")
    assert m.columns == {2001: 0, 2003: 1}
    values, present = m.column(2001)
    assert present.tolist() == [False, True, True]
    assert values[2] == 4.0  # a duplicate country-year keeps its last value
    assert math.isnan(values[1])
    values, present = m.column(2003)
    assert present.tolist() == [True, False, False]
    assert values[0] == 0.0
    with pytest.raises(errors.EmptyCrossSection, match="year 2002"):
        m.column(2002)


def test_constant_x_cell_raises_degenerate_x():
    # equal start values make log x constant; slope_surface must not skip it
    obs = [_obs(code, 2000, 2.0) for code in ("AAA", "BBB", "CCC")]
    obs += [_obs(code, 2001, v) for code, v in zip(("AAA", "BBB", "CCC"),
                                                   (1.0, 2.0, 3.0))]
    with pytest.raises(errors.DegenerateX):
        regress.slope_surface(obs, "d", [2000], 1)
    with pytest.raises(errors.DegenerateX):
        _ref_slope_surface(obs, "d", [2000], 1)
