"""Convergence regression tests against hand-worked and grid-search oracles.

The fit path is also held to the earlier one, kept below as a reference:
ols with np.mean, and each cell logging its own rows. Both must give the
same bits, or raise the same error with the same message.
"""

import dataclasses
import math
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from debtkit import errors, panel, regress, scaling
from test_year_matrix import year_matrix


def _grid_ols_slope(x, y, lo=-5.0, hi=5.0, step=1e-4):
    """Independent OLS oracle: scan slopes, profile the intercept out.

    For each candidate slope b the optimal intercept is mean(y) - b*mean(x),
    so SS_res(b) can be minimized by brute force.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    grid = np.arange(lo, hi + step, step)
    xc = x - x.mean()
    yc = y - y.mean()
    ss = ((yc[None, :] - grid[:, None] * xc[None, :]) ** 2).sum(axis=1)
    return float(grid[np.argmin(ss)])


def test_ols_hand_worked_example():
    # x=[0,1,2], y=[0,1,1]: slope 1/2, intercept 1/6, r^2 = 3/4
    fit = regress.ols([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    assert fit.slope == pytest.approx(0.5, abs=1e-15)
    assert fit.intercept == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert fit.r_squared == pytest.approx(0.75, abs=1e-12)
    assert fit.n == 3


def test_ols_matches_slope_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.normal(0.0, 2.0, 40)
        y = 1.3 * x - 0.7 + rng.normal(0.0, 0.5, 40)
        fit = regress.ols(x, y)
        oracle = _grid_ols_slope(x, y)
        assert abs(fit.slope - oracle) <= 1e-4  # grid resolution


def test_ols_matches_numpy_polyfit():
    rng = np.random.default_rng(11)
    x = rng.uniform(-3, 3, 100)
    y = -0.4 * x + 2.0 + rng.normal(0, 0.1, 100)
    fit = regress.ols(x, y)
    slope, intercept = np.polyfit(x, y, 1)
    assert fit.slope == pytest.approx(slope, rel=1e-10)
    assert fit.intercept == pytest.approx(intercept, rel=1e-10)


def test_ols_exact_line_has_unit_r_squared():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2.0 * v - 1.0 for v in x]
    fit = regress.ols(x, y)
    assert fit.slope == pytest.approx(2.0, abs=1e-14)
    assert fit.r_squared == 1.0


def test_ols_shift_invariance():
    # large common offsets must not degrade the slope (mean-centered solver)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 50)
    y = 0.9 * x + rng.normal(0, 0.01, 50)
    base = regress.ols(x, y)
    shifted = regress.ols(x + 1e8, y + 1e8)
    assert shifted.slope == pytest.approx(base.slope, abs=1e-6)


_COORD = st.floats(min_value=-100.0, max_value=100.0)
_SCALE = st.builds(lambda m, sign: m * sign,
                   st.floats(min_value=0.01, max_value=100.0),
                   st.sampled_from([-1.0, 1.0]))
_SHIFT = st.floats(min_value=-1e3, max_value=1e3)


@settings(derandomize=True, database=None)
@given(points=st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=30),
       a=_SCALE, b=_SHIFT, c=_SCALE, e=_SHIFT)
def test_ols_affine_invariance(points, a, b, c, e):
    # x -> a*x + b and y -> c*y + e scale the slope by c/a and keep r^2
    x, y = np.array(points).T
    assume(np.ptp(x) >= 1.0 and np.ptp(y) >= 1.0)
    base = regress.ols(x, y)
    mapped = regress.ols(a * x + b, c * y + e)
    # |slope| <= std(y)/std(x), so this bounds the error relative to the fit
    scale = abs(c / a) * np.std(y) / np.std(x)
    assert abs(mapped.slope - base.slope * c / a) <= 1e-9 * scale
    assert mapped.r_squared == pytest.approx(base.r_squared, abs=1e-9)
    assert mapped.n == base.n


def test_ols_guards():
    with pytest.raises(errors.TooFewPoints):
        regress.ols([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(errors.DegenerateX):
        regress.ols([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    for x, y in (([1.0, 2.0, 3.0], [1.0, 2.0]), ([[1.0, 2.0, 3.0]],) * 2):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            regress.ols(x, y)
    fit = regress.ols([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert fit.slope == 0.0
    assert fit.r_squared == 0.0
    assert fit.constant_y


def test_growth_rate():
    assert regress.growth_rate(2.0, 1.0, 10) == pytest.approx(
        -math.log(2.0) / 10.0, abs=1e-15)
    assert regress.growth_rate(1.0, 1.0, 5) == 0.0
    with pytest.raises(errors.NonPositiveValue):
        regress.growth_rate(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        regress.growth_rate(1.0, 2.0, 0)


def test_growth_rate_rejects_non_finite_values():
    for v_start, v_end in ((1.0, math.nan), (math.inf, 2.0),
                           (1.0, -math.inf)):
        with pytest.raises(errors.NonFiniteValue, match="finite values"):
            regress.growth_rate(v_start, v_end, 1)


def test_growth_rate_rejects_non_finite_dt():
    for dt in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be finite"):
            regress.growth_rate(1.0, 2.0, dt)


def _obs(code, year, value):
    """One observation row: the PanelColumns fields in order."""
    return (code, year, value, 1.0, value, panel.IncomeGroup.MEDIUM)


def _noiseless_panel(alpha, s, years, start_values):
    """Rows with log v(t+1) = alpha + s * log v(t), one country per start
    value."""
    obs = []
    for i, v0 in enumerate(start_values):
        log_v = math.log(v0)
        code = chr(65 + i) * 3
        for year in years:
            obs.append(_obs(code, year, math.exp(log_v)))
            log_v = alpha + s * log_v
    return obs


def test_convergence_regression_noiseless_identity():
    # forward map uses S=0.8, alpha=0.5 per year; dt=1 recovers them exactly
    obs = _noiseless_panel(0.5, 0.8, [2000, 2001], [0.5, 1.0, 4.0, 9.0])
    fit = regress.convergence_regression(panel.PanelColumns.from_rows(obs),
                                         "d", 2000, 1)
    assert fit.S == pytest.approx(0.8, abs=1e-12)
    assert fit.beta == pytest.approx(0.2, abs=1e-12)
    assert fit.alpha == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_countries == 4
    assert fit.n_excluded == 0
    assert fit.converges


def test_convergence_regression_multi_year_compounding():
    # S=0.9 per year compounds to S=0.81 over dt=2; beta=(1-S)/dt
    obs = _noiseless_panel(0.0, 0.9, [2000, 2001, 2002], [0.5, 2.0, 8.0])
    fit = regress.convergence_regression(panel.PanelColumns.from_rows(obs),
                                         "d", 2000, 2)
    assert fit.S == pytest.approx(0.81, abs=1e-12)
    assert fit.beta == pytest.approx((1.0 - 0.81) / 2.0, abs=1e-12)


def test_divergent_panel_reports_negative_beta():
    obs = _noiseless_panel(0.0, 1.1, [2000, 2001], [0.5, 2.0, 8.0])
    fit = regress.convergence_regression(panel.PanelColumns.from_rows(obs),
                                         "d", 2000, 1)
    assert fit.S == pytest.approx(1.1, abs=1e-12)
    assert fit.beta == pytest.approx(-0.1, abs=1e-12)
    assert not fit.converges


def test_countries_missing_an_endpoint_are_excluded():
    obs = _noiseless_panel(0.0, 0.9, [2000, 2001], [0.5, 1.0, 2.0, 4.0])
    obs.append(_obs("EEE", 2000, 3.0))          # no 2001 endpoint
    obs.append(_obs("FFF", 2001, 3.0))          # no 2000 endpoint
    obs.append(_obs("GGG", 2000, 0.0))          # nonpositive at start
    obs.append(_obs("GGG", 2001, 1.0))
    fit = regress.convergence_regression(panel.PanelColumns.from_rows(obs),
                                         "d", 2000, 1)
    assert fit.n_countries == 4
    assert fit.n_excluded == 3


def test_too_few_countries_raises():
    obs = _noiseless_panel(0.0, 0.9, [2000, 2001], [0.5, 1.0])
    with pytest.raises(errors.TooFewCountries):
        regress.convergence_regression(panel.PanelColumns.from_rows(obs),
                                       "d", 2000, 1)


@pytest.mark.parametrize("dt", [0, -1])
def test_convergence_regression_rejects_dt_below_one(dt):
    obs = panel.PanelColumns.from_rows(
        [_obs(code, year, v) for year in (2000, 2001)
         for code, v in (("AAA", 1.0), ("BBB", 2.0), ("CCC", 4.0))])
    with pytest.raises(ValueError, match=f"dt must be >= 1, got {dt}"):
        regress.convergence_regression(obs, "d", 2001, dt)
    assert "index" not in vars(obs)  # raised before any row was read


def test_slope_surface_grid_order_and_counts():
    obs = panel.PanelColumns.from_rows(_noiseless_panel(
        0.1, 0.95, [2000, 2001, 2002, 2003], [0.5, 1.0, 2.0, 4.0, 8.0]))
    surface = regress.slope_surface(obs, "d", [2000, 2001], dt_max=3)
    # t=2000 supports dt in {1,2,3}; t=2001 only {1,2}: one skipped cell
    assert [(e.t, e.dt) for e in surface.entries] == [
        (2000, 1), (2000, 2), (2000, 3), (2001, 1), (2001, 2)]
    assert surface.n_skipped == 1
    assert surface.n_dropped == 0
    # noiseless constant-S panel: S(dt) = s**dt, linear in log, exact
    for e in surface.entries:
        assert e.S == pytest.approx(0.95 ** e.dt, abs=1e-12)


def test_slope_surface_guards():
    obs = panel.PanelColumns.from_rows(
        _noiseless_panel(0.1, 0.9, [2000, 2001], [0.5, 1.0, 2.0]))
    with pytest.raises(ValueError, match="t_list must be nonempty"):
        regress.slope_surface(obs, "d", [], 1)
    with pytest.raises(ValueError, match="dt_max must be >= 1, got 0"):
        regress.slope_surface(obs, "d", [2000], 0)


def test_slope_surface_fits_only_panel_year_pairs(monkeypatch):
    years = [2000, 2001, 2003, 2010]
    rows = _noiseless_panel(0.1, 0.95, years, [0.5, 1.0, 2.0, 4.0])
    # 2010 has two countries only, so every pair ending there is too thin
    rows = [row for row in rows if row[1] != 2010 or row[0] in ("AAA", "BBB")]
    obs = panel.PanelColumns.from_rows(rows)
    calls = []
    cells_of = regress._cells

    def counted(*args):
        # each start year's cells go to one least-squares pass together
        for t, x, y, cells in cells_of(*args):
            calls.extend((t, dt) for dt, _, _ in cells)
            yield t, x, y, cells

    monkeypatch.setattr(regress, "_cells", counted)
    t_list = list(range(-7995, 2005))  # 10,000 initial years
    surface = regress.slope_surface(obs, "d", t_list, 10_000)
    pairs = [(t, end - t) for t in years for end in years if t < end]
    assert len(calls) <= len(pairs)
    assert set(calls) <= set(pairs)
    assert [(e.t, e.dt) for e in surface.entries] == [
        (2000, 1), (2000, 3), (2001, 2)]
    fits = len(surface.entries) + surface.n_dropped
    assert surface.n_skipped == 10 ** 8 - fits


def test_slope_surface_r2_filter_drops_noisy_cells():
    rng = np.random.default_rng(5)
    obs = []
    for i in range(30):
        code = f"{chr(65 + i // 26)}{chr(65 + i % 26)}X"
        for year in (2000, 2001):
            # pure noise: no relation between endpoints
            obs.append(_obs(code, year, float(rng.uniform(0.5, 2.0))))
    obs = panel.PanelColumns.from_rows(obs)
    loose = regress.slope_surface(obs, "d", [2000], 1, r2_min=0.0)
    strict = regress.slope_surface(obs, "d", [2000], 1, r2_min=0.9)
    assert len(loose.entries) == 1
    assert len(strict.entries) == 0
    assert strict.n_dropped == 1


def test_surface_csv_format(tmp_path):
    obs = panel.PanelColumns.from_rows(
        _noiseless_panel(0.1, 0.9, [2000, 2001], [0.5, 1.0, 2.0]))
    surface = regress.slope_surface(obs, "d", [2000], 1)
    out = tmp_path / "surface.csv"
    regress.write_surface_csv(surface, out, header_comment="meta")
    lines = out.read_text().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "variable,t,dt,S,beta,alpha,r_squared,n_countries"
    fields = lines[2].split(",")
    assert fields[0] == "d"
    assert int(fields[1]) == 2000
    assert float(fields[3]) == pytest.approx(0.9, abs=1e-12)


# ------------------------------------ per-cell logs and np.mean reference

def _ref_ols(x, y):
    """The earlier ols, which took each mean by np.mean, twice for some."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 3:
        raise errors.TooFewPoints(f"need at least 3 points, got {n}")
    xc = x - x.mean()
    yc = y - y.mean()
    s_xx = float(xc @ xc)
    if s_xx == 0.0:
        raise errors.DegenerateX("x has zero variance")
    slope = float(xc @ yc) / s_xx
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float(yc @ yc)
    if ss_tot == 0.0:
        return regress.OlsFit(slope=slope, intercept=intercept, r_squared=0.0,
                              n=n, constant_y=True)
    residual = y - (intercept + slope * x)
    r_squared = 1.0 - float(residual @ residual) / ss_tot
    r_squared = min(max(r_squared, 0.0), 1.0)
    return regress.OlsFit(slope=slope, intercept=intercept,
                          r_squared=r_squared, n=n)


def _ref_log_log_fit(x_column, y_column, label):
    """The earlier fit of one cell, which logged that cell's own rows."""
    (x, x_present), (y, y_present) = x_column, y_column
    usable = x_present & y_present & (x > 0) & (y > 0)
    n_usable = int(np.count_nonzero(usable))
    if n_usable < 3:
        raise errors.TooFewCountries(
            f"{n_usable} countries with positive {label}; need >= 3")
    return (_ref_ols(np.log(x[usable]), np.log(y[usable])),
            int(np.count_nonzero(x_present | y_present)) - n_usable)


def _ref_fit_cell(matrix, variable, t, dt):
    fit, n_excluded = _ref_log_log_fit(
        matrix.column(t), matrix.column(t + dt),
        f"{variable.value} at both {t} and {t + dt}")
    return regress.ConvergenceFit(
        variable=variable, t=t, dt=dt, S=fit.slope, beta=(1.0 - fit.slope) / dt,
        alpha=fit.intercept / dt, r_squared=fit.r_squared, n_countries=fit.n,
        n_excluded=n_excluded)


def _ref_convergence_regression(obs, variable, t, dt):
    return _ref_fit_cell(year_matrix(obs, variable), variable, t, dt)


def _ref_slope_surface(obs, variable, t_list, dt_max, r2_min):
    matrix = year_matrix(obs, variable)
    fits = []
    for t in t_list:
        for end in (y for y in matrix.columns if t in matrix.columns
                    and t < y <= t + dt_max):
            try:
                fits.append(_ref_fit_cell(matrix, variable, t, end - t))
            except (errors.TooFewCountries, errors.DegenerateX):
                pass
    entries = tuple(fit for fit in fits if not fit.r_squared < r2_min)
    return regress.SlopeSurface(variable=variable, entries=entries,
                                r2_min=r2_min,
                                n_dropped=len(fits) - len(entries),
                                n_skipped=len(t_list) * dt_max - len(fits))


def _ref_gamma_trend(obs, years):
    d = year_matrix(obs, "d")
    g = year_matrix(obs, "g")
    fits = []
    for year in (year for year in years if year in d.columns):
        try:
            fit, n_excluded = _ref_log_log_fit(d.column(year), g.column(year),
                                               f"d and g in {year}")
        except (errors.TooFewCountries, errors.DegenerateX):
            continue
        fits.append(scaling.ScalingFit(
            year=year, gamma=fit.slope, log_A=fit.intercept,
            r_squared=fit.r_squared, n_countries=fit.n, n_excluded=n_excluded))
    return fits


def _bits(value):
    """value with each float as its hex, so -0.0 differs from 0.0."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            _bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(map(_bits, value))
    return value.hex() if isinstance(value, float) else value


def _outcome(fn, *args):
    """The bits of fn(*args), or the class and message of what it raised;
    a numpy warning is raised too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return _bits(fn(*args))
        except (errors.DebtkitError, ValueError, RuntimeWarning) as exc:
            return type(exc), str(exc)


_YEARS = range(2000, 2006)


def _rarely(common, rare):
    """common, or rare about one draw in eight."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else common)


# magnitudes from 1e-300 to 1e300; zeros, negatives and repeated values,
# which leave a column without spread, now and then
_VALUE = _rarely(
    st.one_of(st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
                        st.integers(-300, 299)),
              st.floats(1e-300, 1e300)),
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.0]))
# a missing country-year is None; country counts on both sides of 8 and 16,
# numpy's SIMD widths, put the rows that a fit uses there too
_PANELS = st.sampled_from([1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 24]).flatmap(
    lambda n: st.lists(st.lists(_rarely(st.tuples(_VALUE, _VALUE, _VALUE),
                                        st.none()),
                                min_size=len(_YEARS), max_size=len(_YEARS)),
                       min_size=n, max_size=n))


def _country(*values):
    """One country's (d, g, R) in each year of _YEARS, None where missing;
    g and R follow d, so they repeat where d does."""
    return [None if v is None else (v, 2.0 * v + 1.0, v / 3.0) for v in values]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
# the panel's last year as a start year, after one with cells
@example(cells=[_country(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                _country(2.0, 3.0, 5.0, 7.0, 11.0, 13.0),
                _country(3.0, 1.0, 4.0, 1.0, 5.0, 9.0)],
         t_list=[2004, 2005], dt_max=3, r2_min=0.0)
# every cell of 2000 has 2 countries; 2001 has 4
@example(cells=[_country(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                _country(2.0, 3.0, 5.0, 7.0, 11.0, 13.0),
                _country(None, 1.0, 4.0, 1.0, 5.0, 9.0),
                _country(None, 2.0, 7.0, 1.0, 8.0, 2.0)],
         t_list=[2000, 2001], dt_max=5, r2_min=0.0)
# (2000, 2) has no spread in x, as the one country at 2.0 lacks 2002;
# (2000, 1) and (2000, 3) are fitted
@example(cells=[_country(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                _country(1.0, 3.0, 5.0, 7.0, 11.0, 13.0),
                _country(1.0, 5.0, 4.0, 1.0, 5.0, 9.0),
                _country(2.0, 7.0, None, 2.0, 8.0, 2.0)],
         t_list=[2000], dt_max=3, r2_min=0.0)
# (2000, 1) has a constant y, so r_squared 0
@example(cells=[_country(1.0, 5.0, 3.0), _country(2.0, 5.0, 1.0),
                _country(3.0, 5.0, 4.0)],
         t_list=[2000], dt_max=2, r2_min=0.0)
@given(cells=_PANELS,
       t_list=st.lists(st.sampled_from(range(1999, 2006)), min_size=1,
                       max_size=6, unique=True),
       dt_max=st.integers(1, 5), r2_min=st.sampled_from([0.0, 0.5, 0.99]))
def test_fits_bitwise_equal_per_cell_reference(cells, t_list, dt_max, r2_min):
    rows = [(f"C{i:02d}", year, *values, panel.IncomeGroup.LOW)
            for i, country in enumerate(cells)
            for year, values in zip(_YEARS, country) if values is not None]
    assume(rows)
    obs = panel.PanelColumns.from_rows(rows)
    for variable in panel.Variable:
        assert _outcome(regress.slope_surface, obs, variable, t_list, dt_max,
                        r2_min) == _outcome(_ref_slope_surface, obs, variable,
                                            t_list, dt_max, r2_min)
        for t in t_list:
            for dt in range(1, dt_max + 1):
                assert _outcome(regress.convergence_regression, obs, variable,
                                t, dt) == _outcome(_ref_convergence_regression,
                                                   obs, variable, t, dt)
    assert _outcome(scaling.gamma_trend, obs, t_list) == _outcome(
        _ref_gamma_trend, obs, t_list)


_OLS_COORD = st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(-1e100, 1e100, allow_subnormal=True))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(_OLS_COORD, _OLS_COORD), max_size=40))
def test_ols_bitwise_equal_np_mean_reference(points):
    x, y = np.array(points, dtype=float).reshape(-1, 2).T.copy()
    assert _outcome(regress.ols, x, y) == _outcome(_ref_ols, x, y)


def _wide_panel(n_countries, seed):
    """n_countries over 1990-2010 with missing years and zero-debt rows;
    the last country enters only in 2004."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_countries):
        log_d, log_g = rng.normal(0.0, 1.5), rng.normal(1.0, 0.8)
        for year in range(2004 if i == n_countries - 1 else 1990, 2011):
            log_d = 0.2 + 0.9 * log_d + rng.normal(0.0, 0.3)
            log_g = 0.1 + 0.95 * log_g + rng.normal(0.0, 0.1)
            draw = rng.random()
            if draw < 0.1:  # a missing country-year
                continue
            d = 0.0 if draw < 0.15 else math.exp(log_d)
            g = math.exp(log_g)
            rows.append((f"W{i:03d}", year, d, g, d / g,
                         panel.IncomeGroup.HIGH))
    return panel.PanelColumns.from_rows(rows)


@pytest.mark.parametrize("n_countries, seed", [(40, 1), (130, 2), (300, 3)])
def test_wide_panels_bitwise_equal_per_cell_reference(n_countries, seed):
    obs = _wide_panel(n_countries, seed)
    years = sorted(set(obs.year.tolist()))
    for variable in panel.Variable:
        for t_list, dt_max, r2_min in ((years, 15, 0.0), (years[::-1], 3, 0.5),
                                       ([1989, 1995, 2004, 2010], 7, 0.9)):
            assert _outcome(regress.slope_surface, obs, variable, t_list,
                            dt_max, r2_min) == _outcome(
                _ref_slope_surface, obs, variable, t_list, dt_max, r2_min)
        for t, dt in ((1990, 1), (1990, 15), (1997, 6), (2003, 2), (2004, 6),
                      (2009, 1)):
            assert _outcome(regress.convergence_regression, obs, variable, t,
                            dt) == _outcome(_ref_convergence_regression, obs,
                                            variable, t, dt)


_SEGMENT = st.one_of(st.sampled_from([0, 1, 2, 3, 8, 9, 16, 17]),
                     st.integers(0, 40))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(counts=st.lists(_SEGMENT, min_size=1, max_size=8),
       x_at=st.integers(0, 7), y_at=st.integers(0, 7), data=st.data())
def test_segment_fits_bitwise_equal_ols_per_segment(counts, x_at, y_at, data):
    n = sum(counts)
    points = data.draw(st.lists(st.tuples(_OLS_COORD, _OLS_COORD),
                                min_size=n, max_size=n))
    x, y = np.array(points, dtype=float).reshape(-1, 2).T.copy()
    x_buffer, y_buffer = np.random.default_rng(n).normal(size=(2, n + 8))
    x_buffer[x_at:x_at + n], y_buffer[y_at:y_at + n] = x, y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = regress._segment_fits(x_buffer[x_at:x_at + n],
                                     y_buffer[y_at:y_at + n], counts)
    assert len(fits) == len(counts)
    cuts = list(accumulate(counts, initial=0))
    for fit, a, b in zip(fits, cuts, cuts[1:]):
        expected = _outcome(_ref_ols, x[a:b].copy(), y[a:b].copy())
        if expected[0] in (errors.TooFewPoints, errors.DegenerateX):
            assert fit is None
        else:
            slope, intercept, r_squared, constant_y = fit
            assert _bits(regress.OlsFit(
                slope=slope, intercept=intercept, r_squared=r_squared,
                n=b - a, constant_y=constant_y)) == expected


def _python_typed(fit):
    """True if each field of fit is a Variable or a plain int or float."""
    return all(type(getattr(fit, f.name)) in (int, float, panel.Variable)
               for f in dataclasses.fields(fit))


@pytest.mark.parametrize("integer", [int, np.int64, np.int32])
def test_fits_carry_python_numbers(integer):
    obs = panel.PanelColumns.from_rows(_noiseless_panel(
        0.1, 0.95, [2000, 2001, 2002], [0.5, 1.0, 2.0, 4.0]))
    obs = obs.compress(np.arange(len(obs)) != 2)  # AAA has no 2002
    fit = regress.convergence_regression(obs, "d", integer(2000), integer(2))
    assert fit.n_excluded == 1 and _python_typed(fit)
    for t_list in ([integer(2000), integer(2001)],
                   np.array([2000, 2001], integer)):
        surface = regress.slope_surface(obs, "d", t_list, integer(2))
        assert len(surface.entries) == 3
        assert all(map(_python_typed, surface.entries))


def test_float_horizons_are_rejected():
    obs = panel.PanelColumns.from_rows(
        _noiseless_panel(0.1, 0.9, [2000, 2001], [0.5, 1.0, 2.0]))
    with pytest.raises(TypeError):
        regress.convergence_regression(obs, "d", 2000, 1.0)
    with pytest.raises(TypeError):
        regress.slope_surface(obs, "d", [2000], 1.0)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n=st.integers(3, 600), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-200, 1e-3, 1.0, 1e5, 1e200]))
def test_ols_bits_do_not_depend_on_where_the_arrays_sit(n, seed, scale):
    # slope_surface hands ols views into larger arrays, at any offset
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.normal(), 1.0, n) * scale
    y = 0.8 * x + rng.normal(0.0, scale, n)
    fresh = _outcome(regress.ols, x.copy(), y.copy())
    x_buffer, y_buffer = rng.normal(size=(2, n + 8))
    for x_at in range(8):
        x_buffer[x_at:x_at + n] = x
        for y_at in range(8):
            y_buffer[y_at:y_at + n] = y
            assert _outcome(regress.ols, x_buffer[x_at:x_at + n],
                            y_buffer[y_at:y_at + n]) == fresh
