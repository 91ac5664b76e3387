"""Convergence regression tests against hand-worked and grid-search oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from debtkit import errors, panel, regress


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


def _obs(code, year, value):
    return panel.PerCapitaObservation(
        country_code=code, year=year, d=value, g=1.0, ratio_R=value,
        income_group=panel.IncomeGroup.MEDIUM)


def _noiseless_panel(alpha, s, years, start_values):
    """log v(t+1) = alpha + s * log v(t), one country per start value."""
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
    fit = regress.convergence_regression(obs, "d", 2000, 1)
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
    fit = regress.convergence_regression(obs, "d", 2000, 2)
    assert fit.S == pytest.approx(0.81, abs=1e-12)
    assert fit.beta == pytest.approx((1.0 - 0.81) / 2.0, abs=1e-12)


def test_divergent_panel_reports_negative_beta():
    obs = _noiseless_panel(0.0, 1.1, [2000, 2001], [0.5, 2.0, 8.0])
    fit = regress.convergence_regression(obs, "d", 2000, 1)
    assert fit.S == pytest.approx(1.1, abs=1e-12)
    assert fit.beta == pytest.approx(-0.1, abs=1e-12)
    assert not fit.converges


def test_countries_missing_an_endpoint_are_excluded():
    obs = _noiseless_panel(0.0, 0.9, [2000, 2001], [0.5, 1.0, 2.0, 4.0])
    obs.append(_obs("EEE", 2000, 3.0))          # no 2001 endpoint
    obs.append(_obs("FFF", 2001, 3.0))          # no 2000 endpoint
    obs.append(_obs("GGG", 2000, 0.0))          # nonpositive at start
    obs.append(_obs("GGG", 2001, 1.0))
    fit = regress.convergence_regression(obs, "d", 2000, 1)
    assert fit.n_countries == 4
    assert fit.n_excluded == 3


def test_too_few_countries_raises():
    obs = _noiseless_panel(0.0, 0.9, [2000, 2001], [0.5, 1.0])
    with pytest.raises(errors.TooFewCountries):
        regress.convergence_regression(obs, "d", 2000, 1)


def test_slope_surface_grid_order_and_counts():
    obs = _noiseless_panel(0.1, 0.95, [2000, 2001, 2002, 2003],
                           [0.5, 1.0, 2.0, 4.0, 8.0])
    surface = regress.slope_surface(obs, "d", [2000, 2001], dt_max=3)
    # t=2000 supports dt in {1,2,3}; t=2001 only {1,2}: one skipped cell
    assert [(e.t, e.dt) for e in surface.entries] == [
        (2000, 1), (2000, 2), (2000, 3), (2001, 1), (2001, 2)]
    assert surface.n_skipped == 1
    assert surface.n_dropped == 0
    # noiseless constant-S panel: S(dt) = s**dt, linear in log, exact
    for e in surface.entries:
        assert e.S == pytest.approx(0.95 ** e.dt, abs=1e-12)


def test_slope_surface_r2_filter_drops_noisy_cells():
    rng = np.random.default_rng(5)
    obs = []
    for i in range(30):
        code = f"{chr(65 + i // 26)}{chr(65 + i % 26)}X"
        for year in (2000, 2001):
            # pure noise: no relation between endpoints
            obs.append(_obs(code, year, float(rng.uniform(0.5, 2.0))))
    loose = regress.slope_surface(obs, "d", [2000], 1, r2_min=0.0)
    strict = regress.slope_surface(obs, "d", [2000], 1, r2_min=0.9)
    assert len(loose.entries) == 1
    assert len(strict.entries) == 0
    assert strict.n_dropped == 1


def test_surface_csv_format(tmp_path):
    obs = _noiseless_panel(0.1, 0.9, [2000, 2001], [0.5, 1.0, 2.0])
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
