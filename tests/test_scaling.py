"""GDP-debt power-law scaling tests."""

import dataclasses
import math

import numpy as np
import pytest

from debtkit import dynamics, errors, panel, regress, scaling
from test_regress import _traced_peak


def _obs(code, year, d, g):
    """One observation row: the PanelColumns fields in order."""
    return (code, year, d, g, d / g if g else 0.0, panel.IncomeGroup.MEDIUM)


def _power_law_panel(year, gamma, log_a, d_values):
    """Rows with g = exp(log_a) * d ** gamma, one country per d value."""
    return [_obs(chr(65 + i) * 3, year, d, math.exp(log_a) * d ** gamma)
            for i, d in enumerate(d_values)]


def test_exact_power_law_recovered():
    obs = panel.PanelColumns.from_rows(
        _power_law_panel(1990, 0.85, 0.7, [0.2, 0.9, 3.0, 12.0, 40.0]))
    fit = scaling.fit_gdp_debt_scaling(obs, 1990)
    assert fit.gamma == pytest.approx(0.85, abs=1e-10)
    assert fit.log_A == pytest.approx(0.7, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_countries == 5
    assert fit.n_excluded == 0


def test_regression_direction_is_g_on_d():
    # with noise, regressing g on d differs from inverting d on g; pin the
    # direction by comparing against the expected asymmetric estimate
    rng = np.random.default_rng(6)
    d = rng.uniform(0.5, 20.0, 60)
    g = 2.0 * d ** 0.8 * np.exp(rng.normal(0, 0.2, 60))
    obs = panel.PanelColumns.from_rows(
        _obs(f"{chr(65 + i // 26)}{chr(65 + i % 26)}Z", 2000, dv, gv)
        for i, (dv, gv) in enumerate(zip(d, g)))
    fit = scaling.fit_gdp_debt_scaling(obs, 2000)
    direct = regress.ols(np.log(d), np.log(g))
    inverted = regress.ols(np.log(g), np.log(d))
    assert fit.gamma == pytest.approx(direct.slope, rel=1e-12)
    assert fit.gamma != pytest.approx(1.0 / inverted.slope, rel=1e-3)


def test_zero_debt_countries_excluded():
    obs = _power_law_panel(1990, 0.9, 0.0, [0.5, 1.0, 2.0, 4.0])
    obs.append(_obs("ZZZ", 1990, 0.0, 1.0))
    fit = scaling.fit_gdp_debt_scaling(panel.PanelColumns.from_rows(obs), 1990)
    assert fit.n_countries == 4
    assert fit.n_excluded == 1
    assert fit.gamma == pytest.approx(0.9, abs=1e-10)


def test_too_few_countries():
    obs = panel.PanelColumns.from_rows(
        _power_law_panel(1990, 0.9, 0.0, [1.0, 2.0]))
    with pytest.raises(errors.TooFewCountries):
        scaling.fit_gdp_debt_scaling(obs, 1990)
    with pytest.raises(errors.EmptyCrossSection):
        scaling.fit_gdp_debt_scaling(obs, 1800)


def test_growth_rate_identity_under_power_law():
    # if g = A d^gamma at both dates, then r_g = gamma * r_d exactly
    gamma, log_a = 0.85, 0.3
    d1, d2, dt = 1.7, 4.1, 7
    g1 = math.exp(log_a) * d1 ** gamma
    g2 = math.exp(log_a) * d2 ** gamma
    r_d = regress.growth_rate(d1, d2, dt)
    r_g = regress.growth_rate(g1, g2, dt)
    assert r_g == pytest.approx(gamma * r_d, abs=1e-12)


def test_gamma_trend_skips_thin_years():
    obs = panel.PanelColumns.from_rows(
        _power_law_panel(1990, 0.8, 0.0, [0.5, 1.0, 2.0, 4.0])
        + _power_law_panel(1991, 0.9, 0.1, [0.5, 1.0, 2.0, 4.0])
        + _power_law_panel(1992, 1.0, 0.2, [1.0, 2.0]))
    fits = scaling.gamma_trend(obs, [1990, 1991, 1992, 1993])
    assert [f.year for f in fits] == [1990, 1991]
    assert fits[0].gamma == pytest.approx(0.8, abs=1e-10)
    assert fits[1].gamma == pytest.approx(0.9, abs=1e-10)
    with pytest.raises(ValueError):
        scaling.gamma_trend(obs, [])


@pytest.mark.parametrize("integer", [np.int64, np.int32])
def test_numpy_int_years_fit_as_plain_ints(integer):
    obs = panel.PanelColumns.from_rows(
        _power_law_panel(1990, 0.8, 0.0, [0.5, 1.0, 2.0, 4.0])
        + _power_law_panel(1991, 0.9, 0.1, [0.5, 1.0, 2.0, 4.0])
        + _power_law_panel(1992, 1.0, 0.2, [1.0, 2.0]))
    plain = scaling.gamma_trend(obs, [1990, 1991, 1992])
    assert [fit.year for fit in plain] == [1990, 1991]
    for years in (np.unique(obs.year).astype(integer),
                  [integer(1990), integer(1991), integer(1992)]):
        fits = scaling.gamma_trend(obs, years)
        assert fits == plain
        assert all(type(fit.year) is int for fit in fits)
    with pytest.raises(ValueError):
        scaling.gamma_trend(obs, np.array([], integer))
    fit = scaling.fit_gdp_debt_scaling(obs, integer(1990))
    assert fit == plain[0] and type(fit.year) is int


def _bits(fit):
    """fit's fields, each float as its hex, so equal means bit for bit."""
    return [v.hex() if isinstance(v, float) else v
            for v in dataclasses.astuple(fit)]


def test_gamma_trend_fits_each_year_as_fit_gdp_debt_scaling(monkeypatch):
    # 2000: every country has d = 1, so log d has no spread; 2001: every
    # country has g = 1, a constant log g fitted with r_squared 0; 2002: two
    # countries positive in d and g; 2003: four, and one with d = 0. The
    # years list repeats 2001 and names 1999, which the panel lacks.
    obs = panel.PanelColumns.from_rows(
        [_obs(code, 2000, 1.0, g) for code, g in
         (("AAA", 1.0), ("BBB", 2.0), ("CCC", 5.0))]
        + [_obs(code, 2001, d, 1.0) for code, d in
           (("AAA", 0.5), ("BBB", 2.0), ("CCC", 3.0), ("DDD", 7.0))]
        + [_obs(code, 2002, d, g) for code, d, g in
           (("AAA", 1.0, 2.0), ("BBB", 2.0, 3.0), ("CCC", 0.0, 1.0))]
        + [_obs(code, 2003, d, g) for code, d, g in
           (("AAA", 0.3, 1.1), ("BBB", 2.0, 3.5), ("CCC", 0.0, 1.0),
            ("DDD", 5.0, 4.0), ("EEE", 9.0, 8.5))])
    years = [2003, 2000, 2001, 2002, 2001, 1999]
    with pytest.raises(errors.DegenerateX):
        scaling.fit_gdp_debt_scaling(obs, 2000)
    with pytest.raises(errors.TooFewCountries):
        scaling.fit_gdp_debt_scaling(obs, 2002)
    expected = [scaling.fit_gdp_debt_scaling(obs, year)
                for year in (2003, 2001, 2001)]
    # every year in one kernel pass, with neither ols nor _log_log_fit
    passes = []

    def segment_fits(*args):
        passes.append(args[2])
        return regress._segment_fits(*args)

    def unused(*args):
        raise AssertionError("gamma_trend fits no year on its own")

    monkeypatch.setattr(scaling, "_segment_fits", segment_fits)
    monkeypatch.setattr(scaling, "ols", unused)
    monkeypatch.setattr(scaling, "_log_log_fit", unused)
    fits = scaling.gamma_trend(obs, years)
    assert passes == [[4, 3, 4, 2, 4]]
    assert [_bits(fit) for fit in fits] == [_bits(fit) for fit in expected]
    assert [(fit.year, fit.n_countries, fit.n_excluded) for fit in fits] == [
        (2003, 4, 1), (2001, 4, 0), (2001, 4, 0)]
    assert fits[1].r_squared == 0.0 and fits[1].gamma == 0.0


def test_trend_csv(tmp_path):
    obs = panel.PanelColumns.from_rows(
        _power_law_panel(1990, 0.8, 0.0, [0.5, 1.0, 2.0, 4.0]))
    fits = scaling.gamma_trend(obs, [1990])
    out = tmp_path / "trend.csv"
    scaling.write_trend_csv(fits, out, header_comment="meta")
    lines = out.read_text().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "year,gamma,log_A,r_squared,n_countries"
    fields = lines[2].split(",")
    assert int(fields[0]) == 1990
    assert float(fields[1]) == pytest.approx(0.8, abs=1e-10)


def test_gamma_trend_holds_few_arrays_of_its_points():
    obs = dynamics.synthetic_convergent_panel(
        1000, range(1965, 2006), 0.05, 0.02, 0.1, seed=0)
    years, n = range(1965, 2006), 41_000
    # every country is positive in d and g every year; this first call also
    # builds obs.index, which the traced call below then only reads
    assert sum(fit.n_countries for fit in scaling.gamma_trend(obs, years)) == n
    # the years' logs, their concatenation and the kernel's two buffers
    # need not all be held at once
    assert _traced_peak(scaling.gamma_trend, obs, years) <= 5 * 8 * n
