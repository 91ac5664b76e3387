"""Debt-dynamics tests: budget recursion, Euler integration, synthetic panels.

Closed forms used as oracles: geometric compounding for the recursion, the
exponential solution of the gamma=1 model, and the substitution
u = d**(1-gamma) that linearizes the gamma<1 model to
u(t) = c/r_pop + (u0 - c/r_pop) * exp(-(1-gamma) r_pop t).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtkit import dynamics, errors, panel, regress


# ------------------------------------------------------------ budget steps

def test_step_debt_single_step():
    out = dynamics.step_debt(dynamics.BudgetParams(
        d0=100.0, interest=0.05, primary_deficit=10.0, horizon=1))
    assert out.tolist() == [100.0, 115.0]


def test_step_debt_zero_dynamics_fixed_point():
    out = dynamics.step_debt(dynamics.BudgetParams(
        d0=42.0, interest=0.0, primary_deficit=0.0, horizon=10))
    assert np.all(out == 42.0)


def test_step_debt_linear_accumulation():
    out = dynamics.step_debt(dynamics.BudgetParams(
        d0=5.0, interest=0.0, primary_deficit=2.5, horizon=8))
    assert np.allclose(out, 5.0 + 2.5 * np.arange(9), rtol=0, atol=0)


def test_step_debt_geometric_closed_form():
    # constant interest, zero deficit: D(t) = D0 (1+I)^t
    out = dynamics.step_debt(dynamics.BudgetParams(
        d0=100.0, interest=0.03, primary_deficit=0.0, horizon=50))
    expected = 100.0 * (1.03 ** np.arange(51))
    assert np.allclose(out, expected, rtol=1e-12, atol=0)


def test_step_debt_per_year_series():
    out = dynamics.step_debt(dynamics.BudgetParams(
        d0=100.0, interest=[0.0, 0.10], primary_deficit=[5.0, 0.0], horizon=2))
    assert np.allclose(out, [100.0, 105.0, 115.5], rtol=1e-14)


def test_step_debt_series_length_mismatch():
    with pytest.raises(errors.SeriesLengthMismatch):
        dynamics.step_debt(dynamics.BudgetParams(
            d0=1.0, interest=[0.1, 0.1, 0.1], primary_deficit=0.0, horizon=2))
    with pytest.raises(ValueError):
        dynamics.BudgetParams(d0=1.0, interest=0.0, primary_deficit=0.0,
                              horizon=0)
    # rejected at construction, before step_debt allocates horizon + 1 floats
    with pytest.raises(ValueError, match="10000000"):
        dynamics.BudgetParams(d0=1.0, interest=0.0, primary_deficit=0.0,
                              horizon=dynamics.MAX_STEPS + 1)


# ------------------------------------------------------------- Euler model

def _params(**kw):
    base = dict(c=0.05, gamma=0.9, r_pop=0.01, d0=1.0, dt_step=1e-3,
                horizon=10.0)
    base.update(kw)
    return dynamics.ModelParams(**base)


def test_model_param_guards():
    with pytest.raises(ValueError):
        _params(d0=0.0)
    with pytest.raises(ValueError):
        _params(dt_step=0.0)
    with pytest.raises(ValueError):
        _params(gamma=0.0)
    with pytest.raises(ValueError):
        _params(gamma=1.3)
    with pytest.raises(ValueError):
        _params(horizon=-1.0)
    _params(gamma=1.2)  # boundary included
    # the step count is checked at construction, before any step is taken
    with pytest.raises(ValueError, match="10000000"):
        _params(dt_step=1e-3, horizon=10_000.01)
    _params(dt_step=1.0, horizon=float(dynamics.MAX_STEPS))  # boundary included
    # non-finite values fail every comparison, so each is checked by name
    for name in ("c", "gamma", "r_pop", "d0", "dt_step", "horizon"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                _params(**{name: value})
    for name in ("d0", "interest", "primary_deficit"):
        for value in (math.nan, math.inf, [0.0, math.nan]):
            budget = dict(d0=1.0, interest=0.0, primary_deficit=0.0, horizon=2)
            budget[name] = value
            with pytest.raises(ValueError, match=name):
                dynamics.BudgetParams(**budget)


def test_growth_rate_and_slope_values():
    p = _params(c=0.05, gamma=0.9, r_pop=0.01)
    assert dynamics.model_growth_rate(p, 1.0) == pytest.approx(0.04, abs=1e-15)
    assert dynamics.local_slope(p, 1.0) == pytest.approx(-0.005, abs=1e-15)
    p1 = _params(gamma=1.0)
    assert dynamics.local_slope(p1, 3.7) == 0.0
    with pytest.raises(errors.NonPositiveDebt):
        dynamics.model_growth_rate(p, 0.0)
    with pytest.raises(errors.NonPositiveDebt):
        dynamics.local_slope(p, -2.0)


def test_local_slope_matches_finite_difference():
    p = _params(c=0.05, gamma=0.9, r_pop=0.01)
    for d in np.geomspace(0.1, 10.0, 25):
        d = float(d)
        h = 1e-5 * d
        fd = (dynamics.model_growth_rate(p, d + h)
              - dynamics.model_growth_rate(p, d - h)) / (2.0 * h)
        assert dynamics.local_slope(p, d) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("d, expected", [
    (1e-300, -math.inf), (1e-310, -math.inf), (5e-324, -math.inf),
    (1e300, -0.0), (1.7e308, -0.0), (math.inf, -0.0)])
def test_local_slope_limits_where_power_leaves_floats(d, expected):
    # d**1.5 underflows to 0 or overflows: the slope is its limit, not an error
    slope = dynamics.local_slope(_params(c=0.05, gamma=0.5), d)
    assert slope == expected
    assert math.copysign(1.0, slope) == math.copysign(1.0, expected)


def test_local_slope_limits_keep_the_sign_of_c():
    assert dynamics.local_slope(_params(c=-0.05, gamma=0.5), 1e-310) == math.inf
    assert str(dynamics.local_slope(_params(c=-0.05, gamma=0.5), 1e300)) == "0.0"
    for d in (1e-310, 1e300):  # c = 0: the slope is 0 at every d
        assert dynamics.local_slope(_params(c=0.0, gamma=0.5), d) == 0.0
    # d**1.5 leaves the floats, but the slope itself is a float
    assert dynamics.local_slope(_params(c=1e-300, gamma=0.5), 1e-220) == (
        pytest.approx(-5e29, rel=1e-14))
    assert dynamics.local_slope(_params(c=1e300, gamma=0.5), 1e300) == (
        pytest.approx(-5e-151, rel=1e-14))
    # at ordinary d the closed form is unchanged, bit for bit
    p = _params(c=0.05, gamma=0.5)
    assert dynamics.local_slope(p, 0.37) == -0.05 * 0.5 / 0.37 ** 1.5


@pytest.mark.parametrize("c, r_pop, expected", [
    (0.05, 0.01, math.inf), (-0.05, 0.01, -math.inf), (0.0, 0.01, -0.01),
    (0.0, 0.0, 0.0), (0.0, -0.02, 0.02)])
def test_growth_rate_where_power_overflows(c, r_pop, expected):
    # d**(gamma-1) is past the floats: the rate is its limit, not an error
    for d in (5e-324, 1e-320):
        rate = dynamics.model_growth_rate(_params(c=c, gamma=0.01, r_pop=r_pop),
                                          d)
        assert rate == expected
        assert math.copysign(1.0, rate) == math.copysign(1.0, expected)
    # c = 0 gives what simulate_model's first step takes for the rate
    if c == 0.0:
        path = dynamics.simulate_model(_params(c=c, gamma=0.01, r_pop=r_pop,
                                               d0=5e-324, horizon=1e-3))
        assert path.d_values[1] == math.exp(math.log(5e-324) + 1e-3 * expected)
    # at ordinary d the rate is unchanged, bit for bit
    p = _params(c=c, gamma=0.01, r_pop=r_pop)
    assert dynamics.model_growth_rate(p, 0.37) == c * 0.37 ** -0.99 - r_pop


def test_growth_rate_decreases_with_debt_when_gamma_below_one():
    p = _params(gamma=0.7)
    rates = [dynamics.model_growth_rate(p, d)
             for d in np.geomspace(0.1, 100.0, 50)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_simulate_gamma_one_exponential():
    # gamma=1 makes the rate constant: d(t) = d0 exp((c - r_pop) t)
    p = _params(gamma=1.0, c=0.05, r_pop=0.01, d0=2.0, horizon=50.0)
    path = dynamics.simulate_model(p)
    assert path.terminal_flag is dynamics.TerminalFlag.COMPLETED
    expected = 2.0 * np.exp(0.04 * path.times)
    assert np.allclose(path.d_values, expected, rtol=1e-6, atol=0)
    assert np.all(np.diff(path.times) > 0)


def test_simulate_equilibrium_fixed_point():
    # c = r_pop * d0^(1-gamma) makes r_d(d0) = 0
    d0 = 4.0
    p = _params(gamma=0.9, r_pop=0.01, c=0.01 * d0 ** 0.1, d0=d0, horizon=5.0)
    path = dynamics.simulate_model(p)
    assert np.allclose(path.d_values, d0, rtol=1e-9, atol=0)


def _closed_form_u(p, t):
    # u = d^(1-gamma) obeys u' = (1-gamma)(c - r_pop u)
    q = 1.0 - p.gamma
    u0 = p.d0 ** q
    u_inf = p.c / p.r_pop
    return u_inf + (u0 - u_inf) * math.exp(-q * p.r_pop * t)


def test_simulate_matches_closed_form_below_gamma_one():
    p = _params(gamma=0.9, c=0.05, r_pop=0.01, d0=1.0, dt_step=1e-3,
                horizon=20.0)
    path = dynamics.simulate_model(p)
    d_exact = _closed_form_u(p, 20.0) ** (1.0 / (1.0 - p.gamma))
    assert path.d_values[-1] == pytest.approx(d_exact, rel=1e-4)


def test_halving_step_halves_euler_error():
    # first-order integrator: error at fixed horizon scales like dt_step
    errors_by_step = []
    for dt_step in (0.2, 0.1, 0.05):
        p = _params(gamma=0.9, c=0.05, r_pop=0.01, d0=1.0, dt_step=dt_step,
                    horizon=20.0)
        path = dynamics.simulate_model(p)
        d_exact = _closed_form_u(p, 20.0) ** (1.0 / (1.0 - p.gamma))
        errors_by_step.append(abs(path.d_values[-1] - d_exact))
    ratio_1 = errors_by_step[0] / errors_by_step[1]
    ratio_2 = errors_by_step[1] / errors_by_step[2]
    assert 1.7 <= ratio_1 <= 2.3
    assert 1.7 <= ratio_2 <= 2.3


def test_simulate_blowup_flag():
    p = _params(gamma=1.0, c=2.0, r_pop=0.0, d0=1e9, dt_step=1.0,
                horizon=100.0)
    path = dynamics.simulate_model(p)
    assert path.terminal_flag is dynamics.TerminalFlag.BLOWUP
    assert path.d_values[-1] > 1e12
    assert len(path.times) < 102  # stopped early


def test_simulate_underflow_flag():
    p = _params(gamma=1.0, c=0.0, r_pop=2.0, d0=1e-9, dt_step=1.0,
                horizon=100.0)
    path = dynamics.simulate_model(p)
    assert path.terminal_flag is dynamics.TerminalFlag.UNDERFLOW
    assert path.d_values[-1] < 1e-12


def test_simulate_times_are_step_products():
    # a completed path and one that stops early on blowup
    for p, flag in ((_params(gamma=0.8, dt_step=0.1, horizon=1000.0),
                     dynamics.TerminalFlag.COMPLETED),
                    (_params(gamma=1.0, c=2.0, r_pop=0.0, d0=1e9, dt_step=0.3,
                             horizon=100.0), dynamics.TerminalFlag.BLOWUP)):
        path = dynamics.simulate_model(p)
        assert path.terminal_flag is flag
        assert np.array_equal(path.times, np.array(
            [i * p.dt_step for i in range(len(path.d_values))]))


def _reference_simulate(params):
    """simulate_model as it was with a list of Python floats: the oracle."""
    n_steps = int(round(params.horizon / params.dt_step))
    log_d = math.log(params.d0)
    values = [params.d0]
    flag = dynamics.TerminalFlag.COMPLETED
    for _ in range(n_steps):
        rate = (params.c * math.exp((params.gamma - 1.0) * log_d)
                - params.r_pop)
        log_d += params.dt_step * rate
        d = math.exp(log_d)
        values.append(d)
        if d > dynamics.BLOWUP_THRESHOLD:
            flag = dynamics.TerminalFlag.BLOWUP
            break
        if d < dynamics.UNDERFLOW_THRESHOLD:
            flag = dynamics.TerminalFlag.UNDERFLOW
            break
    return dynamics.SimPath(times=np.arange(len(values)) * params.dt_step,
                            d_values=np.array(values), terminal_flag=flag)


def _bits(a):
    return a.view(np.int64).tolist()


def _decades(lo, hi):
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
                     st.integers(lo, hi))


def test_simulate_bitwise_equal_loop_reference():
    endings = set()

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(c=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
           gamma=st.floats(0.0, 1.2, exclude_min=True),
           r_pop=st.floats(-2.0, 2.0),
           d0=st.one_of(_decades(-14, 13), st.sampled_from([1e-310, 5e-324])),
           dt_step=_decades(-3, 0), n_steps=st.integers(1, 2000))
    def check(c, gamma, r_pop, d0, dt_step, n_steps):
        params = dynamics.ModelParams(c=c, gamma=gamma, r_pop=r_pop, d0=d0,
                                      dt_step=dt_step,
                                      horizon=n_steps * dt_step)
        path = dynamics.simulate_model(params)
        endings.add(path.terminal_flag)
        for a in (path.times, path.d_values):
            assert a.dtype == np.float64 and a.ndim == 1
        try:
            ref = _reference_simulate(params)
        except OverflowError:
            if c == 0:
                # d**(gamma-1) overflowed, but c = 0 makes the rate term 0
                # at any gamma, as it is at gamma = 1
                ref = _reference_simulate(dataclasses.replace(params,
                                                              gamma=1.0))
            else:
                # exp overflowed: the path ends at inf, or at 0 when a
                # negative rate term overflowed, after the points the
                # oracle gives one step short of it
                blowup = path.terminal_flag is dynamics.TerminalFlag.BLOWUP
                assert blowup or (path.terminal_flag
                                  is dynamics.TerminalFlag.UNDERFLOW)
                assert path.d_values[-1] == (math.inf if blowup else 0.0)
                steps = len(path.d_values) - 2
                ref = (_reference_simulate(dataclasses.replace(
                    params, horizon=steps * dt_step)) if steps else
                    dynamics.SimPath(np.zeros(1), np.array([d0]),
                                     dynamics.TerminalFlag.COMPLETED))
                assert ref.terminal_flag is dynamics.TerminalFlag.COMPLETED
                path = dynamics.SimPath(path.times[:-1], path.d_values[:-1],
                                        ref.terminal_flag)
        assert path.terminal_flag is ref.terminal_flag
        assert _bits(path.times) == _bits(ref.times)
        assert _bits(path.d_values) == _bits(ref.d_values)

    check()
    assert endings == set(dynamics.TerminalFlag)


def test_simulate_path_memory_per_point():
    # two float64 arrays, times and d_values, hold 16 bytes a point; a list
    # of Python floats held 32 more while the path was built
    p = _params(dt_step=1e-4, horizon=20.0)
    tracemalloc.start()
    try:
        path = dynamics.simulate_model(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path.times) == 200_001
    assert peak / len(path.times) < 20


def test_simpath_csv(tmp_path):
    p = _params(gamma=1.0, horizon=1.0, dt_step=0.5)
    path = dynamics.simulate_model(p)
    out = tmp_path / "path.csv"
    dynamics.write_simpath_csv(path, out, header_comment="meta")
    lines = out.read_text().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "t,d"
    assert len(lines) == 2 + len(path.times)


# -------------------------------------------------------- synthetic panels

def _rows(obs):
    """The rows of a PanelColumns as tuples of Python values."""
    return list(zip(*(column.tolist() for column in obs.columns())))


def test_synthetic_panel_deterministic():
    kw = dict(n_countries=10, years=[1990, 1991, 1992], alpha=0.05,
              beta=0.03, sigma=0.1, seed=7)
    a = dynamics.synthetic_convergent_panel(**kw)
    b = dynamics.synthetic_convergent_panel(**kw)
    assert _rows(a) == _rows(b)
    c = dynamics.synthetic_convergent_panel(**{**kw, "seed": 8})
    assert _rows(a) != _rows(c)


def test_synthetic_panel_shape_and_groups():
    obs = dynamics.synthetic_convergent_panel(
        n_countries=9, years=[1990, 1991], alpha=0.0, beta=0.01, sigma=0.1,
        seed=1)
    assert len(obs) == 18
    assert obs.year[:9].tolist() == [1990] * 9
    codes = obs.country_code[:9].tolist()
    assert codes == sorted(codes) and codes[0] == "AAA"
    by_group = {g: 0 for g in panel.IncomeGroup}
    for group in obs.income_group[:9]:
        by_group[group] += 1
    assert all(count == 3 for count in by_group.values())
    # income labels are static across years
    first_year = dict(zip(codes, obs.income_group[:9]))
    for code, group in zip(obs.country_code[9:], obs.income_group[9:]):
        assert group == first_year[code]


def test_synthetic_panel_scaling_relation():
    obs = dynamics.synthetic_convergent_panel(
        n_countries=5, years=[2000], alpha=0.0, beta=0.0, sigma=0.0, seed=3,
        a_prefactor=2.0, scaling_gamma=0.9)
    for d, g, ratio_R in zip(obs.d, obs.g, obs.ratio_R):
        assert g == pytest.approx(2.0 * d ** 0.9, rel=1e-12)
        assert ratio_R == pytest.approx(d / g, rel=1e-12)


def test_noiseless_panel_round_trips_beta_exactly():
    # sigma=0 composed with the regression is the identity on (alpha, beta)
    for beta in (0.05, 0.0, -0.02):
        obs = dynamics.synthetic_convergent_panel(
            n_countries=8, years=[2000, 2001], alpha=0.04, beta=beta,
            sigma=0.0, seed=11)
        fit = regress.convergence_regression(obs, "d", 2000, 1)
        assert fit.beta == pytest.approx(beta, abs=1e-10)
        assert fit.alpha == pytest.approx(0.04, abs=1e-10)


def test_noiseless_multi_horizon_compounding():
    # over dt years the yearly slope compounds: S = (1-beta)^dt
    beta = 0.03
    obs = dynamics.synthetic_convergent_panel(
        n_countries=8, years=list(range(2000, 2011)), alpha=0.05, beta=beta,
        sigma=0.0, seed=11)
    for dt in (1, 5, 10):
        fit = regress.convergence_regression(obs, "d", 2000, dt)
        assert fit.S == pytest.approx((1.0 - beta) ** dt, abs=1e-10)


def test_gap_years_evolve_internally():
    # panel emitted at 2000 and 2005 only must equal the 6-year panel's
    # endpoints: evolution happens every year regardless of emission
    kw = dict(n_countries=6, alpha=0.02, beta=0.04, sigma=0.1, seed=5)
    sparse = dynamics.synthetic_convergent_panel(
        years=[2000, 2005], **kw)
    dense = dynamics.synthetic_convergent_panel(
        years=list(range(2000, 2006)), **kw)
    dense_by_key = dict(zip(zip(dense.country_code, dense.year), dense.d))
    for key, d in zip(zip(sparse.country_code, sparse.year), sparse.d):
        assert d == pytest.approx(dense_by_key[key], rel=1e-12)


def test_synthetic_panel_monte_carlo_beta_recovery():
    # beta-hat over one year is asymptotically normal around beta with
    # se = sigma / (sd(log d0) sqrt(n)); with the default uniform(-1, 3)
    # start that is about 0.0122 for n=100, sigma=0.1. The [0.025, 0.035]
    # band is then about a 0.4-sigma event per seed, so only check the
    # estimator is unbiased and its spread matches theory.
    betas = []
    for seed in range(200):
        obs = dynamics.synthetic_convergent_panel(
            n_countries=100, years=[2000, 2001], alpha=0.05, beta=0.03,
            sigma=0.1, seed=seed)
        betas.append(regress.convergence_regression(obs, "d", 2000, 1).beta)
    betas = np.asarray(betas)
    se_theory = 0.1 / ((4.0 / math.sqrt(12.0)) * math.sqrt(100.0))
    assert abs(betas.mean() - 0.03) <= 3.0 * se_theory / math.sqrt(200.0)
    assert 0.7 * se_theory <= betas.std() <= 1.3 * se_theory
    # wide starting spread shrinks the sampling error enough for a tight band
    hits = 0
    for seed in range(200):
        obs = dynamics.synthetic_convergent_panel(
            n_countries=100, years=[2000, 2001], alpha=0.05, beta=0.03,
            sigma=0.1, seed=seed, log_d0_range=(-10.0, 10.0))
        if 0.025 <= regress.convergence_regression(obs, "d", 2000, 1).beta <= 0.035:
            hits += 1
    assert hits >= 198  # >= 99%


def test_synthetic_panel_guards():
    for n_countries in (2, 26 ** 3 + 1):
        with pytest.raises(ValueError, match="17576"):
            dynamics.synthetic_convergent_panel(
                n_countries=n_countries, years=[2000], alpha=0.0, beta=0.0,
                sigma=0.1, seed=0)
    with pytest.raises(errors.InvalidBeta):
        dynamics.synthetic_convergent_panel(
            n_countries=5, years=[2000, 2001], alpha=0.0, beta=1.0, sigma=0.1,
            seed=0)
    with pytest.raises(ValueError):
        dynamics.synthetic_convergent_panel(
            n_countries=5, years=[], alpha=0.0, beta=0.0, sigma=0.1, seed=0)
    with pytest.raises(ValueError):
        dynamics.synthetic_convergent_panel(
            n_countries=5, years=[2000], alpha=0.0, beta=0.0, sigma=0.1,
            seed=0, log_d0_range=(2.0, 2.0))
    # finite ends whose difference overflows
    with pytest.raises(ValueError, match="log_d0_range"):
        dynamics.synthetic_convergent_panel(
            n_countries=5, years=[2000], alpha=0.0, beta=0.0, sigma=0.1,
            seed=0, log_d0_range=(-1e308, 1e308))
    # the panel is evolved through every year from the first to the last
    with pytest.raises(ValueError, match="10000"):
        dynamics.synthetic_convergent_panel(
            n_countries=3, years=[0, 10_000], alpha=0.0, beta=0.0, sigma=0.1,
            seed=0)
    # country-years over MAX_STEPS are refused before any is generated
    with pytest.raises(ValueError, match="more than 10000000 country-years"):
        dynamics.synthetic_convergent_panel(
            n_countries=26 ** 3, years=[0, 9_999], alpha=0.0, beta=0.0,
            sigma=0.1, seed=0)
