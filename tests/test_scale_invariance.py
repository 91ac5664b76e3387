"""Scale invariance of the estimators, the property in the source paper's title.

A change of currency unit multiplies per-capita debt d and GDP g by
constants. Every estimator fits logarithms, so a factor c only shifts
log v by log c:

* convergence, log v(t+dt) = alpha*dt + S*log v(t): S is unchanged and
  alpha shifts by (1 - S)*log(c)/dt;
* scaling, log g = log_A + gamma*log d, with d -> c*d and g -> c'*g: gamma
  is unchanged and log_A shifts by log(c') - gamma*log(c);
* Zipf, log value = const - zeta*log rank: zeta is unchanged.

The factors are powers of ten up to 1e+-150, and every scaled value stays
a normal float. The slopes are equal only up to rounding: log(c*v) carries
an error of about one ulp of log(c), some 6e-14 at c = 1e150. On the
1000 x 41 benchmark panel, with c up to 1e+-300, S and gamma moved by at
most 7.7e-15 and zeta by at most 1.5e-15; the bounds below allow four
times that. The rounding shrinks as the panel grows, so the panels here
have at least 200 countries: over 400 examples, no change came above 0.6
of its bound. An intercept carries the slope's error times the mean of the
scaled logs, so its bound grows with |log c|. The ratio R is left out: a
change of currency unit does not move it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from debtkit import distributions as dist
from debtkit import dynamics, regress, scaling

TOL_SLOPE = 4 * 7.7e-15  # S and gamma
TOL_ZETA = 4 * 1.5e-15
YEARS = list(range(2000, 2011))

_powers_of_ten = st.integers(-150, 150).map(lambda k: 10.0 ** k)


@st.composite
def _panels(draw):
    """A seeded synthetic panel of 200 to 400 countries over 11 years."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    obs = dynamics.synthetic_convergent_panel(
        n_countries=draw(st.integers(200, 400)), years=YEARS, alpha=0.02,
        beta=draw(st.sampled_from([-0.05, 0.0, 0.03, 0.2])), sigma=0.1,
        seed=seed)
    # noise on g, so that log g is not an exact linear function of log d
    noise = np.random.default_rng(seed).normal(0.0, 0.15, len(obs))
    return replace(obs, g=obs.g * np.exp(noise))


def _max_abs_log(values: np.ndarray) -> float:
    return float(np.abs(np.log(values)).max())


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(obs=_panels(), variable=st.sampled_from(["d", "g"]),
       c=_powers_of_ten)
def test_convergence_slope_is_scale_invariant(obs, variable, c):
    scaled = replace(obs, **{variable: getattr(obs, variable) * c})
    base = regress.slope_surface(obs, variable, YEARS[:-1], 10)
    moved = regress.slope_surface(scaled, variable, YEARS[:-1], 10)
    assert len(moved.entries) == len(base.entries) == 55
    log_c = math.log(c)
    spread = abs(log_c) + _max_abs_log(getattr(obs, variable))
    for a, b in zip(base.entries, moved.entries):
        assert (b.t, b.dt) == (a.t, a.dt)
        assert abs(b.S - a.S) <= TOL_SLOPE
        shift = (1.0 - a.S) * log_c / a.dt
        assert abs(b.alpha - a.alpha - shift) <= TOL_SLOPE * spread / a.dt


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(obs=_panels(), c=_powers_of_ten, c_g=_powers_of_ten)
def test_scaling_exponent_is_scale_invariant(obs, c, c_g):
    base = scaling.gamma_trend(obs, YEARS)
    moved = scaling.gamma_trend(replace(obs, d=obs.d * c, g=obs.g * c_g), YEARS)
    assert len(moved) == len(base) == len(YEARS)
    spread = (abs(math.log(c)) + abs(math.log(c_g)) + _max_abs_log(obs.d)
              + _max_abs_log(obs.g))
    for a, b in zip(base, moved):
        assert abs(b.gamma - a.gamma) <= TOL_SLOPE
        shift = math.log(c_g) - a.gamma * math.log(c)
        assert abs(b.log_A - a.log_A - shift) <= TOL_SLOPE * spread


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(obs=_panels(), variable=st.sampled_from(["d", "g"]),
       c=_powers_of_ten)
def test_zipf_exponent_is_scale_invariant(obs, variable, c):
    values = getattr(obs, variable)
    base = dist.fit_zipf_exponent(dist.zipf_ranks(values))
    moved = dist.fit_zipf_exponent(dist.zipf_ranks(values * c))
    assert moved.rank_window == base.rank_window
    assert abs(moved.zeta - base.zeta) <= TOL_ZETA
