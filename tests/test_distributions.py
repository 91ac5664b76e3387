"""Distribution fitting tests: histogram, gamma MLE, special functions, Zipf.

Oracles used here are independent of the code under test: scipy's digamma
and gammaln, a brute-force likelihood grid, quadrature of the gamma density,
and inverse-CDF Pareto sampling.

The Gamma tail properties bound scipy's gammaincc, which is exact only to
some 1e-14 near x = k = 1: over 8 million draws with k and x in [0.8, 1.6],
redenominating (r_c, t) moved the tail by at most 9.3e-15, and a step up in
the threshold raised it by at most 8.8e-15. TOL_TAIL allows four times the
larger. Over 6 million draws on the whole strategy domain below, neither came
above 6.2e-15.
"""

import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from debtkit import distributions as dist
from debtkit import errors

TOL_TAIL = 4 * 9.3e-15


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


_shapes = _log_uniform(-2, 3)  # k
_scales = _log_uniform(-3, 3)  # r_c
_thresholds = st.floats(allow_nan=False)  # with -0.0, +-inf and subnormals


# ---------------------------------------------------------------- histogram

def test_histogram_normalization_and_counts():
    samples = [0.1, 0.2, 0.2, 0.7, 1.0]
    hist = dist.histogram_pdf(samples, bins=2)
    assert np.allclose(hist.edges, [0.0, 0.5, 1.0])
    # 3 samples land in the first bin, 2 in the second (right edge inclusive)
    assert np.allclose(hist.density, [3 / 5 / 0.5, 2 / 5 / 0.5])
    assert hist.n == 5
    assert float(np.sum(hist.density * hist.widths())) == pytest.approx(1.0)


def test_histogram_integrates_to_one_on_random_data():
    rng = np.random.default_rng(0)
    for bins in (1, 7, 50):
        samples = rng.gamma(2.0, 0.3, 1000)
        hist = dist.histogram_pdf(samples, bins=bins)
        assert float(np.sum(hist.density * hist.widths())) == pytest.approx(
            1.0, abs=1e-12)


def test_histogram_explicit_edges_and_out_of_range():
    samples = [0.5, 1.5, 2.5, 9.0]
    hist = dist.histogram_pdf(samples, bins=[0.0, 1.0, 2.0, 3.0])
    assert hist.n == 3  # 9.0 ignored
    assert float(np.sum(hist.density * hist.widths())) == pytest.approx(1.0)


def test_histogram_all_zero_sample():
    hist = dist.histogram_pdf([0.0, 0.0], bins=4)
    assert hist.edges[-1] == 1.0
    assert float(np.sum(hist.density * hist.widths())) == pytest.approx(1.0)


def test_histogram_guards():
    with pytest.raises(errors.EmptySample):
        dist.histogram_pdf([], bins=3)
    with pytest.raises(errors.NonFiniteValue):
        dist.histogram_pdf([1.0, float("nan")], bins=3)
    with pytest.raises(ValueError):
        dist.histogram_pdf([-1.0, 1.0], bins=3)
    with pytest.raises(ValueError):
        dist.histogram_pdf([1.0], bins=0)
    with pytest.raises(ValueError):
        dist.histogram_pdf([1.0], bins=[3.0, 2.0, 1.0])
    with pytest.raises(errors.EmptySample):
        dist.histogram_pdf([5.0], bins=[0.0, 1.0])
    for edges in ([0.0, math.inf], [math.nan, 3.0], [-math.inf, 0.0, 1.0],
                  [0.0, 1.0, math.nan]):
        with pytest.raises(ValueError, match="finite ascending"):
            dist.histogram_pdf([0.5], bins=edges)


# ---------------------------------------------------- digamma and trigamma

def test_digamma_known_values():
    # psi(1) = -euler_gamma; psi(2) = 1 - euler_gamma; psi(1/2) = -gamma - 2 ln 2
    assert dist.digamma(1.0) == pytest.approx(-dist.EULER_GAMMA, abs=1e-12)
    assert dist.digamma(2.0) == pytest.approx(1.0 - dist.EULER_GAMMA, abs=1e-12)
    assert dist.digamma(0.5) == pytest.approx(
        -dist.EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)


def test_digamma_matches_scipy_over_range():
    for x in np.geomspace(0.01, 500.0, 300):
        assert dist.digamma(float(x)) == pytest.approx(
            float(scipy.special.digamma(x)), rel=1e-11, abs=1e-11)


def test_trigamma_known_value_and_scipy():
    # psi'(1) = pi^2 / 6
    assert dist.trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)
    for x in np.geomspace(0.01, 500.0, 300):
        assert dist.trigamma(float(x)) == pytest.approx(
            float(scipy.special.polygamma(1, x)), rel=1e-11, abs=1e-11)


def test_digamma_recurrence_property():
    # psi(x+1) - psi(x) = 1/x on both sides of the series cutoff
    rng = np.random.default_rng(1)
    for x in rng.uniform(0.1, 30.0, 50):
        x = float(x)
        assert dist.digamma(x + 1.0) - dist.digamma(x) == pytest.approx(
            1.0 / x, rel=1e-9)


def test_digamma_domain_guard():
    with pytest.raises(ValueError):
        dist.digamma(0.0)
    with pytest.raises(ValueError):
        dist.trigamma(-1.0)


# ----------------------------------------------------------------- gamma MLE

def _grid_gamma_mle(samples, k_lo=0.01, k_hi=30.0, step=1e-4):
    """Brute-force likelihood oracle: scan shape k, scale profiled as mean/k."""
    arr = np.asarray(samples, float)
    n = arr.size
    mean = arr.mean()
    mean_log = np.log(arr).mean()
    k = np.arange(k_lo, k_hi, step)
    # log L / n with r_c = mean/k substituted in
    ll = ((k - 1.0) * mean_log - k - scipy.special.gammaln(k)
          - k * np.log(mean / k))
    return float(k[np.argmax(ll)])


def test_gamma_mle_matches_likelihood_grid_on_small_samples():
    samples_list = [
        [0.1, 0.2, 0.4, 0.8, 1.0],
        [0.05, 0.05, 0.2, 0.9],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        list(np.random.default_rng(2).gamma(2.0, 0.3, 12)),
        list(np.random.default_rng(3).gamma(0.7, 1.5, 25)),
    ]
    for samples in samples_list:
        fit = dist.fit_gamma_mle(samples)
        oracle = _grid_gamma_mle(samples)
        assert abs(fit.k - oracle) <= 1e-4  # grid resolution
        assert fit.k * fit.r_c == pytest.approx(np.mean(samples), rel=1e-12)


def test_gamma_mle_log_likelihood_value():
    samples = [0.1, 0.2, 0.4, 0.8, 1.0]
    fit = dist.fit_gamma_mle(samples)
    arr = np.asarray(samples)
    expected = float(np.sum((fit.k - 1.0) * np.log(arr) - arr / fit.r_c
                            - scipy.special.gammaln(fit.k)
                            - fit.k * np.log(fit.r_c)))
    assert fit.log_likelihood == pytest.approx(expected, rel=1e-12)
    assert fit.n == 5


def test_gamma_mle_likelihood_is_local_max():
    # nudging either parameter off the fit must not increase the likelihood
    samples = list(np.random.default_rng(4).gamma(2.0, 0.3, 200))
    fit = dist.fit_gamma_mle(samples)
    arr = np.asarray(samples)

    def ll(k, r_c):
        return float(np.sum((k - 1.0) * np.log(arr) - arr / r_c
                            - scipy.special.gammaln(k) - k * np.log(r_c)))

    best = ll(fit.k, fit.r_c)
    for eps in (1e-4, -1e-4):
        assert ll(fit.k * (1 + eps), fit.r_c) <= best + 1e-9
        assert ll(fit.k, fit.r_c * (1 + eps)) <= best + 1e-9


def test_gamma_mle_recovery_large_sample():
    rng = np.random.default_rng(12345)
    samples = rng.gamma(2.0, 0.30, 50_000)
    fit = dist.fit_gamma_mle(samples)
    assert 1.95 <= fit.k <= 2.05
    assert 0.29 <= fit.r_c <= 0.31


def test_gamma_mle_guards():
    with pytest.raises(errors.EmptySample):
        dist.fit_gamma_mle([])
    with pytest.raises(errors.NonPositiveSample):
        dist.fit_gamma_mle([1.0, 0.0])
    with pytest.raises(errors.NonPositiveSample):
        dist.fit_gamma_mle([1.0, float("inf")])
    with pytest.raises(errors.DegenerateSample):
        dist.fit_gamma_mle([2.0])
    with pytest.raises(errors.DegenerateSample):
        dist.fit_gamma_mle([3.0, 3.0, 3.0])  # zero variance


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_gamma_mle_where_the_moments_leave_the_float_range(scale):
    # times 1e-300 the variance underflows to 0, times 1e300 it overflows;
    # the shape is scale-free, so k is the unscaled sample's and r_c scales
    samples = np.random.default_rng(0).gamma(2.0, 1.0, 2000)
    base = dist.fit_gamma_mle(samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on overflow, not underflow
        fit = dist.fit_gamma_mle(samples * scale)
    assert fit.k == pytest.approx(base.k, rel=1e-9)
    assert fit.r_c == pytest.approx(base.r_c * scale, rel=1e-9)
    assert math.isfinite(fit.log_likelihood) and fit.n == 2000


def test_gamma_mle_newton_step_below_zero_is_halved():
    # the moment start k0 = mean**2/variance is about 99 against an MLE of
    # about 4.06, so the first Newton step lands below 0 and the safeguard
    # halves k instead; the fit still converges to scipy's MLE
    samples = [1.0] * 99 + [1e-6]
    arr = np.array(samples)
    k0 = arr.mean() ** 2 / arr.var()
    s = math.log(arr.mean()) - np.log(arr).mean()
    f = math.log(k0) - scipy.special.digamma(k0) - s
    f_prime = 1.0 / k0 - scipy.special.polygamma(1, k0)
    assert k0 - f / f_prime < 0
    fit = dist.fit_gamma_mle(samples)
    k, _, _ = scipy.stats.gamma.fit(samples, floc=0)
    assert fit.k == pytest.approx(k, rel=1e-9)
    assert fit.r_c == pytest.approx(arr.mean() / k, rel=1e-9)


def test_gamma_mle_no_convergence_names_last_iterate(monkeypatch):
    # one Newton step cannot meet the tolerance from the moment start
    monkeypatch.setattr(dist, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(errors.NoConvergence) as info:
        dist.fit_gamma_mle([0.5, 1.0, 4.0, 9.0])
    k = info.value.last_iterate
    assert math.isfinite(k) and k > 0
    assert str(info.value) == ("gamma shape Newton iteration did not converge "
                               f"(last iterate {k!r})")


def test_tail_probability_closed_form():
    # integer shape k=2: P(X > x) = (1 + x/r_c) exp(-x/r_c)
    fit = dist.GammaFit(k=2.0, r_c=0.30, log_likelihood=0.0, n=1)
    x = 0.6 / 0.30
    assert fit.tail_probability(0.6) == pytest.approx(
        (1.0 + x) * math.exp(-x), abs=1e-14)
    assert fit.tail_probability(0.0) == 1.0
    assert fit.tail_probability(-0.5) == 1.0


def test_tail_probability_edges():
    fit = dist.GammaFit(k=2.0, r_c=0.30, log_likelihood=0.0, n=1)
    with pytest.raises(errors.NonFiniteValue):
        fit.tail_probability(math.nan)
    assert fit.tail_probability(math.inf) == 0.0
    for threshold in (-math.inf, -1e300, -5e-324, -0.0):
        assert fit.tail_probability(threshold) == 1.0


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(k=_shapes, r_c=_scales, threshold=_thresholds)
def test_tail_probability_is_a_probability(k, r_c, threshold):
    fit = dist.GammaFit(k=k, r_c=r_c, log_likelihood=0.0, n=1)
    assert 0.0 <= fit.tail_probability(threshold) <= 1.0


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(k=_shapes, r_c=_scales, thresholds=st.lists(_thresholds, min_size=2,
                                                    max_size=2))
def test_tail_probability_is_non_increasing(k, r_c, thresholds):
    fit = dist.GammaFit(k=k, r_c=r_c, log_likelihood=0.0, n=1)
    low, high = sorted(thresholds)
    assert fit.tail_probability(high) <= fit.tail_probability(low) + TOL_TAIL


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(k=_shapes, r_c=_scales, x_over_mean=_log_uniform(-3, 2),
       c=st.integers(-150, 150).map(lambda j: 10.0 ** j))
def test_tail_probability_is_redenomination_invariant(k, r_c, x_over_mean, c):
    # a change of currency unit scales r_c and the threshold alike
    threshold = k * r_c * x_over_mean
    base = dist.GammaFit(k=k, r_c=r_c, log_likelihood=0.0, n=1)
    moved = dist.GammaFit(k=k, r_c=c * r_c, log_likelihood=0.0, n=1)
    assert abs(moved.tail_probability(c * threshold)
               - base.tail_probability(threshold)) <= TOL_TAIL


def test_tail_probability_matches_quadrature():
    fit = dist.GammaFit(k=2.0, r_c=0.30, log_likelihood=0.0, n=1)

    def pdf(x):
        return (x ** (fit.k - 1.0) * math.exp(-x / fit.r_c)
                / (math.gamma(fit.k) * fit.r_c ** fit.k))

    integral, abserr = scipy.integrate.quad(pdf, 0.6, np.inf)
    assert abserr < 1e-9
    assert fit.tail_probability(0.6) == pytest.approx(integral, abs=1e-6)


# ----------------------------------------------------------------- Zipf fit

def test_zipf_ranks_sorted_descending():
    ranked = dist.zipf_ranks([0.2, 1.5, 0.9])
    assert ranked.tolist() == [1.5, 0.9, 0.2]
    with pytest.raises(errors.EmptySample):
        dist.zipf_ranks([])


def test_zipf_exact_power_law():
    ranked = [3.0 * r ** -0.4 for r in range(1, 101)]
    fit = dist.fit_zipf_exponent(ranked)
    assert fit.zeta == pytest.approx(0.4, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.implied_pdf_exponent == pytest.approx(1.0 + 1.0 / 0.4, abs=1e-9)
    assert fit.rank_window == (1, 100)


def test_zipf_window_restricts_fit():
    # power law only beyond rank 10; the window isolates it
    ranked = [5.0 if r <= 10 else 5.0 * (r / 10.0) ** -0.7
              for r in range(1, 201)]
    fit = dist.fit_zipf_exponent(ranked, rank_window=(11, 200))
    assert fit.zeta == pytest.approx(0.7, abs=1e-10)
    assert fit.rank_window == (11, 200)


def test_zipf_pareto_tail_recovery():
    # inverse-CDF Pareto with survival exponent 2.5, so pdf ~ x**-3.5
    # and the rank plot slope is -1/2.5 = -0.4
    rng = np.random.default_rng(99)
    u = rng.uniform(0.0, 1.0, 10_000)
    samples = u ** (-1.0 / 2.5)
    fit = dist.fit_zipf_exponent(dist.zipf_ranks(samples))
    assert abs(fit.zeta - 0.4) / 0.4 <= 0.10
    assert abs(fit.implied_pdf_exponent - 3.5) <= 0.5


def test_zipf_guards():
    flat = [1.0] * 19
    with pytest.raises(errors.DegenerateSample):
        dist.fit_zipf_exponent(flat)
    with_zero = [2.0, 1.0, 0.0]
    with pytest.raises(errors.NonPositiveInWindow):
        dist.fit_zipf_exponent(with_zero)
    with pytest.raises(errors.WindowTooSmall):
        dist.fit_zipf_exponent([2.0, 1.0], rank_window=(1, 2))
    with pytest.raises(ValueError):
        dist.fit_zipf_exponent([2.0, 1.0, 0.5], rank_window=(3, 1))


def test_zipf_fit_rejects_non_finite_window():
    ranked = [math.nan, 3.0, 2.0, 1.0]
    with pytest.raises(errors.NonFiniteValue, match=r"window \[1, 4\]"):
        dist.fit_zipf_exponent(ranked)
    # a window past the NaN still fits
    assert dist.fit_zipf_exponent(ranked, rank_window=(2, 4)).zeta > 0


def test_zipf_input_form():
    # NaN has no place in a descending order; inf is rejected with it
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(errors.NonFiniteValue):
            dist.zipf_ranks([1.0, bad, 2.0])
    with pytest.raises(ValueError, match="1-d"):
        dist.zipf_ranks([[1.0, 2.0], [3.0, 4.0]])
    # (rank, value) pairs are not read as a two-column array
    with pytest.raises(ValueError, match="values in rank order"):
        dist.fit_zipf_exponent([(r, 3.0 * r ** -0.4) for r in range(1, 11)])


# ------------------------------------------------------------------- stats

def test_summary_stats():
    mean, std, n = dist.summary_stats([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5)
    assert std == pytest.approx(math.sqrt(1.25))  # population std
    assert n == 4
    with pytest.raises(errors.TooFewPoints):
        dist.summary_stats([1.0])


def test_gamma_sample_moments_match_theory():
    # Gamma(2, 0.3): mean 0.6, std sqrt(2)*0.3 = 0.424
    rng = np.random.default_rng(8)
    mean, std, _ = dist.summary_stats(rng.gamma(2.0, 0.3, 100_000))
    assert mean == pytest.approx(0.6, abs=0.01)
    assert std == pytest.approx(math.sqrt(2.0) * 0.3, abs=0.01)


# ----------------------------------------------------------------- writers

def test_histogram_csv(tmp_path):
    hist = dist.histogram_pdf([0.1, 0.2, 0.7, 1.0], bins=2)
    out = tmp_path / "pdf.csv"
    dist.write_histogram_csv(hist, out, header_comment="meta")
    lines = out.read_text().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "bin_left,bin_right,density"
    assert len(lines) == 4


def test_ranks_csv_and_fit_dicts(tmp_path):
    ranked = dist.zipf_ranks([3.0, 1.0, 2.0])
    out = tmp_path / "ranks.csv"
    dist.write_ranks_csv(ranked, out)
    assert out.read_text().splitlines() == ["rank,value", "1,3.0", "2,2.0",
                                            "3,1.0"]

    # the CLI writes the fits as dataclasses.asdict; json writes a tuple as
    # a list, so the JSON is that of the dicts the fits were written as
    gfit = dist.GammaFit(k=2.0, r_c=0.3, log_likelihood=-1.0, n=10)
    assert json.dumps(asdict(gfit), sort_keys=True) == json.dumps({
        "k": 2.0, "r_c": 0.3, "log_likelihood": -1.0, "n": 10}, sort_keys=True)
    zfit = dist.ZipfFit(zeta=0.4, rank_window=(1, 10), r_squared=0.9,
                        implied_pdf_exponent=3.5)
    assert json.dumps(asdict(zfit), sort_keys=True) == json.dumps({
        "zeta": 0.4, "rank_window": [1, 10], "r_squared": 0.9,
        "implied_pdf_exponent": 3.5}, sort_keys=True)
