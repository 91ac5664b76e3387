"""Acceptance checklist: one test per headline guarantee of the toolkit.

Every test prints a single [PASS]/[FAIL] line (outside pytest's capture, so
it shows in any run) naming the guarantee it checks:

1. convergence-estimator oracle     (synthetic panel recovers beta)
2. convergence/divergence signs     (S < 1 mean-reverting, S > 1 expanding)
3. gamma MLE recovery               (50k draws; Newton == likelihood grid)
4. zipf/pdf duality                 (zeta = 0.4 <-> pdf exponent 3.5)
5. scaling-law fit                  (exact power law; r_g = gamma * r_d)
6. dynamics closed forms            (recursion, gamma=1 path, derivative)
7. threshold tail probability       (closed form and quadrature agree)
8. end-to-end determinism           (synth -> converge -> dist byte-stable)
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from debtkit import cli, distributions, dynamics, regress, scaling
from debtkit.panel import IncomeGroup, PanelColumns


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def _criterion(name):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"[FAIL] {name}", flush=True)
            raise
        with capfd.disabled():
            print(f"[PASS] {name}", flush=True)

    return _criterion


def _expected_beta(beta, dt):
    # the generator applies (1-beta) per year, so over dt years the slope is
    # (1-beta)**dt and the estimator's beta is (1 - (1-beta)**dt) / dt
    return (1.0 - (1.0 - beta) ** dt) / dt


def test_1_convergence_estimator_oracle(criterion):
    with criterion("convergence estimator recovers beta at every horizon"):
        start = time.perf_counter()
        beta, alpha, sigma = 0.03, 0.05, 0.1
        years = list(range(1970, 1986))
        obs = dynamics.synthetic_convergent_panel(
            n_countries=100, years=years, alpha=alpha, beta=beta,
            sigma=sigma, seed=20, log_d0_range=(-10.0, 10.0))
        for dt in range(1, 16):
            fit = regress.convergence_regression(obs, "d", 1970, dt)
            assert abs(fit.beta - _expected_beta(beta, dt)) <= 0.005, (
                f"dt={dt}: beta {fit.beta} vs {_expected_beta(beta, dt)}")

        exact = dynamics.synthetic_convergent_panel(
            n_countries=100, years=years, alpha=alpha, beta=beta,
            sigma=0.0, seed=20, log_d0_range=(-10.0, 10.0))
        for dt in range(1, 16):
            fit = regress.convergence_regression(exact, "d", 1970, dt)
            assert abs(fit.beta - _expected_beta(beta, dt)) <= 1e-10
            assert abs(fit.alpha - alpha * sum(
                (1.0 - beta) ** j for j in range(dt)) / dt) <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_2_convergence_divergence_signs(criterion):
    with criterion("S < 1 on mean-reverting debt, S > 1 on expanding GDP"):
        t_list = list(range(1970, 1981))
        reverting = dynamics.synthetic_convergent_panel(
            n_countries=100, years=list(range(1970, 1991)), alpha=0.02,
            beta=0.05, sigma=0.05, seed=4, log_d0_range=(-10.0, 10.0))
        surface = regress.slope_surface(reverting, "d", t_list, dt_max=10)
        assert len(surface.entries) == 110
        assert all(e.S < 1.0 for e in surface.entries)

        expanding = dynamics.synthetic_convergent_panel(
            n_countries=100, years=list(range(1970, 1991)), alpha=0.02,
            beta=-0.05, sigma=0.05, seed=4, log_d0_range=(-10.0, 10.0))
        surface = regress.slope_surface(expanding, "g", t_list, dt_max=10)
        assert len(surface.entries) == 110
        assert all(e.S > 1.0 for e in surface.entries)


def test_3_gamma_mle_recovery(criterion):
    with criterion("gamma MLE: 50k-draw recovery and grid agreement"):
        start = time.perf_counter()
        rng = np.random.default_rng(12345)
        samples = rng.gamma(2.0, 0.30, 50_000)
        fit = distributions.fit_gamma_mle(samples)
        assert 1.95 <= fit.k <= 2.05, f"k={fit.k}"
        assert 0.29 <= fit.r_c <= 0.31, f"r_c={fit.r_c}"
        mean = float(samples.mean())
        assert abs(fit.k * fit.r_c - mean) <= 0.02 * mean

        small_samples = [
            [0.1, 0.2, 0.4, 0.8, 1.0],
            [0.05, 0.15, 0.3, 0.45],
            [1.0, 1.5, 2.5, 4.0, 6.0, 9.0],
            list(np.random.default_rng(21).gamma(2.0, 0.3, 10)),
            list(np.random.default_rng(22).gamma(5.0, 0.1, 15)),
        ]
        for samples in small_samples:
            arr = np.asarray(samples, float)
            k_grid = np.arange(0.01, 30.0, 1e-4)
            # profile likelihood over the shape with scale = mean/k
            ll = ((k_grid - 1.0) * np.log(arr).mean() - k_grid
                  - scipy.special.gammaln(k_grid)
                  - k_grid * np.log(arr.mean() / k_grid))
            k_best = float(k_grid[np.argmax(ll)])
            fit = distributions.fit_gamma_mle(samples)
            assert abs(fit.k - k_best) <= 1e-4, (
                f"newton {fit.k} vs grid {k_best} on {samples!r}")
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_4_zipf_pdf_duality(criterion):
    with criterion("zipf fit: exact zeta=0.4 and Pareto tail near 3.5"):
        ranked = [7.0 * r ** -0.4 for r in range(1, 201)]
        fit = distributions.fit_zipf_exponent(ranked)
        assert abs(fit.zeta - 0.4) <= 1e-10
        assert abs(fit.implied_pdf_exponent - 3.5) <= 1e-9

        # pdf ~ x^-3.5 has survival exponent 2.5; invert the survival CDF
        rng = np.random.default_rng(77)
        samples = rng.uniform(0.0, 1.0, 10_000) ** (-1.0 / 2.5)
        fit = distributions.fit_zipf_exponent(distributions.zipf_ranks(samples))
        assert abs(fit.zeta - 0.4) <= 0.1 * 0.4, f"zeta={fit.zeta}"


def test_5_scaling_law_fit(criterion):
    with criterion("scaling fit exact on power-law panels; r_g = gamma*r_d"):
        for gamma, log_a in ((0.85, 0.3), (1.0, 0.0), (0.6, -0.5)):
            obs = PanelColumns.from_rows(
                (chr(65 + i) * 3, 1995, d, math.exp(log_a) * d ** gamma, 1.0,
                 IncomeGroup.MEDIUM)
                for i, d in enumerate((0.2, 0.9, 3.0, 12.0, 40.0)))
            fit = scaling.fit_gdp_debt_scaling(obs, 1995)
            assert abs(fit.gamma - gamma) <= 1e-10
            assert abs(fit.log_A - log_a) <= 1e-10

        gamma, log_a = 0.85, 0.3
        for r_d, dt in ((0.04, 5), (-0.02, 10)):
            d1 = 1.7
            d2 = d1 * math.exp(r_d * dt)
            g1 = math.exp(log_a) * d1 ** gamma
            g2 = math.exp(log_a) * d2 ** gamma
            r_g = regress.growth_rate(g1, g2, dt)
            assert abs(r_g - gamma * regress.growth_rate(d1, d2, dt)) <= 1e-10
            assert abs(r_g - gamma * r_d) <= 1e-10


def test_6_dynamics_closed_forms(criterion):
    with criterion("dynamics: recursion, gamma=1 path, local derivative"):
        out = dynamics.step_debt(dynamics.BudgetParams(
            d0=100.0, interest=0.03, primary_deficit=0.0, horizon=50))
        expected = 100.0 * 1.03 ** np.arange(51)
        assert np.allclose(out, expected, rtol=1e-12, atol=0)

        p = dynamics.ModelParams(c=0.05, gamma=1.0, r_pop=0.01, d0=2.0,
                                 dt_step=1e-3, horizon=50.0)
        path = dynamics.simulate_model(p)
        exact = 2.0 * np.exp((0.05 - 0.01) * path.times)
        assert np.allclose(path.d_values, exact, rtol=1e-6, atol=0)

        p = dynamics.ModelParams(c=0.05, gamma=0.9, r_pop=0.01, d0=1.0,
                                 dt_step=1e-3, horizon=1.0)
        for d in np.geomspace(0.1, 10.0, 30):
            d = float(d)
            h = 1e-5 * d
            fd = (dynamics.model_growth_rate(p, d + h)
                  - dynamics.model_growth_rate(p, d - h)) / (2.0 * h)
            assert abs(dynamics.local_slope(p, d) - fd) <= 1e-8


def test_7_threshold_tail_probability(criterion):
    with criterion("P(R > 0.6) under Gamma(2, 0.3): closed form + quadrature"):
        fit = distributions.GammaFit(k=2.0, r_c=0.30, log_likelihood=0.0, n=1)
        x = 0.6 / 0.30
        closed_form = (1.0 + x) * math.exp(-x)  # k=2 upper tail
        assert abs(fit.tail_probability(0.6) - closed_form) <= 1e-12
        assert abs(closed_form - 0.4060058497098381) <= 1e-15

        def pdf(v):
            return v * math.exp(-v / 0.30) / (0.30 ** 2)

        integral, _ = scipy.integrate.quad(pdf, 0.6, np.inf)
        assert abs(fit.tail_probability(0.6) - integral) <= 1e-6


def test_8_end_to_end_determinism(criterion, tmp_path):
    with criterion("synth -> converge -> dist pipeline is byte-identical"):
        def run(root: Path) -> dict[str, bytes]:
            synth_dir = root / "synth"
            assert cli.main([
                "synth", "--out", str(synth_dir), "--n-countries", "60",
                "--years", "1970:1990", "--alpha", "0.05", "--beta", "0.03",
                "--sigma", "0.1", "--seed", "9"]) == 0
            panel_path = str(synth_dir / "panel_synth.csv")
            deflator_path = str(synth_dir / "deflator_synth.csv")
            assert cli.main([
                "converge", "--panel", panel_path, "--deflator",
                deflator_path, "--out", str(root / "conv"),
                "--years", "1970:1980", "--dt-max", "10"]) == 0
            assert cli.main([
                "dist", "--panel", panel_path, "--deflator", deflator_path,
                "--out", str(root / "dist"), "--bins", "40",
                "--group", "all"]) == 0
            return {str(f.relative_to(root)): f.read_bytes()
                    for f in sorted(root.rglob("*")) if f.is_file()}

        first = run(tmp_path / "run1")
        second = run(tmp_path / "run2")
        assert set(first) == set(second)
        assert len(first) >= 20  # panels, 3 surfaces, pdf/zipf/fit files
        for name in first:
            assert first[name] == second[name], f"{name} differs"
