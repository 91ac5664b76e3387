"""Seeded inputs for the benchmark, written without any debtkit code.

`write_panel` produces a panel CSV and a deflator CSV in the schemas the
debtkit README documents, together with the ground truth the output checks
compare against:

* log per-capita debt follows the convergent AR(1)
  ``log d(t+1) = alpha + (1 - beta) log d(t) + N(0, sigma)``;
* per-capita GDP is ``g = A d**gamma`` times log-normal noise;
* population grows per country, and the deflator drifts away from 1.0
  except in the base year 2000, where it is exactly 1.0;
* countries enter in staggered years, some interior years are missing and a
  few rows carry zero debt, so the exclusion and zero-ratio paths run;
* the three income groups are non-empty.

The number of rows depends only on the panel shape, never on the seed, so the
work counters of a workload repeat across seeds wherever they count rows.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

BASE_YEAR = 2000
BETA = 0.03
ALPHA = 0.02
SIGMA = 0.1
GAMMA = 0.9
A_PREFACTOR = 2.0
SIGMA_G = 0.15
THRESHOLD = 0.6

LATE_SHARE = 0.3       # countries that enter after the first year
MAX_ENTRY_DELAY = 8    # years
MISSING_SHARE = 0.02   # interior rows removed
ZERO_DEBT_SHARE = 0.002
GROUPS = ("LOW", "MEDIUM", "HIGH")


def _codes(rng: np.random.Generator, n: int) -> list[str]:
    picks = rng.choice(26 ** 3, size=n, replace=False)
    return ["".join(chr(65 + (int(p) // 26 ** k) % 26) for k in (2, 1, 0))
            for p in picks]


def write_panel(out: Path, seed: int, n_countries: int, first_year: int,
                last_year: int) -> dict:
    """Write ``panel.csv`` and ``deflator.csv`` under ``out``; return the truth.

    Every float is written with ``repr``, so the values the truth is computed
    from are exactly the values debtkit reads back.
    """
    rng = np.random.default_rng(seed)
    years = np.arange(first_year, last_year + 1)
    n_years = years.size

    log_d = np.empty((n_years, n_countries))
    log_d[0] = rng.uniform(-1.0, 3.0, n_countries)
    for t in range(1, n_years):
        log_d[t] = (ALPHA + (1.0 - BETA) * log_d[t - 1]
                    + rng.normal(0.0, SIGMA, n_countries))
    log_g = (math.log(A_PREFACTOR) + GAMMA * log_d
             + rng.normal(0.0, SIGMA_G, (n_years, n_countries)))

    # Staggered entry: a fixed multiset of delays, shuffled over countries.
    n_late = int(LATE_SHARE * n_countries)
    delay = np.zeros(n_countries, dtype=int)
    delay[:n_late] = 1 + np.arange(n_late) % MAX_ENTRY_DELAY
    delay = rng.permutation(delay)
    present = np.arange(n_years)[:, None] >= delay[None, :]

    # Missing interior years: strictly after entry and before the last year.
    interior = present.copy()
    interior[delay, np.arange(n_countries)] = False
    interior[-1] = False
    cells = np.flatnonzero(interior)
    present.flat[rng.choice(cells, int(MISSING_SHARE * cells.size),
                            replace=False)] = False
    rows = np.flatnonzero(present)
    zero_debt = np.zeros(present.shape, dtype=bool)
    zero_debt.flat[rng.choice(rows, max(3, int(ZERO_DEBT_SHARE * rows.size)),
                              replace=False)] = True

    pop0 = np.exp(rng.uniform(math.log(1e5), math.log(3e8), n_countries))
    pop_growth = rng.uniform(0.0, 0.03, n_countries)
    population = pop0 * np.exp(pop_growth * (years - first_year)[:, None])
    deflator_years = sorted({*years.tolist(), BASE_YEAR})
    deflator = {y: (1.0 if y == BASE_YEAR else
                    float(math.exp(0.025 * (y - BASE_YEAR)
                                   + rng.normal(0.0, 0.01))))
                for y in deflator_years}
    defl = np.array([deflator[int(y)] for y in years])[:, None]
    scale = 1e3 * population * defl
    gdp = np.exp(log_g) * scale
    debt = np.where(zero_debt, 0.0, np.exp(log_d) * scale)

    # Income group by tercile of first-year GDP per capita.
    rank = np.argsort(np.argsort(log_g[0]))
    group = [GROUPS[min(2, 3 * int(r) // n_countries)] for r in rank]
    codes = _codes(rng, n_countries)

    out.mkdir(parents=True, exist_ok=True)
    counts = {int(y): [0, []] for y in years}
    ratios = {"all": []}
    ratios.update({g: [] for g in GROUPS})
    with open(out / "panel.csv", "w", encoding="utf-8") as f:
        f.write("# seeded benchmark panel\n")
        f.write("country_code,year,gdp_nominal_usd,debt_nominal_usd,"
                "population,income_group\n")
        for i in range(n_countries):
            for t in range(n_years):
                if not present[t, i]:
                    continue
                y, gd, db = int(years[t]), float(gdp[t, i]), float(debt[t, i])
                f.write(f"{codes[i]},{y},{gd!r},{db!r},"
                        f"{float(population[t, i])!r},{group[i]}\n")
                r = db / gd
                counts[y][0] += 1
                if r > THRESHOLD:
                    counts[y][1].append(codes[i])
                if r > 0:
                    ratios["all"].append(r)
                    ratios[group[i]].append(r)
    with open(out / "deflator.csv", "w", encoding="utf-8") as f:
        f.write("year,deflator\n")
        for y in deflator_years:
            f.write(f"{y},{deflator[y]!r}\n")
    return {
        "beta": BETA,
        "gamma": GAMMA,
        "breaches": {str(y): [n, sorted(c)] for y, (n, c) in counts.items()},
        "mean_positive_R": {k: float(np.mean(v)) for k, v in ratios.items()},
        # the gamma MLE's shape k solves log k - digamma(k) = this gap
        "log_gap_positive_R": {k: float(math.log(np.mean(v))
                                        - np.mean(np.log(v)))
                               for k, v in ratios.items()},
        "zero_ratios": int(zero_debt.sum()),
    }


def simulate_params(seed: int) -> dict:
    """Model and budget parameters for `debtkit simulate`, drawn from the seed.

    The ranges keep the path far from the blowup and underflow limits, so
    every seed runs the full number of Euler steps.
    """
    rng = np.random.default_rng([seed, 1])
    return {
        "c": float(rng.uniform(0.03, 0.06)),
        "gamma": float(rng.uniform(0.8, 0.95)),
        "r_pop": float(rng.uniform(0.005, 0.02)),
        "d0": float(rng.uniform(0.5, 2.0)),
        "budget_d0": float(rng.uniform(50.0, 150.0)),
    }
