"""Cross-country public-debt analysis: panels, convergence, distributions,
GDP-debt scaling, and debt-dynamics simulation.

All logarithms are natural. Per-capita amounts are thousands of constant
(base-year 2000) US dollars per person; the debt-to-GDP ratio R is
dimensionless.
"""

from .distributions import (
    GammaFit,
    HistogramPdf,
    ZipfFit,
    digamma,
    fit_gamma_mle,
    fit_zipf_exponent,
    histogram_pdf,
    summary_stats,
    trigamma,
    zipf_ranks,
)
from .dynamics import (
    BudgetParams,
    ModelParams,
    SimPath,
    TerminalFlag,
    local_slope,
    model_growth_rate,
    simulate_model,
    step_debt,
    synthetic_convergent_panel,
)
from .errors import DebtkitError
from .panel import (
    DeflatorSeries,
    IncomeGroup,
    Panel,
    PanelColumns,
    PerCapitaObservation,
    RecordColumns,
    Variable,
    cross_section,
    filter_income_group,
    ingest_csv,
    normalize,
)
from .regress import (
    ConvergenceFit,
    OlsFit,
    SlopeSurface,
    convergence_regression,
    growth_rate,
    ols,
    slope_surface,
)
from .scaling import ScalingFit, fit_gdp_debt_scaling, gamma_trend

__version__ = "0.1.0"

__all__ = [
    "BudgetParams",
    "ConvergenceFit",
    "DebtkitError",
    "DeflatorSeries",
    "GammaFit",
    "HistogramPdf",
    "IncomeGroup",
    "ModelParams",
    "OlsFit",
    "Panel",
    "PanelColumns",
    "PerCapitaObservation",
    "RecordColumns",
    "ScalingFit",
    "SimPath",
    "SlopeSurface",
    "TerminalFlag",
    "Variable",
    "ZipfFit",
    "convergence_regression",
    "cross_section",
    "digamma",
    "filter_income_group",
    "fit_gamma_mle",
    "fit_gdp_debt_scaling",
    "fit_zipf_exponent",
    "gamma_trend",
    "growth_rate",
    "histogram_pdf",
    "ingest_csv",
    "local_slope",
    "model_growth_rate",
    "normalize",
    "ols",
    "simulate_model",
    "slope_surface",
    "step_debt",
    "summary_stats",
    "synthetic_convergent_panel",
    "trigamma",
    "zipf_ranks",
    "__version__",
]
