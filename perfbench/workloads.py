"""The benchmark's workloads: what each runs, why, and what it should move.

Every workload is a closed loop with one client: one process calls
`debtkit.cli.main` with the argv a user would type, one subcommand after the
other, and starts the next call only when the previous one has returned. One
pass is one run of all of the workload's subcommands in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen


@dataclass(frozen=True)
class Workload:
    name: str
    reason: str
    # (countries, first year, last year) of the generated panel, if any
    panel: "tuple[int, int, int] | None"
    # output file whose checked column the canary corrupts, and that column
    canary: tuple[str, str, str]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="converge-grid",
        reason="regress.slope_surface does about 95% of the work, so a "
               "columnar or vectorised convergence change shows its gain here.",
        panel=(250, 1960, 2005),
        canary=("converge", "surface_d.csv", "beta"),
    ),
    Workload(
        name="panel-scan",
        reason="the panel read path runs three times per pass plus per-year "
               "rescans, while regress only fits ols, so a regress-only change "
               "should leave it unchanged.",
        panel=(1000, 1965, 2005),
        canary=("threshold", "threshold_breaches.csv", "n_above"),
    ),
    Workload(
        name="synth-simulate",
        reason="the panel CSV write side, dynamics and the output writers, "
               "with no panel read and no regress, so the other workloads' "
               "optimisations should show no change here.",
        panel=None,
        canary=("simulate", "budget_path.csv", "D"),
    ),
)}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "panel.ingest_csv.s, panel.normalize.s, panel.rows_ingested":
        "dist_s, scaling_s, threshold_s, pipeline_s and peak_rss_mb on "
        "panel-scan; slightly on converge-grid; not on synth-simulate",
    "panel.write_panel_csv.s": "synth_s on synth-simulate",
    "regress.slope_surface.s, regress.cells, regress.fits, "
    "regress.useful_ratio, regress.cross_section.calls, regress.obs_scanned, "
    "regress.ols.calls, regress.write_surface_csv.s":
        "converge_s and pipeline_s on converge-grid; obs_scanned also "
        "scaling_s on panel-scan",
    "distributions.fit_gamma_mle.s, distributions.newton_iters, "
    "distributions.zipf_ranks.s, distributions.write_ranks_csv.s, "
    "distributions.write_histogram_csv.s": "dist_s and threshold_s on panel-scan",
    "scaling.gamma_trend.s, scaling.fits, scaling.write_trend_csv.s":
        "scaling_s on panel-scan",
    "dynamics.simulate_model.s, dynamics.steps, dynamics.write_simpath_csv.s, "
    "dynamics.synthetic_convergent_panel.s, dynamics.step_debt.s":
        "simulate_s, synth_s and peak_rss_mb on synth-simulate",
    "cli.<subcommand>.self_s": "that subcommand's time on its workload",
    "cli.bytes_written, cli.files_written": "every writer-bound time",
}

DT_MAX = "15"
EULER_STEP = "1e-4"
HORIZON = "50"
SYNTH = {"n_countries": "1000", "years": "1965:2005"}


def operations(name: str, seed: int, inputs: Path, out: Path,
               sim: dict) -> list[tuple[str, list[str]]]:
    """(subcommand, argv) pairs of one pass; each writes to ``out/<subcommand>``."""
    panel = ["--panel", str(inputs / "panel.csv"),
             "--deflator", str(inputs / "deflator.csv")]

    def dest(cmd):
        return ["--out", str(out / cmd)]

    if name == "converge-grid":
        return [("converge", ["converge", *panel, *dest("converge"),
                              "--dt-max", DT_MAX])]
    if name == "panel-scan":
        return [("dist", ["dist", *panel, *dest("dist"), "--group", "all"]),
                ("scaling", ["scaling", *panel, *dest("scaling")]),
                ("threshold", ["threshold", *panel, *dest("threshold"),
                               "--threshold", repr(gen.THRESHOLD)])]
    if name == "synth-simulate":
        return [("synth", ["synth", *dest("synth"),
                           "--n-countries", SYNTH["n_countries"],
                           "--years", SYNTH["years"], "--seed", str(seed)]),
                ("simulate", ["simulate", *dest("simulate"),
                              "--c", repr(sim["c"]), "--gamma", repr(sim["gamma"]),
                              "--r-pop", repr(sim["r_pop"]), "--d0", repr(sim["d0"]),
                              "--dt-step", EULER_STEP, "--horizon", HORIZON,
                              "--budget-d0", repr(sim["budget_d0"])])]
    raise KeyError(name)
