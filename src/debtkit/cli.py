"""Command-line surface: plot-ready tables for every analysis in the package.

Subcommands compose through files: ``synth`` writes a seeded synthetic panel
in the standard CSV schema, which ``converge``, ``dist``, ``scaling`` and
``threshold`` consume like any real panel. Outputs are CSV/JSON only (no
chart rendering) and are byte-identical across reruns with the same
configuration and seed. Every CSV starts with a comment line carrying the
package version and a config hash; JSON files carry the same data under a
"_meta" key so they stay parseable.

Exit codes: 0 success, 1 usage error (bad flags, unreadable input path),
2 data error (validation, too little data), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import distributions as dist
from . import dynamics, panel, regress, scaling
from .errors import (DebtkitError, DegenerateSample, DegenerateX, EmptyPanel,
                     NoConvergence, WindowTooSmall)
from .panel import MAX_YEAR_SPAN

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

MAX_BINS = 1_000_000
_NUMERIC_ERRORS = (NoConvergence, DegenerateSample, DegenerateX)
_FLAG_RULES = {  # checked before a subcommand reads or writes any file
    "--dt-max": (f"in [1, {MAX_YEAR_SPAN}]", lambda n: 1 <= n <= MAX_YEAR_SPAN),
    "--bins": (f"in [1, {MAX_BINS}]", lambda n: 1 <= n <= MAX_BINS),
    "--rank-window": ("LO HI with 1 <= LO <= HI", lambda w: 1 <= w[0] <= w[1]),
    "--r2-min": ("finite", math.isfinite),
    "--threshold": ("finite", math.isfinite),
    "--population": ("finite and > 0", lambda x: 0 < x < math.inf),
    "--alpha": ("finite", math.isfinite),
    "--beta": ("finite and < 1", lambda x: -math.inf < x < 1),
    "--scaling-gamma": ("finite", math.isfinite),
    "--sigma": ("finite and >= 0", lambda x: 0 <= x < math.inf),
    "--a-prefactor": ("finite and > 0", lambda x: 0 < x < math.inf),
    "--log-d0-range": ("LO HI, finite, with LO < HI and HI - LO finite",
                       lambda r: 0 < r[1] - r[0] < math.inf),  # inf/NaN ends fail
}


def _parse_years(text: str) -> list[int]:
    """Parse '1970:1975' / '1990,1995' / mixes of both into a sorted year list."""
    years: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":", 1)
            lo, hi = int(lo), int(hi)
            if not 0 <= hi - lo < MAX_YEAR_SPAN:
                raise ValueError(f"year range {part!r} is reversed or longer "
                                 f"than {MAX_YEAR_SPAN} years")
            years.update(range(lo, hi + 1))
        else:
            years.add(int(part))
        if len(years) > MAX_YEAR_SPAN:
            raise ValueError(f"--years names more than {MAX_YEAR_SPAN} years")
    if not years:
        raise ValueError(f"no years in {text!r}")
    if min(years) not in panel.YEARS or max(years) not in panel.YEARS:
        raise ValueError("--years must fit in 64-bit integers")
    return sorted(years)


def _config_hash(args: argparse.Namespace) -> str:
    """Short stable hash of the analysis parameters.

    File-location flags are excluded so the same analysis on the same data
    stamps identical headers wherever the files happen to live.
    """
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func", "out", "panel", "deflator")}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write(args: argparse.Namespace, outputs: list) -> None:
    """Make --out and write each (file name, output, stdout note) in order.

    Subcommands compute every output before calling this, so a failure
    leaves no file behind. A dict output is written as JSON with "_meta"
    added; any other output is a writer called as
    ``output(path, header_comment=stamp)``.
    """
    config = _config_hash(args)
    stamp = f"debtkit {__version__} config={config} log=natural"
    meta = {"version": __version__, "config": config, "log": "natural"}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, output, note in outputs:
        path = out / name
        if isinstance(output, dict):
            with open(path, "w", encoding="utf-8") as f:
                json.dump({**output, "_meta": meta}, f, indent=2, sort_keys=True)
                f.write("\n")
        else:
            output(path, header_comment=stamp)
        print(f"wrote {path}{note}")


def _load_observations(args: argparse.Namespace) -> panel.PanelColumns:
    pl = panel.ingest_csv(args.panel, args.deflator)
    if not pl.records:
        raise EmptyPanel(f"{args.panel}: panel has no data rows")
    return panel.normalize(pl)


def _years(args: argparse.Namespace, obs) -> list[int]:
    """The --years list, or else every panel year."""
    return _parse_years(args.years) if args.years else sorted(
        set(obs.year.tolist()))


def cmd_converge(args: argparse.Namespace) -> int:
    obs = _load_observations(args)
    # slope_surface needs both endpoints; cap initial years below the last one
    last = int(obs.year.max())
    t_list = [t for t in _years(args, obs) if t < last]
    if not t_list:
        raise ValueError(f"--years has no initial year before the panel's "
                         f"last year {last}")
    surfaces = [regress.slope_surface(obs, variable, t_list, args.dt_max,
                                      args.r2_min) for variable in panel.Variable]
    _write(args, [(f"surface_{s.variable.value}.csv",
                   partial(regress.write_surface_csv, s),
                   f" ({len(s.entries)} fits, {s.n_dropped} below r2_min, "
                   f"{s.n_skipped} skipped)") for s in surfaces])
    return EXIT_OK


def _dist_outputs(obs, suffix: str, args, ranked: dict) -> list:
    """The outputs of one `dist` set: histograms, Zipf ranks and both fits;
    ranked maps d and R to the set's _RankTable from dist._rank_tables."""
    samples = {"d": obs.d, "R": obs.ratio_R}
    hists = {name: dist.histogram_pdf(values, args.bins)
             for name, values in samples.items()}
    zipf_payload = {}
    for name, values in samples.items():
        # default fit window covers the strictly positive prefix of the ranks
        window = args.rank_window or (1, int(np.count_nonzero(values > 0)))
        if window[1] == 0:
            raise WindowTooSmall(f"{name} has 0 positive values; the Zipf fit "
                                 f"needs >= 3")
        zipf_payload[name] = asdict(dist.fit_zipf_exponent(ranked[name].ranked,
                                                           window))

    positive_r = samples["R"][samples["R"] > 0]
    n_zero = len(samples["R"]) - len(positive_r)
    if n_zero:
        print(f"note: {n_zero} zero-debt ratios excluded from the gamma fit",
              file=sys.stderr)
    gamma_payload = {**asdict(dist.fit_gamma_mle(positive_r)),
                     "n_zero_excluded": n_zero}
    return [
        *[(f"pdf_{name}{suffix}.csv", partial(dist.write_histogram_csv, hist), "")
          for name, hist in hists.items()],
        *[(f"zipf_{name}{suffix}.csv", partial(dist.write_ranks_csv, ranks), "")
          for name, ranks in ranked.items()],
        (f"zipf_fit{suffix}.json", zipf_payload, ""),
        (f"gamma_fit{suffix}.json", gamma_payload, ""),
    ]


def cmd_dist(args: argparse.Namespace) -> int:
    obs = _load_observations(args)
    wanted = ([] if not args.group else list(panel.IncomeGroup)
              if args.group == "all" else [panel.IncomeGroup(args.group.upper())])
    masks = [obs.income_group == group for group in wanted]
    # d and R are each sorted and formatted once, for the panel and every group
    ranked = {name: dist._rank_tables(values, masks)
              for name, values in (("d", obs.d), ("R", obs.ratio_R))}
    outputs = _dist_outputs(obs, "", args, {n: r[0] for n, r in ranked.items()})
    for i, (group, mask) in enumerate(zip(wanted, masks), start=1):
        suffix = f"_{group.value.lower()}"
        if not mask.any():
            print(f"note: income group {group.value} is empty; "
                  f"*{suffix} files omitted", file=sys.stderr)
            continue
        try:
            outputs += _dist_outputs(obs.compress(mask), suffix, args,
                                     {n: r[i] for n, r in ranked.items()})
        except DebtkitError as exc:
            print(f"note: income group {group.value}: {exc}; "
                  f"*{suffix} files omitted", file=sys.stderr)
    _write(args, outputs)
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    obs = _load_observations(args)
    years = _years(args, obs)
    fits = scaling.gamma_trend(obs, years)
    _write(args, [("gamma_trend.csv", partial(scaling.write_trend_csv, fits),
                   f" ({len(fits)} years)")])
    skipped = sorted(set(years) - {f.year for f in fits})
    if skipped:
        print(f"note: skipped years without enough data: "
              f"{','.join(map(str, skipped))}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    params = dynamics.ModelParams(c=args.c, gamma=args.gamma, r_pop=args.r_pop,
                                  d0=args.d0, dt_step=args.dt_step,
                                  horizon=args.horizon)
    # built before the simulation so that a rejected flag costs no model run
    budget_params = None if args.budget_d0 is None else dynamics.BudgetParams(
        d0=args.budget_d0, interest=args.budget_interest,
        primary_deficit=args.budget_deficit, horizon=int(round(args.horizon)))
    path_result = dynamics.simulate_model(params)
    outputs = [("simpath.csv", partial(dynamics.write_simpath_csv, path_result),
                f" ({len(path_result.times)} points, "
                f"{path_result.terminal_flag.value})")]
    if budget_params is not None:
        budget = dynamics.step_debt(budget_params)
        outputs.append(("budget_path.csv", partial(
            panel.write_table, header=["t", "D"],
            columns=[range(len(budget)), budget], lineterminator="\n"), ""))
    _write(args, outputs)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    obs = _load_observations(args)
    ratio = obs.ratio_R
    n_zero = int((ratio == 0).sum())
    fit = dist.fit_gamma_mle(ratio[ratio > 0])
    rows = []
    for year, in_year in obs.index.rows.items():  # in code order
        above = obs.country_code[in_year[ratio[in_year] > args.threshold]]
        rows.append((year, len(in_year), len(above), ";".join(above)))
    summary = {
        "threshold": args.threshold,
        "tail_probability": fit.tail_probability(args.threshold),
        "gamma_fit": asdict(fit),
        "n_zero_excluded": n_zero,
    }
    _write(args, [
        ("threshold_breaches.csv", partial(
            panel.write_table, header=["year", "n_countries", "n_above",
                                       "countries"],
            columns=list(zip(*rows)), lineterminator="\n"), ""),
        ("threshold_summary.json", summary, ""),
    ])
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    years = _parse_years(args.years)
    obs = dynamics.synthetic_convergent_panel(
        n_countries=args.n_countries, years=years, alpha=args.alpha,
        beta=args.beta, sigma=args.sigma, seed=args.seed,
        log_d0_range=tuple(args.log_d0_range),
        a_prefactor=args.a_prefactor, scaling_gamma=args.scaling_gamma)
    records = panel.records_from_observations(obs, population=args.population)
    deflator = panel.DeflatorSeries(
        values={y: 1.0 for y in [*years, panel.BASE_YEAR]})
    _write(args, [
        ("panel_synth.csv", partial(panel.write_panel_csv, records=records),
         f" ({len(records)} rows)"),
        ("deflator_synth.csv", partial(panel.write_deflator_csv,
                                       series=deflator), ""),
    ])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="debtkit",
                     description="Cross-country public-debt analysis toolkit")
    parser.add_argument("--version", action="version",
                        version=f"debtkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_panel_flags(p):
        p.add_argument("--panel", required=True, help="panel CSV path")
        p.add_argument("--deflator", required=True, help="deflator CSV path")

    p = sub.add_parser("converge",
                       help="slope surfaces S(t, dt) for d, g, and R")
    add_panel_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--years", default=None,
                   help="initial years, e.g. 1970:2000 or 1970,1980 "
                        "(default: every panel year)")
    p.add_argument("--dt-max", type=int, default=15, help="largest horizon")
    p.add_argument("--r2-min", type=float, default=0.0,
                   help="drop fits below this r-squared")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("dist",
                       help="histogram pdfs, gamma MLE, and Zipf fits for d and R")
    add_panel_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--rank-window", nargs=2, type=int, metavar=("LO", "HI"),
                   default=None,
                   help="Zipf fit ranks (default: all positive values)")
    p.add_argument("--group", choices=["low", "medium", "high", "all"],
                   default=None, help="also emit per-income-group outputs")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("scaling", help="annual GDP-debt power-law exponents")
    add_panel_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--years", default=None)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("simulate",
                       help="per-capita debt model path (and budget recursion)")
    p.add_argument("--out", required=True)
    p.add_argument("--c", type=float, default=0.05,
                   help="composite borrowing constant")
    p.add_argument("--gamma", type=float, default=0.9,
                   help="GDP-debt scaling exponent")
    p.add_argument("--r-pop", type=float, default=0.01,
                   help="population growth rate per year")
    p.add_argument("--d0", type=float, default=1.0,
                   help="initial per-capita debt")
    p.add_argument("--dt-step", type=float, default=1e-3,
                   help="Euler step in years")
    p.add_argument("--horizon", type=float, default=50.0, help="years")
    p.add_argument("--budget-d0", type=float, default=None,
                   help="also run the total-debt recursion from this level")
    p.add_argument("--budget-interest", type=float, default=0.05)
    p.add_argument("--budget-deficit", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("threshold",
                       help="R-above-threshold counts and gamma tail probability")
    add_panel_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.6,
                   help="debt-to-GDP threshold (default 0.6)")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("synth",
                       help="seeded synthetic panel with known convergence speed")
    p.add_argument("--out", required=True)
    p.add_argument("--n-countries", type=int, default=100)
    p.add_argument("--years", required=True,
                   help="e.g. 1970:2005 (consecutive years recommended)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="per-year drift of log d")
    p.add_argument("--beta", type=float, default=0.03,
                   help="per-year convergence speed (negative = divergence)")
    p.add_argument("--sigma", type=float, default=0.1,
                   help="std of the yearly log-noise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log-d0-range", nargs=2, type=float,
                   metavar=("LO", "HI"), default=[-1.0, 3.0])
    p.add_argument("--a-prefactor", type=float, default=2.0)
    p.add_argument("--scaling-gamma", type=float, default=0.9)
    p.add_argument("--population", type=float, default=1e6,
                   help="constant population used to build nominal amounts")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for --help/--version/errors
        return int(exc.code or 0)
    try:
        for flag, (rule, ok) in _FLAG_RULES.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and not ok(value):
                raise ValueError(f"{flag} must be {rule}, got {value!r}")
        return args.func(args)
    except OSError as exc:  # a path that cannot be read or made
        if exc.filename is None:
            raise
        print(f"debtkit: error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"debtkit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DebtkitError as exc:
        print(f"debtkit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"debtkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
