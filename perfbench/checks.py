"""Output checks that do not depend on bytes: each compares a subcommand's
outputs with what the generated inputs imply.

Each check returns a list of problems; an empty list means the outputs are
correct. `corrupt` makes the deliberately broken copy that every run feeds
through the same checks, to show that they catch a wrong value.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from scipy.special import digamma

BETA_TOL = 0.01    # beta of d at dt = 1, median over start years
GAMMA_TOL = 0.02   # scaling exponent, median over years
MEAN_RTOL = 1e-9   # k * r_c against the mean of the positive ratios
SHAPE_RTOL = 1e-6  # log k - digamma(k) against log(mean) - mean(log)
EULER_RTOL = 1e-5  # simulated path against the Bernoulli closed form
SUBSAMPLE = 997    # simpath rows compared with the closed form: every n-th


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a debtkit CSV, which must start with its stamp."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# debtkit "):
        raise ValueError(f"{path.name}: missing '# debtkit' stamp")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _column(path: Path, name: str) -> list[str]:
    header, rows = _table(path)
    i = header.index(name)
    return [row[i] for row in rows]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _gamma_fit(problems: list[str], fit: dict, truth: dict, group: str,
               where: str):
    """k * r_c is the mean of the positive ratios, and the shape k solves the
    MLE equation log k - digamma(k) = log(mean) - mean(log) of those ratios
    (digamma from scipy, not from debtkit)."""
    mean = truth["mean_positive_R"][group]
    gap = truth["log_gap_positive_R"][group]
    k = fit["k"]
    if not _close(k * fit["r_c"], mean, MEAN_RTOL):
        problems.append(f"{where}: k*r_c = {k * fit['r_c']!r}, "
                        f"mean of positive ratios = {mean!r}")
    if not _close(math.log(k) - float(digamma(k)), gap, SHAPE_RTOL):
        problems.append(f"{where}: k = {k!r} gives log k - digamma(k) = "
                        f"{math.log(k) - float(digamma(k))!r}, "
                        f"log(mean) - mean(log) = {gap!r}")


def check_converge(out: Path, truth: dict) -> list[str]:
    problems = []
    for var in ("d", "g", "R"):
        header, rows = _table(out / f"surface_{var}.csv")
        if header != ["variable", "t", "dt", "S", "beta", "alpha",
                      "r_squared", "n_countries"] or not rows:
            problems.append(f"surface_{var}.csv: bad header or no rows")
    header, rows = _table(out / "surface_d.csv")
    beta = statistics.median(float(r[4]) for r in rows if r[2] == "1")
    if abs(beta - truth["beta"]) > BETA_TOL:
        problems.append(f"beta of d = {beta!r}, generated {truth['beta']!r}")
    return problems


def check_scaling(out: Path, truth: dict) -> list[str]:
    gammas = [float(v) for v in _column(out / "gamma_trend.csv", "gamma")]
    if len(gammas) != len(truth["breaches"]):
        return [f"gamma_trend.csv has {len(gammas)} years, "
                f"panel has {len(truth['breaches'])}"]
    gamma = statistics.median(gammas)
    if abs(gamma - truth["gamma"]) > GAMMA_TOL:
        return [f"gamma = {gamma!r}, generated {truth['gamma']!r}"]
    return []


def check_dist(out: Path, truth: dict) -> list[str]:
    problems = []
    for group in ("all", "LOW", "MEDIUM", "HIGH"):
        suffix = "" if group == "all" else f"_{group.lower()}"
        for stem in ("pdf_d", "pdf_R", "zipf_d", "zipf_R"):
            if not _table(out / f"{stem}{suffix}.csv")[1]:
                problems.append(f"{stem}{suffix}.csv has no rows")
        zipf = json.loads((out / f"zipf_fit{suffix}.json").read_text())
        if not all(zipf[v]["zeta"] > 0 for v in ("d", "R")):
            problems.append(f"zipf_fit{suffix}.json: zeta <= 0")
        fit = json.loads((out / f"gamma_fit{suffix}.json").read_text())
        _gamma_fit(problems, fit, truth, group, f"gamma_fit{suffix}.json")
    return problems


def check_threshold(out: Path, truth: dict) -> list[str]:
    problems = []
    header, rows = _table(out / "threshold_breaches.csv")
    got = {r[0]: [int(r[1]), sorted(filter(None, r[3].split(";")))]
           for r in rows}
    counts = {r[0]: int(r[2]) for r in rows}
    if got != truth["breaches"] or any(
            counts[y] != len(got[y][1]) for y in counts):
        problems.append("threshold_breaches.csv: per-year counts differ "
                        "from the generated values")
    summary = json.loads((out / "threshold_summary.json").read_text())
    if summary["n_zero_excluded"] != truth["zero_ratios"]:
        problems.append(f"threshold_summary.json: {summary['n_zero_excluded']} "
                        f"zero ratios excluded, generated {truth['zero_ratios']}")
    _gamma_fit(problems, summary["gamma_fit"], truth, "all",
               "threshold_summary.json")
    return problems


def check_synth(out: Path, truth: dict) -> list[str]:
    from debtkit.panel import ingest_csv  # the program's own reader
    n = len(ingest_csv(out / "panel_synth.csv",
                       out / "deflator_synth.csv").records)
    if n != truth["synth_rows"]:
        return [f"panel_synth.csv re-ingests to {n} rows, "
                f"expected {truth['synth_rows']}"]
    return []


def _bernoulli(sim: dict, t: float) -> float:
    """Exact d(t): u = d**(1-gamma) obeys u' = (1-gamma)(c - r_pop u)."""
    q = 1.0 - sim["gamma"]
    u_inf = sim["c"] / sim["r_pop"]
    u = u_inf + (sim["d0"] ** q - u_inf) * math.exp(-q * sim["r_pop"] * t)
    return u ** (1.0 / q)


def check_simulate(out: Path, truth: dict) -> list[str]:
    problems = []
    sim = truth["simulate"]
    lines = (out / "simpath.csv").read_text(encoding="utf-8").splitlines()
    if lines[1] != "t,d" or len(lines) - 2 != truth["steps"] + 1:
        problems.append(f"simpath.csv: {len(lines) - 2} points, "
                        f"expected {truth['steps'] + 1}")
    for line in [*lines[2::SUBSAMPLE], lines[-1]]:
        t, d = map(float, line.split(","))
        if not _close(d, _bernoulli(sim, t), EULER_RTOL):
            problems.append(f"simpath.csv: d({t}) = {d!r}, exact "
                            f"{_bernoulli(sim, t)!r}")
            break
    got = [float(v) for v in _column(out / "budget_path.csv", "D")]
    want = [sim["budget_d0"]]
    for _ in range(len(got) - 1):
        want.append(1.05 * want[-1])
    if len(got) != int(truth["horizon"]) + 1 or not all(
            _close(a, b, 1e-12) for a, b in zip(got, want)):
        problems.append("budget_path.csv differs from D(t) = 1.05 D(t-1)")
    return problems


CHECKS = {"converge": check_converge, "scaling": check_scaling,
          "dist": check_dist, "threshold": check_threshold,
          "synth": check_synth, "simulate": check_simulate}


def check(subcommand: str, out: Path, truth: dict) -> list[str]:
    """Run the subcommand's check; missing or unreadable outputs are problems."""
    try:
        return CHECKS[subcommand](out, truth)
    except Exception as exc:  # any output the check cannot read fails it
        return [f"unreadable output: {exc!r}"]


def corrupt(path: Path, column: str) -> None:
    """Add 1 to every value of ``column`` in the CSV at ``path``, in place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    i = lines[1].split(",").index(column)
    for k in range(2, len(lines)):
        fields = lines[k].split(",")
        value = fields[i]
        fields[i] = str(int(value) + 1) if value.isdigit() else repr(
            float(value) + 1.0)
        lines[k] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
