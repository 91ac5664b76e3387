"""Invariances of the CLI's outputs on one synthetic panel.

* Redenomination. A change of currency multiplies every nominal GDP and
  debt amount by one factor c = 10**k. Per-capita d and g then scale by c,
  and the ratio R keeps its value. Every dimensionless output stays within
  rounding: S and beta of each surface, gamma of the scaling trend, zeta of
  each Zipf fit, and the Gamma shape k of R with its tail probability. The
  threshold counts, which hold no floats, stay byte for byte the same.
* Row order. A panel is a set of country-years. `obs.index` sorts codes
  and years, so `converge`, `scaling` and `threshold_breaches.csv` come out
  byte for byte the same on shuffled rows. `dist` does too, except
  `gamma_fit*.json`: its means, and those in `threshold_summary.json`, sum
  the sample in row order, which moves their last bits.
* BLAS threads. `converge` and `scaling` fit every cell and year with the
  bits of `ols`, whose means are add-reductions and whose sums of squares
  are BLAS dot products; they write the same bytes with one BLAS thread and
  with two.

The bounds are four times the largest change measured on this panel. Over
every k in [-150, 150], S, beta and gamma moved by at most 6.1e-15 and
zeta by at most 1.2e-15; the Gamma shape k of R moved by at most 6.1e-13
relative (on the smallest income group) and the tail probability by
5.8e-14 relative. Over 200 shuffles, every value of the Gamma fits and the
tail probability moved by at most 1.1e-12 relative. R has a narrow spread
here, so its shape k is large and sensitive to the last bits of the means.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debtkit import cli

TOL_SLOPE = 4 * 6.1e-15      # S, beta and gamma, absolute
TOL_ZETA = 4 * 1.2e-15       # absolute
TOL_GAMMA_K = 4 * 6.1e-13    # relative
TOL_TAIL = 4 * 5.8e-14       # relative
TOL_SHUFFLE = 4 * 1.1e-12    # every Gamma fit value, relative

ANALYSES = {"converge": [], "dist": ["--group", "all"], "scaling": [],
            "threshold": []}


def _run(panel_path: Path, deflator_path: Path, out: Path) -> dict:
    """Every output of every analysis, as {(subcommand, file name): bytes}."""
    outputs = {}
    for command, flags in ANALYSES.items():
        assert cli.main([command, "--panel", str(panel_path), "--deflator",
                         str(deflator_path), "--out", str(out / command),
                         *flags]) == 0
        outputs.update({(command, f.name): f.read_bytes()
                        for f in (out / command).iterdir()})
    return outputs


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A 200 x 16 synth panel: its header lines, data rows, deflator path
    and the outputs of every analysis."""
    tmp = tmp_path_factory.mktemp("base")
    assert cli.main(["synth", "--out", str(tmp), "--n-countries", "200",
                     "--years", "1990:2005", "--seed", "11"]) == 0
    lines = (tmp / "panel_synth.csv").read_text().splitlines()
    head = [line for line in lines if line.startswith("#")] + [lines[1]]
    deflator = tmp / "deflator_synth.csv"
    return (head, lines[len(head):], deflator,
            _run(tmp / "panel_synth.csv", deflator, tmp))


def _outputs_of(base, rows, tmp: Path) -> dict:
    """_run on the base panel's header lines over other data rows."""
    head, _, deflator, _ = base
    (tmp / "panel.csv").write_text("\n".join([*head, *rows, ""]))
    return _run(tmp / "panel.csv", deflator, tmp)


def _columns(data: bytes) -> dict:
    """A CSV output's columns by header name; the stamp line is skipped."""
    header, *rows = data.decode().splitlines()[1:]
    return dict(zip(header.split(","), zip(*(r.split(",") for r in rows))))


def _close(a: dict, b: dict, names, tol: float, relative: bool) -> None:
    for name in names:
        scale = abs(a[name]) if relative else 1.0
        assert abs(b[name] - a[name]) <= tol * scale, name


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(k=st.integers(-150, 150))
def test_redenomination_keeps_dimensionless_outputs(base, k, tmp_path_factory):
    _, rows, _, expected = base
    c = 10.0 ** k
    scaled = []
    for row in rows:
        fields = row.split(",")  # gdp_nominal_usd and debt_nominal_usd
        fields[2:4] = [repr(float(x) * c) for x in fields[2:4]]
        scaled.append(",".join(fields))
    got = _outputs_of(base, scaled, tmp_path_factory.mktemp("redenominated"))
    assert got.keys() == expected.keys()
    for (command, name), data in expected.items():
        moved = got[command, name]
        if name.startswith("surface_") or name == "gamma_trend.csv":
            a, b = _columns(data), _columns(moved)
            exact = [n for n in a if n in ("variable", "t", "dt", "year",
                                           "n_countries")]
            assert [a[n] for n in exact] == [b[n] for n in exact]
            for n in ("S", "beta", "gamma"):
                if n in a:
                    assert np.abs(np.array(b[n], float)
                                  - np.array(a[n], float)).max() <= TOL_SLOPE
        elif name.startswith("zipf_fit"):
            a, b = json.loads(data), json.loads(moved)
            for v in ("d", "R"):
                assert b[v]["rank_window"] == a[v]["rank_window"]
                _close(a[v], b[v], ["zeta"], TOL_ZETA, relative=False)
        elif name.startswith("gamma_fit"):
            a, b = json.loads(data), json.loads(moved)
            assert b["n"] == a["n"]
            assert b["n_zero_excluded"] == a["n_zero_excluded"]
            _close(a, b, ["k"], TOL_GAMMA_K, relative=True)
        elif name == "threshold_summary.json":
            a, b = json.loads(data), json.loads(moved)
            _close(a["gamma_fit"], b["gamma_fit"], ["k"], TOL_GAMMA_K,
                   relative=True)
            _close(a, b, ["tail_probability"], TOL_TAIL, relative=True)
        elif name == "threshold_breaches.csv":
            assert moved == data


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_row_order_leaves_outputs_alone(base, seed, tmp_path_factory):
    _, rows, _, expected = base
    order = np.random.default_rng(seed).permutation(len(rows))
    got = _outputs_of(base, [rows[i] for i in order],
                      tmp_path_factory.mktemp("shuffled"))
    assert got.keys() == expected.keys()
    fit = ["k", "r_c", "log_likelihood"]
    for (command, name), data in expected.items():
        moved = got[command, name]
        if name.startswith("gamma_fit"):
            a, b = json.loads(data), json.loads(moved)
            assert {n: a[n] for n in a if n not in fit} == {
                n: b[n] for n in b if n not in fit}
            _close(a, b, fit, TOL_SHUFFLE, relative=True)
        elif name == "threshold_summary.json":
            a, b = json.loads(data), json.loads(moved)
            assert a["n_zero_excluded"] == b["n_zero_excluded"]
            assert a["gamma_fit"]["n"] == b["gamma_fit"]["n"]
            _close(a["gamma_fit"], b["gamma_fit"], fit, TOL_SHUFFLE,
                   relative=True)
            _close(a, b, ["tail_probability"], TOL_SHUFFLE, relative=True)
        else:
            assert moved == data, name


def test_blas_thread_count_leaves_fits_alone(tmp_path):
    # each run is its own interpreter: OpenBLAS reads the variable on load
    assert cli.main(["synth", "--out", str(tmp_path), "--n-countries", "250",
                     "--years", "1990:2005", "--seed", "5"]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_NUM_THREADS": threads}
        for command in ("converge", "scaling"):
            out = tmp_path / f"{command}-{threads}"
            subprocess.run(
                [sys.executable, "-m", "debtkit.cli", command,
                 "--panel", str(tmp_path / "panel_synth.csv"),
                 "--deflator", str(tmp_path / "deflator_synth.csv"),
                 "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120)
            outputs[threads, command] = {f.name: f.read_bytes()
                                         for f in sorted(out.iterdir())}
    for command in ("converge", "scaling"):
        assert outputs["1", command] == outputs["2", command], command
    assert len(outputs["1", "converge"]) == 3
