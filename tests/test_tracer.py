"""perfbench/tracer.py traces the package by swapping module attributes.

Each (module, attribute) it names must exist in debtkit, or every traced
benchmark pass fails; some are imported only so that the tracer finds them.
"""

import importlib
import importlib.util
import re
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist_and_are_restored():
    tracer = _load_tracer()
    modules = {name: importlib.import_module(f"debtkit.{name}")
               for name, _, _ in tracer.TARGETS}
    originals = {(name, attr): getattr(modules[name], attr)
                 for name, attr, _ in tracer.TARGETS}
    recorder = tracer.Tracer()
    recorder.install()
    try:
        for (name, attr), fn in originals.items():
            assert getattr(modules[name], attr) is not fn, (name, attr)
        modules["regress"].ols([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    finally:
        recorder.uninstall()
    assert [span[1] for span in recorder.take()] == ["regress.ols"]
    for (name, attr), fn in originals.items():
        assert getattr(modules[name], attr) is fn, (name, attr)


def test_tracer_sees_dist_writers_under_cli_dist(tmp_path):
    # the Zipf functions and the writers are looked up when dist runs, not
    # bound before install
    from debtkit import cli

    panel = tmp_path / "panel.csv"
    deflator = tmp_path / "deflator.csv"
    panel.write_text(
        "country_code,year,gdp_nominal_usd,debt_nominal_usd,population,"
        "income_group\n" + "".join(
            f"{code},2000,{gdp}e9,{debt}e8,1e6,HIGH\n" for code, gdp, debt in
            (("AAA", 1, 9), ("BBB", 2, 7), ("CCC", 3, 4), ("DDD", 4, 8))))
    deflator.write_text("year,deflator\n2000,1.0\n")
    recorder = _load_tracer().Tracer()
    recorder.install()
    try:
        assert cli.main(["dist", "--panel", str(panel), "--deflator",
                         str(deflator), "--out", str(tmp_path / "o")]) == 0
    finally:
        recorder.uninstall()
    spans = recorder.take()
    # a CLI that called around these names would zero their benchmark spans
    for name in ("distributions.fit_zipf_exponent",
                 "distributions.write_ranks_csv",
                 "distributions.write_histogram_csv"):
        parents = [spans[span[0]][1] for span in spans if span[1] == name]
        assert parents == ["cli.dist", "cli.dist"], name
    # dist ranks d and R by _rank_tables, with or without --group, so the
    # public one-sample zipf_ranks is not called
    assert "distributions.zipf_ranks" not in {span[1] for span in spans}


def test_slope_surface_fits_cells_without_ols_spans_under_cli_converge(
        tmp_path, capsys):
    # slope_surface fits each start year's cells in one least-squares pass,
    # not by one regress.ols call per cell: under cli.converge there is one
    # slope_surface span per variable and no regress.ols span, so the fit
    # counts are read from the CLI's notes
    from debtkit import cli

    synth = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(synth), "--n-countries", "12",
                     "--years", "1990:2001", "--seed", "3"]) == 0
    capsys.readouterr()
    tracer = _load_tracer()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert cli.main(["converge", "--panel", str(synth / "panel_synth.csv"),
                         "--deflator", str(synth / "deflator_synth.csv"),
                         "--out", str(tmp_path / "o"), "--dt-max", "4",
                         "--r2-min", "0.97"]) == 0
    finally:
        recorder.uninstall()
    spans = recorder.take()
    # each surface's line reads "(<entries> fits, <n_dropped> below r2_min"
    counts = [(int(kept), int(dropped)) for kept, dropped in re.findall(
        r"\((\d+) fits, (\d+) below r2_min", capsys.readouterr().out)]
    assert len(counts) == 3 and all(map(all, counts))
    surface_parents = [spans[span[0]][1] for span in spans
                       if span[1] == "regress.slope_surface"]
    assert surface_parents == ["cli.converge"] * 3
    assert not [span for span in spans if span[1] == "regress.ols"]
    assert tracer.derive(spans)["regress.ols.calls"] == 0


def test_gamma_trend_fits_years_without_ols_spans_under_cli_scaling(
        tmp_path, capsys):
    # gamma_trend fits every scaling year in one least-squares pass, not by
    # one regress.ols call per year: under cli.scaling there is one
    # gamma_trend span and no regress.ols span, and scaling.fits counts the
    # 3 fitted years; 2003, with two countries, is skipped
    from debtkit import cli

    panel = tmp_path / "panel.csv"
    deflator = tmp_path / "deflator.csv"
    panel.write_text(
        "country_code,year,gdp_nominal_usd,debt_nominal_usd,population,"
        "income_group\n" + "".join(
            f"{code},{year},{gdp + year % 7}e9,{debt}e8,1e6,HIGH\n"
            for year in (2000, 2001, 2002)
            for code, gdp, debt in (("AAA", 1, 9), ("BBB", 2, 7),
                                    ("CCC", 3, 4), ("DDD", 4, 8)))
        + "AAA,2003,1e9,1e8,1e6,HIGH\nBBB,2003,2e9,3e8,1e6,HIGH\n")
    deflator.write_text("year,deflator\n2000,1.0\n2001,1.0\n2002,1.0\n"
                        "2003,1.0\n")
    tracer = _load_tracer()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert cli.main(["scaling", "--panel", str(panel), "--deflator",
                         str(deflator), "--out", str(tmp_path / "o")]) == 0
    finally:
        recorder.uninstall()
    spans = recorder.take()
    assert "(3 years)" in capsys.readouterr().out
    trend_parents = [spans[span[0]][1] for span in spans
                     if span[1] == "scaling.gamma_trend"]
    assert trend_parents == ["cli.scaling"]
    assert not [span for span in spans if span[1] == "regress.ols"]
    metrics = tracer.derive(spans)
    assert (metrics["scaling.fits"], metrics["regress.ols.calls"]) == (3, 0)


def test_one_ols_span_per_convergence_regression():
    from debtkit import panel, regress

    obs = panel.PanelColumns.from_rows([
        (code, year, v * (1 + year - 2000), 1.0, v, panel.IncomeGroup.LOW)
        for year in (2000, 2001) for code, v in
        (("AAA", 1.0), ("BBB", 2.0), ("CCC", 5.0))])
    tracer = _load_tracer()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        regress.convergence_regression(obs, "d", 2000, 1)
    finally:
        recorder.uninstall()
    spans = recorder.take()
    assert [(spans[parent][1] if parent >= 0 else None, name)
            for parent, name, *_ in spans] == [
        (None, "regress.convergence_regression"),
        ("regress.convergence_regression", "regress.ols")]
    metrics = tracer.derive(spans)
    assert (metrics["regress.cells"], metrics["regress.fits"],
            metrics["regress.ols.calls"]) == (1, 1, 1)
