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
    for name in ("distributions.zipf_ranks", "distributions.fit_zipf_exponent",
                 "distributions.write_ranks_csv",
                 "distributions.write_histogram_csv"):
        parents = [spans[span[0]][1] for span in spans if span[1] == name]
        assert parents == ["cli.dist", "cli.dist"], name


def test_ols_spans_count_fitted_cells_under_cli_converge(tmp_path, capsys):
    # regress.ols.calls is the benchmark's count of fitted convergence cells:
    # every cell with enough countries is fitted by one regress.ols call,
    # whether or not r2_min drops it
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
    assert len(counts) == 3 and all(dropped for _, dropped in counts)
    ols_parents = [spans[span[0]][1] for span in spans
                   if span[1] == "regress.ols"]
    assert ols_parents == ["regress.slope_surface"] * sum(map(sum, counts))
    assert tracer.derive(spans)["regress.ols.calls"] == sum(map(sum, counts))
