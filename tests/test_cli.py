"""End-to-end CLI tests: file outputs, exit codes, determinism."""

import hashlib
import json
import os
import warnings

import pytest

from debtkit import cli

PANEL_HEADER = ("country_code,year,gdp_nominal_usd,debt_nominal_usd,"
                "population,income_group")


def _write_panel(tmp_path, rows, deflator_years=(2000, 2001)):
    p = tmp_path / "panel.csv"
    d = tmp_path / "deflator.csv"
    p.write_text(PANEL_HEADER + "\n" + "\n".join(rows) + "\n")
    d.write_text("year,deflator\n"
                 + "\n".join(f"{y},1.0" for y in deflator_years) + "\n")
    return str(p), str(d)


@pytest.fixture
def small_panel(tmp_path):
    # R at 2000: AUS 0.9, BRA 0.75, CHN 0.0, USA 0.5
    # R at 2001: AUS 0.8, BRA 0.65, CHN 0.1, USA 0.45
    rows = [
        "AUS,2000,1e9,9e8,1e6,HIGH",
        "BRA,2000,2e9,1.5e9,2e6,MEDIUM",
        "CHN,2000,3e9,0.0,3e6,LOW",
        "USA,2000,4e9,2e9,4e6,HIGH",
        "AUS,2001,1e9,8e8,1e6,HIGH",
        "BRA,2001,2e9,1.3e9,2e6,MEDIUM",
        "CHN,2001,3e9,3e8,3e6,LOW",
        "USA,2001,4e9,1.8e9,4e6,HIGH",
    ]
    return _write_panel(tmp_path, rows)


def _synth(tmp_path, name="synth", **overrides):
    out = tmp_path / name
    argv = ["synth", "--out", str(out), "--n-countries", "30",
            "--years", "1990:2000", "--seed", "17"]
    for flag, value in overrides.items():
        argv += [flag, str(value)]
    assert cli.main(argv) == 0
    return str(out / "panel_synth.csv"), str(out / "deflator_synth.csv")


# ------------------------------------------------------------------ success

def test_synth_outputs_reingest(tmp_path):
    panel_path, deflator_path = _synth(tmp_path)
    from debtkit import panel as panel_mod
    pl = panel_mod.ingest_csv(panel_path, deflator_path)
    assert len(pl.records) == 30 * 11
    assert pl.years() == list(range(1990, 2001))


def test_synth_deterministic_bytes(tmp_path):
    a_panel, a_defl = _synth(tmp_path, name="a")
    b_panel, b_defl = _synth(tmp_path, name="b")
    from pathlib import Path
    assert Path(a_panel).read_bytes() == Path(b_panel).read_bytes()
    assert Path(a_defl).read_bytes() == Path(b_defl).read_bytes()


def test_converge_writes_three_surfaces(tmp_path, capsys):
    panel_path, deflator_path = _synth(tmp_path)
    out = tmp_path / "conv"
    rc = cli.main(["converge", "--panel", panel_path,
                   "--deflator", deflator_path, "--out", str(out),
                   "--years", "1990:1995", "--dt-max", "5"])
    assert rc == 0
    for var in ("d", "g", "R"):
        lines = (out / f"surface_{var}.csv").read_text().splitlines()
        assert lines[0].startswith("# debtkit ")
        assert "log=natural" in lines[0]
        assert lines[1] == "variable,t,dt,S,beta,alpha,r_squared,n_countries"
        assert len(lines) == 2 + 6 * 5  # t in 1990..1995, dt in 1..5


def test_converge_builds_one_year_index(tmp_path, monkeypatch):
    # the surfaces of d, g and R pair countries through one index
    from debtkit import panel as panel_mod
    panel_path, deflator_path = _synth(tmp_path)
    build, built = panel_mod.YearIndex, []

    def counted(*fields):
        built.append(build(*fields))
        return built[-1]

    monkeypatch.setattr(panel_mod, "YearIndex", counted)
    assert cli.main(["converge", "--panel", panel_path,
                     "--deflator", deflator_path, "--out",
                     str(tmp_path / "conv"), "--dt-max", "3"]) == 0
    assert len(built) == 1


def test_dist_outputs(tmp_path, small_panel):
    panel_path, deflator_path = small_panel
    out = tmp_path / "dist"
    rc = cli.main(["dist", "--panel", panel_path, "--deflator", deflator_path,
                   "--out", str(out), "--bins", "4"])
    assert rc == 0
    for name in ("pdf_d.csv", "pdf_R.csv", "zipf_d.csv", "zipf_R.csv"):
        assert (out / name).exists()
    gamma_fit = json.loads((out / "gamma_fit.json").read_text())
    assert set(gamma_fit) == {"k", "r_c", "log_likelihood", "n",
                              "n_zero_excluded", "_meta"}
    assert gamma_fit["n"] == 7  # CHN 2000 has zero debt
    assert gamma_fit["n_zero_excluded"] == 1
    zipf_fit = json.loads((out / "zipf_fit.json").read_text())
    assert set(zipf_fit) == {"d", "R", "_meta"}
    assert set(zipf_fit["R"]) == {"zeta", "rank_window", "r_squared",
                                  "implied_pdf_exponent"}
    # ranks files include every sample; the fit window skips nonpositives
    assert zipf_fit["R"]["rank_window"] == [1, 7]
    assert len((out / "zipf_R.csv").read_text().splitlines()) == 2 + 8


def test_dist_group_outputs(tmp_path, small_panel, capsys):
    panel_path, deflator_path = small_panel
    out = tmp_path / "dist"
    rc = cli.main(["dist", "--panel", panel_path, "--deflator", deflator_path,
                   "--out", str(out), "--bins", "3", "--group", "all"])
    assert rc == 0
    err = capsys.readouterr().err
    assert (out / "pdf_d_high.csv").exists()
    assert (out / "gamma_fit_high.json").exists()
    # LOW group is the single zero-debt country: gamma fit impossible there
    assert "LOW" in err
    assert not (out / "gamma_fit_low.json").exists()


def test_dist_group_of_zero_debt_is_a_note(tmp_path, capsys):
    # the LOW countries carry no debt, so their default Zipf window is empty
    rows = [f"{code},{year},{gdp}e9,{debt}e8,1e6,{group}"
            for year in (2000, 2001)
            for code, gdp, debt, group in (
                ("AAA", 1, 0, "LOW"), ("BBB", 2, 0, "LOW"), ("CCC", 3, 0, "LOW"),
                ("DDD", 1, 4, "MEDIUM"), ("EEE", 2, 9, "MEDIUM"),
                ("FFF", 3, 7, "MEDIUM"), ("GGG", 4, 5, "HIGH"),
                ("HHH", 5, 8, "HIGH"), ("III", 6, 2, "HIGH"))]
    panel_path, deflator_path = _write_panel(tmp_path, rows)
    out = tmp_path / "dist"
    rc = cli.main(["dist", "--panel", panel_path, "--deflator", deflator_path,
                   "--out", str(out), "--group", "all"])
    assert rc == 0
    err = capsys.readouterr().err
    assert ("note: income group LOW: d has 0 positive values; the Zipf fit "
            "needs >= 3; *_low files omitted") in err
    # a failed group writes none of its set, and the other groups all of theirs
    names = {f.name for f in out.iterdir()}
    sets = {suffix: {f"{stem}{suffix}.{ext}" for stem, ext in (
        ("pdf_d", "csv"), ("pdf_R", "csv"), ("zipf_d", "csv"),
        ("zipf_R", "csv"), ("zipf_fit", "json"), ("gamma_fit", "json"))}
        for suffix in ("", "_medium", "_high")}
    assert names == set().union(*sets.values())
    # with no LOW rows at all the group is empty, and the note says so
    panel_path, deflator_path = _write_panel(
        tmp_path, [row for row in rows if not row.endswith(",LOW")])
    out = tmp_path / "dist_no_low"
    assert cli.main(["dist", "--panel", panel_path, "--deflator", deflator_path,
                     "--out", str(out), "--group", "all"]) == 0
    assert ("note: income group LOW is empty; *_low files omitted"
            in capsys.readouterr().err)
    assert {f.name for f in out.iterdir()} == names


def test_scaling_output(tmp_path, capsys):
    panel_path, deflator_path = _synth(tmp_path)
    out = tmp_path / "scl"
    rc = cli.main(["scaling", "--panel", panel_path,
                   "--deflator", deflator_path, "--out", str(out)])
    assert rc == 0
    lines = (out / "gamma_trend.csv").read_text().splitlines()
    assert lines[1] == "year,gamma,log_A,r_squared,n_countries"
    assert len(lines) == 2 + 11
    # synth builds g = 2 d^0.9 exactly, so every year recovers gamma = 0.9
    for line in lines[2:]:
        fields = line.split(",")
        assert float(fields[1]) == pytest.approx(0.9, abs=1e-10)
    # requested years the panel lacks are skipped, and the note names them
    assert cli.main(["scaling", "--panel", panel_path, "--deflator",
                     deflator_path, "--out", str(tmp_path / "scl2"),
                     "--years", "1988:1991,3000"]) == 0
    captured = capsys.readouterr()
    assert "gamma_trend.csv (2 years)" in captured.out
    assert ("note: skipped years without enough data: 1988,1989,3000"
            in captured.err)


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--out", str(out), "--gamma", "1.0",
                   "--c", "0.05", "--r-pop", "0.01", "--d0", "2.0",
                   "--dt-step", "0.5", "--horizon", "2",
                   "--budget-d0", "100", "--budget-interest", "0.05",
                   "--budget-deficit", "10"])
    assert rc == 0
    sim_lines = (out / "simpath.csv").read_text().splitlines()
    assert sim_lines[1] == "t,d"
    assert len(sim_lines) == 2 + 5  # t = 0, 0.5, 1.0, 1.5, 2.0
    budget_lines = (out / "budget_path.csv").read_text().splitlines()
    assert budget_lines[1] == "t,D"
    assert budget_lines[2] == "0,100.0"
    assert budget_lines[3] == "1,115.0"


def test_threshold_outputs(tmp_path, small_panel):
    panel_path, deflator_path = small_panel
    out = tmp_path / "thr"
    rc = cli.main(["threshold", "--panel", panel_path,
                   "--deflator", deflator_path, "--out", str(out),
                   "--threshold", "0.6"])
    assert rc == 0
    lines = (out / "threshold_breaches.csv").read_text().splitlines()
    assert lines[1] == "year,n_countries,n_above,countries"
    assert lines[2] == "2000,4,2,AUS;BRA"
    assert lines[3] == "2001,4,2,AUS;BRA"
    summary = json.loads((out / "threshold_summary.json").read_text())
    assert summary["threshold"] == 0.6
    assert summary["n_zero_excluded"] == 1
    assert 0.0 < summary["tail_probability"] < 1.0
    assert summary["gamma_fit"]["n"] == 7


def test_config_hash_stable_and_flag_sensitive(tmp_path, small_panel):
    panel_path, deflator_path = small_panel
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    base = ["threshold", "--panel", panel_path, "--deflator", deflator_path]
    assert cli.main(base + ["--out", str(out_a)]) == 0
    assert cli.main(base + ["--out", str(out_b)]) == 0
    assert cli.main(base + ["--out", str(out_c), "--threshold", "0.9"]) == 0

    def config_of(path):
        return json.loads(path.read_text())["_meta"]["config"]

    # same flags, different --out: same hash (out is excluded)
    assert config_of(out_a / "threshold_summary.json") == config_of(
        out_b / "threshold_summary.json")
    assert config_of(out_a / "threshold_summary.json") != config_of(
        out_c / "threshold_summary.json")


def test_help_and_version_exit_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "converge" in out


@pytest.mark.parametrize("command, argv", [
    ("converge", ["--dt-max", "3"]),
    ("dist", ["--group", "all"]),
    ("scaling", []),
    ("threshold", []),
    ("synth", ["--n-countries", "5", "--years", "2000:2002"]),
    ("simulate", ["--horizon", "2", "--budget-d0", "100"]),
])
def test_wrote_lines_name_every_output(tmp_path, capsys, command, argv):
    io = []
    if command not in ("synth", "simulate"):
        panel_path, deflator_path = _synth(tmp_path)
        io = ["--panel", panel_path, "--deflator", deflator_path]
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main([command, *io, "--out", str(out), *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    prefix = f"wrote {out}{os.sep}"
    assert all(line.startswith(prefix) for line in lines), lines
    written = [line[len(prefix):].split(" ")[0] for line in lines]
    assert sorted(written) == sorted(f.name for f in out.iterdir())


# ------------------------------------------------------------ golden bytes

# sha256 of every output of test_pipeline_golden_bytes, recorded from the
# per-module writers that panel.write_table replaced: it must keep their bytes
GOLDEN_SHA256 = {
    "budget_path.csv": "da78edae851fc8827dca875f30d46f94504b0d57ad558a53dc0fb39d77c3fba7",
    "deflator_synth.csv": "db7e9ceca1b145b20529e6619f7c92b2e60e836a8c631fb0b02051350ed6898b",
    "gamma_fit.json": "0ab623503d6dc20256e6b5d0f2b3f9a9f5f75bb3505cb5fc521f2ed2b9613eb6",
    "gamma_fit_high.json": "42eb91207e959a8ce262f9b59bcfc35e1bf998e9d898eaa291931eca7bbe59cd",
    "gamma_fit_low.json": "d20d865c64b8c232f97538b5fccf70886638de1242e854179fd031ffc279ff28",
    "gamma_fit_medium.json": "cf58eaca77b3b1b7d83f46b9d52be6c862a55e7abd3422279dd39dbda0d7a648",
    "gamma_trend.csv": "28ca830d8f24f3317109717695896cf2370e637937d32c5dbc0ba7ed0e44853a",
    "panel_synth.csv": "635d4671ed3c599f8506a8af41549da443d1723b0097175e1fd9f67fcabc1106",
    "pdf_R.csv": "19a159fbcf63f310f396ea1a1974fac3a547c5f03155d3142409448b00eef57b",
    "pdf_R_high.csv": "956d9b5e3f96a4e3103a2aff2b44fc5c91a6ee190e5341f294d51b12b9bcd401",
    "pdf_R_low.csv": "12faa7d66cca6ec42bf0ec52fa7d5f3f67879308885188bccdbb3aac2978d15e",
    "pdf_R_medium.csv": "7f103eb250c16a9ae046b7cb07ad7cf9abbce7832870d865e68d81a2a4cbf46b",
    "pdf_d.csv": "6c983aeaaec126e9f23011ef50c25c0a6a4c0b70907cf9543069482239b48d40",
    "pdf_d_high.csv": "63c9d34008a9d6f339906738adaf0828d8c54d5223a9d34f1693e6bcbb00e1fc",
    "pdf_d_low.csv": "d1e942b9d38ec7cd3723590c9fa8707e79f5f9be0e78351012d7349e1cca97d5",
    "pdf_d_medium.csv": "e8b4ca043c155d3aad5cd7f8350814845dfaa8ec0006dfee11b8d5e32d5f0e9e",
    "simpath.csv": "aee670197c694becd44c66ebd35e855e6e2c00b1940322a1202e2f51205d1074",
    "surface_R.csv": "8b92fed05ea0924bccdba16165585f53f9b670418ed5b2126e20d1095242f1e4",
    "surface_d.csv": "98de3a534e6689f316355896012557d8fcd943a4b38599b7872c9d6aa00e0e51",
    "surface_g.csv": "880c758aff27cdd3b1e5232788f1f222a0b7448aa5476d52c725d447e055ee0c",
    "threshold_breaches.csv": "5a39e974590f2f6b66b3382d177fc21b7ff984ab22a789b1ea440275e1f30644",
    "threshold_summary.json": "be7318520e8fef4786453276e46ae5324679cefa842495cf891e910a6c5c673e",
    "zipf_R.csv": "7e06651c2cdddb8d63e05a7b18b0a02d8483cde4e6e7af89131be55176abfa66",
    "zipf_R_high.csv": "49b58322eb95708e403a123eae4f6fecf71f5ea1d42f186327e9ff91c131a995",
    "zipf_R_low.csv": "0f8e485ce75a401d06a6c072b0518d4060460f731fc7dd5f2f636f96fb876a22",
    "zipf_R_medium.csv": "a7aab39aa909ee8dea04a20c0e902ca1feae6949e49f17ac39724d2a2e236d4e",
    "zipf_d.csv": "bb888c1d14c616167318ce48e185432a55df2c5ee9fcffffaf92696a9a014dc7",
    "zipf_d_high.csv": "887410bdef843dcfbf356a20dc5873502db502ee9969ee3c94a00a3e6a29c2eb",
    "zipf_d_low.csv": "2a9f7977b71f1ba5f43838aa823560107266bd1957643fb3c8c330649ac0e428",
    "zipf_d_medium.csv": "7b7a5f453f3db5f5f0ace5f46c0c54a21edbd5f13b71550bf0acc63d08e78208",
    "zipf_fit.json": "28ebbc19fff6b81eacbf7e72bb53aa9eba1afcebb2df1e6a61c16a1e90ea4e58",
    "zipf_fit_high.json": "a46d55dcdf01c0595dbc5bb6af4f5ade0be52365d3db6a6b9464269d7330efef",
    "zipf_fit_low.json": "27dc2daad4f79cdc915bff721d12fdf8e2e95da2390049c7c131c7d65b215b96",
    "zipf_fit_medium.json": "694f3bf9cf2442b4c7d6f098e76930124be1be576050b7394f71c5190d5344db",
}
LF_ONLY = {"budget_path.csv", "threshold_breaches.csv"}


def test_pipeline_golden_bytes(tmp_path):
    panel_path, deflator_path = _synth(tmp_path)
    out = tmp_path / "out"
    io = ["--panel", panel_path, "--deflator", deflator_path, "--out", str(out)]
    assert cli.main(["converge", *io, "--dt-max", "3"]) == 0
    assert cli.main(["dist", *io, "--bins", "8", "--group", "all"]) == 0
    assert cli.main(["scaling", *io]) == 0
    # 0.65 leaves the late years with no breach, so empty fields are written
    assert cli.main(["threshold", *io, "--threshold", "0.65"]) == 0
    assert cli.main(["simulate", "--out", str(out), "--horizon", "3",
                     "--dt-step", "0.25", "--budget-d0", "100",
                     "--budget-deficit", "10"]) == 0
    files = [*(tmp_path / "synth").iterdir(), *out.iterdir()]
    assert sorted(f.name for f in files) == sorted(GOLDEN_SHA256)
    for f in files:
        data = f.read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[f.name], f.name
        if f.suffix != ".csv":
            continue
        # the stamp line ends in "\n"; rows in "\r\n", or "\n" in LF_ONLY
        stamp, *rows, last = data.split(b"\n")
        assert stamp.startswith(b"# debtkit ") and not stamp.endswith(b"\r")
        assert last == b""
        assert {row.endswith(b"\r") for row in rows} == {
            f.name not in LF_ONLY}, f.name


# -------------------------------------------------------------- exit codes

def test_missing_input_file_names_path(tmp_path, capsys):
    rc = cli.main(["converge", "--panel", str(tmp_path / "nope.csv"),
                   "--deflator", str(tmp_path / "nope2.csv"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "nope" in capsys.readouterr().err


def test_usage_errors_exit_one(tmp_path, small_panel, capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["converge"]) == 1  # missing required flags
    assert cli.main(["dist", "--panel", "p", "--deflator", "d", "--out", "o",
                     "--group", "royalty"]) == 1
    capsys.readouterr()
    assert cli.main(["synth", "--out", str(tmp_path / "o"), "--n-countries",
                     "3", "--years", "1:10001"]) == 1
    assert "10000 years" in capsys.readouterr().err
    # each range is short enough, but together they name 30,000 years
    assert cli.main(["synth", "--out", str(tmp_path / "o"), "--n-countries",
                     "3", "--years", "0:9999,10000:19999,20000:29999"]) == 1
    assert "10000 years" in capsys.readouterr().err
    # two years, but synth evolves the panel through every year between
    assert cli.main(["synth", "--out", str(tmp_path / "o"), "--n-countries",
                     "3", "--years", "0,10000"]) == 1
    assert "10000 years" in capsys.readouterr().err
    # each flag is within its own cap, but not their product of country-years
    for n_countries, years in (("17576", "0:9999"), ("1001", "1:10000")):
        assert cli.main(["synth", "--out", str(tmp_path / "o"), "--n-countries",
                         n_countries, "--years", years]) == 1
        assert "more than 10000000 country-years" in capsys.readouterr().err
    for population in ("nan", "inf", "0"):
        assert cli.main(["synth", "--out", str(tmp_path / "o"), "--years",
                         "2000:2001", "--population", population]) == 1
        assert "--population" in capsys.readouterr().err
    for argv, expected in (
            (["--alpha", "nan"], "--alpha must be finite"),
            (["--beta", "nan"], "--beta must be finite"),
            (["--beta", "1"], "--beta must be finite and < 1"),
            (["--scaling-gamma", "nan"], "--scaling-gamma must be finite"),
            (["--sigma", "nan"], "--sigma must be finite and >= 0"),
            (["--sigma", "-1"], "--sigma must be finite and >= 0"),
            (["--a-prefactor", "nan"], "--a-prefactor must be finite and > 0"),
            (["--a-prefactor", "0"], "--a-prefactor must be finite and > 0"),
            (["--log-d0-range", "0", "inf"], "--log-d0-range must be"),
            (["--log-d0-range", "nan", "1"], "--log-d0-range must be"),
            (["--log-d0-range", "2", "2"], "--log-d0-range must be"),
            # finite ends whose span HI - LO overflows to inf
            (["--log-d0-range", " -1e308", "1e308"], "--log-d0-range must be")):
        assert cli.main(["synth", "--out", str(tmp_path / "o"), "--years",
                         "2000:2001", *argv]) == 1
        assert expected in capsys.readouterr().err
    # analysis flags are checked before any file is written, and all but
    # converge --years before the panel is read
    panel_path, deflator_path = small_panel
    io = ["--panel", panel_path, "--deflator", deflator_path,
          "--out", str(tmp_path / "o")]
    for argv, expected in (
            (["converge", "--r2-min", "nan"], "--r2-min must be finite"),
            (["converge", "--r2-min=-inf"], "--r2-min must be finite"),
            (["converge", "--dt-max", "10001"], "--dt-max must be in [1, 10000]"),
            (["converge", "--years", "2001"], "--years has no initial year "
             "before the panel's last year 2001"),
            (["dist", "--bins", "1000001"], "--bins must be in [1, 1000000]"),
            (["dist", "--rank-window", "0", "5"], "--rank-window"),
            (["dist", "--rank-window", "3", "2"], "--rank-window"),
            (["threshold", "--threshold", "nan"], "--threshold must be finite"),
            (["threshold", "--threshold", "inf"], "--threshold must be finite")):
        assert cli.main([*argv[:1], *io, *argv[1:]]) == 1
        assert expected in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_parse_years():
    assert cli._parse_years("1990:1992, 1980,1991") == [1980, 1990, 1991, 1992]
    assert cli._parse_years("5:10004") == list(range(5, 10005))  # 10000 years
    for text in ("1992:1990", "1:10001", ",", "19x0",
                 "0:9999,10000:19999,20000:29999", str(2 ** 63)):
        with pytest.raises(ValueError):
            cli._parse_years(text)


def test_bad_model_params_exit_one(tmp_path, capsys):
    rc = cli.main(["simulate", "--out", str(tmp_path / "o"),
                   "--gamma", "5.0"])
    assert rc == 1
    assert "gamma" in capsys.readouterr().err
    # the budget horizon rounds to 0 years: rejected before simpath.csv
    rc = cli.main(["simulate", "--out", str(tmp_path / "o"),
                   "--horizon", "0.4", "--budget-d0", "1.0"])
    assert rc == 1
    assert "horizon" in capsys.readouterr().err
    # non-finite model and budget flags are rejected before any file is written
    for flag, name in (("--c", "c"), ("--gamma", "gamma"), ("--r-pop", "r_pop"),
                       ("--d0", "d0"), ("--dt-step", "dt_step"),
                       ("--budget-d0", "d0"), ("--budget-interest", "interest"),
                       ("--budget-deficit", "primary_deficit")):
        for value in ("nan", "inf"):
            budget = [] if flag == "--budget-d0" else ["--budget-d0", "1.0"]
            rc = cli.main(["simulate", "--out", str(tmp_path / "o"),
                           "--horizon", "1", flag, value, *budget])
            assert rc == 1
            assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_data_error_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    d = tmp_path / "defl.csv"
    d.write_text("year,deflator\n2000,1.0\n")
    # the last GDP is longer than the csv module's field limit
    for row in ("US,2000,1e9,1e8,1e6,HIGH", "USA,2000,nan,1e8,1e6,HIGH",
                f"USA,2000,{'1' * 200_000},1e8,1e6,HIGH"):
        p.write_text(PANEL_HEADER + f"\n{row}\n")
        rc = cli.main(["converge", "--panel", str(p), "--deflator", str(d),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["panel", "deflator"])
def test_non_utf8_input_exits_two(tmp_path, small_panel, capsys, bad):
    paths = dict(zip(["panel", "deflator"], small_panel))
    with open(paths[bad], "ab") as f:
        f.write(b"\xff\n")
    rc = cli.main(["dist", "--panel", paths["panel"], "--deflator",
                   paths["deflator"], "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    line = {"panel": 10, "deflator": 4}[bad]  # the appended line
    assert f"data error: line {line}: {paths[bad]}: not UTF-8 text" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bom", ["panel", "deflator"])
def test_bom_input_reads_as_without(tmp_path, small_panel, capsys, bom):
    # a leading UTF-8 byte-order mark, as spreadsheet tools write, is dropped
    paths = dict(zip(["panel", "deflator"], small_panel))
    plain = tmp_path / "plain"
    argv = ["threshold", "--panel", paths["panel"], "--deflator",
            paths["deflator"]]
    assert cli.main([*argv, "--out", str(plain)]) == 0
    path = tmp_path / f"{bom}.csv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
    for f in plain.iterdir():
        assert (tmp_path / "o" / f.name).read_bytes() == f.read_bytes()


def test_synth_overflowing_rows_exit_two(tmp_path, capsys):
    # finite flags whose generated amounts overflow fail the row rules
    out = tmp_path / "o"
    for argv in (["--a-prefactor", "1e308"], ["--log-d0-range", "700", "701"]):
        assert cli.main(["synth", "--out", str(out), "--n-countries", "3",
                         "--years", "2000:2001", *argv]) == 2
        assert "AAA 2000: " in capsys.readouterr().err
        assert not out.exists()


def test_synth_overflow_raises_no_numpy_warning(tmp_path):
    # inf and NaN from overflowing model values are left to the row rules
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, (argv, code) in enumerate((
                (["--a-prefactor", "1e308"], 2),
                (["--alpha", "800"], 2),
                (["--log-d0-range", "700", "701"], 2),
                (["--a-prefactor", "1e-320"], 0))):
            assert cli.main(["synth", "--out", str(tmp_path / f"o{i}"),
                             "--n-countries", "3", "--years", "2000:2001",
                             *argv]) == code


@pytest.mark.parametrize("command", ["converge", "dist", "scaling", "threshold"])
def test_header_only_panel_exits_two(tmp_path, capsys, command):
    panel_path, deflator_path = _write_panel(tmp_path, [])
    rc = cli.main([command, "--panel", panel_path, "--deflator", deflator_path,
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "no data rows" in capsys.readouterr().err


def test_numerical_error_exits_three(tmp_path, capsys):
    # identical debt levels at the start year make log d constant: the
    # regression design matrix is degenerate, a numerical failure
    constant_d = [
        "AAA,2000,1e9,5e8,1e6,LOW",
        "BBB,2000,2e9,5e8,1e6,LOW",
        "CCC,2000,4e9,5e8,1e6,LOW",
        "AAA,2001,1e9,4e8,1e6,LOW",
        "BBB,2001,2e9,6e8,1e6,LOW",
        "CCC,2001,4e9,7e8,1e6,LOW",
    ]
    # d varies but g is constant in 2000: the d surface fits, the g one fails
    constant_g = [
        "AAA,2000,1e9,5e8,1e6,LOW",
        "BBB,2000,1e9,6e8,1e6,LOW",
        "CCC,2000,1e9,7e8,1e6,LOW",
        "AAA,2001,1e9,4e8,1e6,LOW",
        "BBB,2001,2e9,6e8,1e6,LOW",
        "CCC,2001,4e9,9e8,1e6,LOW",
    ]
    for name, rows in (("d", constant_d), ("g", constant_g)):
        panel_path, deflator_path = _write_panel(tmp_path, rows)
        out = tmp_path / f"out_{name}"
        rc = cli.main(["converge", "--panel", panel_path,
                       "--deflator", deflator_path, "--out", str(out),
                       "--years", "2000", "--dt-max", "1"])
        assert rc == 3
        assert "numerical" in capsys.readouterr().err
        # every surface is fitted before any is written
        assert not list(out.glob("surface_*.csv"))


@pytest.mark.parametrize("command, debt, code, message", [
    # R near 1e300: the variance of the gamma fit's moment start overflows
    ("dist", "{i}e299", 3, "numerical failure: gamma shape start"),
    ("threshold", "{i}e299", 3, "numerical failure: gamma shape start"),
    # no positive debt leaves the default Zipf window empty
    ("dist", "0.0", 2, "data error: d has 0 positive values"),
])
def test_failed_fit_leaves_no_out_dir(tmp_path, capsys, command, debt, code,
                                      message):
    rows = [f"{c}{c}{c},2000,1.0,{debt.format(i=i)},1.0,LOW"
            for i, c in enumerate("ABCDEF", start=1)]
    panel_path, deflator_path = _write_panel(tmp_path, rows)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--panel", panel_path,
                       "--deflator", deflator_path, "--out", str(out)])
    assert rc == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["converge", "dist", "scaling", "threshold"])
@pytest.mark.parametrize("row, message", [
    # population 1e-300: debt and GDP per person overflow to inf
    ("AAA,2001,3e9,2e8,1e-300,HIGH", "AAA 2001: d is not finite (inf)"),
    # d and g stay finite, but debt over GDP overflows
    ("AAA,2001,1e-20,1e300,1e6,HIGH", "AAA 2001: R is not finite (inf)"),
])
def test_overflowing_per_capita_value_exits_two(tmp_path, capsys, command,
                                                 row, message):
    rows = [f"{c}{c}{c},{year},{i * (year - 1990)}e8,{i}e8,1e6,HIGH"
            for i, c in enumerate("BCDEF", start=2)
            for year in (2000, 2001, 2002)]
    rows += [f"AAA,{year},3e9,1e8,1e6,HIGH" for year in (2000, 2002)] + [row]
    panel_path, deflator_path = _write_panel(tmp_path, rows,
                                             (2000, 2001, 2002))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--panel", panel_path,
                       "--deflator", deflator_path, "--out", str(out)])
    assert rc == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not out.exists()
