"""Panel ingestion, validation, and per-capita normalization tests."""

import csv
import math
import string
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debtkit import errors, panel

PANEL_HEADER = ("country_code,year,gdp_nominal_usd,debt_nominal_usd,"
                "population,income_group")
DEFLATOR_HEADER = "year,deflator"

DEFLATOR_TEXT = "\n".join([
    DEFLATOR_HEADER,
    "1999,0.95",
    "2000,1.0",
    "2001,1.25",
    "",
])

PANEL_TEXT = "\n".join([
    PANEL_HEADER,
    "USA,2000,10000000000.0,5000000000.0,1000000.0,HIGH",
    "USA,2001,12000000000.0,3000000000.0,1200000.0,HIGH",
    "BRA,2000,2000000000.0,1500000000.0,500000.0,MEDIUM",
    "BRA,2001,2500000000.0,0.0,500000.0,MEDIUM",
    "",
])


@pytest.fixture
def paths(tmp_path):
    p = tmp_path / "panel.csv"
    d = tmp_path / "deflator.csv"
    p.write_text(PANEL_TEXT)
    d.write_text(DEFLATOR_TEXT)
    return p, d


def test_ingest_accepts_valid_panel(paths):
    p, d = paths
    pl = panel.ingest_csv(p, d)
    assert len(pl.records) == 4
    assert pl.years() == [2000, 2001]
    assert pl.records.country_code[0] == "USA"
    assert pl.records.income_group[0] is panel.IncomeGroup.HIGH


def test_ingest_skips_comments_and_blank_lines(paths, tmp_path):
    p, d = paths
    commented = tmp_path / "commented.csv"
    commented.write_text("# generated by a tool\n\n" + PANEL_TEXT)
    pl = panel.ingest_csv(commented, d)
    assert len(pl.records) == 4


def test_normalize_arithmetic(paths):
    p, d = paths
    obs = panel.normalize(panel.ingest_csv(p, d))
    row_of = {key: i for i, key in enumerate(zip(obs.country_code.tolist(),
                                                  obs.year.tolist()))}

    # base year: deflator 1.0, so d = debt/pop/1e3 exactly
    usa = row_of[("USA", 2000)]
    assert obs.d[usa] == pytest.approx(5e9 / 1e6 / 1e3, rel=1e-12)  # 5.0
    assert obs.g[usa] == pytest.approx(10.0, rel=1e-12)
    assert obs.ratio_R[usa] == pytest.approx(0.5, rel=1e-12)

    # 2001: deflator 1.25 shrinks real amounts; R uses nominals so no deflator
    usa1 = row_of[("USA", 2001)]
    assert obs.d[usa1] == pytest.approx(3e9 / 1.25 / 1.2e6 / 1e3,
                                        rel=1e-12)  # 2.0
    assert obs.g[usa1] == pytest.approx(8.0, rel=1e-12)
    assert obs.ratio_R[usa1] == pytest.approx(0.25, rel=1e-12)


def test_ratio_independent_of_deflator(paths, tmp_path):
    p, d = paths
    other = tmp_path / "deflator2.csv"
    other.write_text("\n".join([DEFLATOR_HEADER, "1999,0.5", "2000,1.0",
                                "2001,3.0", ""]))
    obs_a = panel.normalize(panel.ingest_csv(p, d))
    obs_b = panel.normalize(panel.ingest_csv(p, other))
    for a, b in zip(obs_a.ratio_R, obs_b.ratio_R):
        assert a == b


def test_zero_debt_is_allowed(paths):
    p, d = paths
    obs = panel.normalize(panel.ingest_csv(p, d))
    bra = np.flatnonzero((obs.country_code == "BRA") & (obs.year == 2001))[0]
    assert obs.d[bra] == 0.0
    assert obs.ratio_R[bra] == 0.0


def _ingest_variant(tmp_path, row, deflator_text=DEFLATOR_TEXT):
    p = tmp_path / "bad_panel.csv"
    d = tmp_path / "bad_deflator.csv"
    p.write_text("\n".join([PANEL_HEADER,
                            "USA,2000,1e9,1e8,1000.0,HIGH", row, ""]))
    d.write_text(deflator_text)
    return panel.ingest_csv(p, d)


def test_malformed_row_reports_line_number(tmp_path):
    with pytest.raises(errors.MalformedRow, match="line 3"):
        _ingest_variant(tmp_path, "BRA,2000,1e9,1e8,1000.0")  # 5 fields
    text = "\n".join([DEFLATOR_HEADER, "2000,1.0", "2001,1.25,7", ""])
    with pytest.raises(errors.MalformedRow, match="line 3: expected 2 fields"):
        _ingest_variant(tmp_path, "BRA,2000,1e9,1e8,1000.0,LOW",
                        deflator_text=text)


def test_bad_country_code_rejected(tmp_path):
    with pytest.raises(errors.MalformedRow, match="3-letter"):
        _ingest_variant(tmp_path, "B1,2000,1e9,1e8,1000.0,LOW")


def test_bad_income_group_rejected(tmp_path):
    with pytest.raises(errors.MalformedRow, match="income_group"):
        _ingest_variant(tmp_path, "BRA,2000,1e9,1e8,1000.0,RICH")


def test_unparseable_number_rejected(tmp_path):
    with pytest.raises(errors.MalformedRow, match="line 3"):
        _ingest_variant(tmp_path, "BRA,2000,abc,1e8,1000.0,LOW")
    for row in ("2001.5,1.25", "2001,abc", f"{2 ** 63},1.25"):
        text = "\n".join([DEFLATOR_HEADER, "2000,1.0", row, ""])
        with pytest.raises(errors.MalformedRow, match="line 3"):
            _ingest_variant(tmp_path, "BRA,2000,1e9,1e8,1000.0,LOW",
                            deflator_text=text)


def test_nonpositive_population_rejected(tmp_path):
    for population in ("0.0", "nan", "inf"):
        with pytest.raises(errors.NonPositive, match="line 3: .*population"):
            _ingest_variant(tmp_path, f"BRA,2000,1e9,1e8,{population},LOW")


def test_nonpositive_gdp_rejected(tmp_path):
    for gdp in ("-1e9", "nan", "inf"):
        with pytest.raises(errors.NonPositive, match="line 3: .*gdp"):
            _ingest_variant(tmp_path, f"BRA,2000,{gdp},1e8,1000.0,LOW")


def test_negative_debt_rejected(tmp_path):
    for debt in ("-1.0", "nan", "inf"):
        with pytest.raises(errors.NonPositive, match="line 3: .*debt"):
            _ingest_variant(tmp_path, f"BRA,2000,1e9,{debt},1000.0,LOW")


def test_duplicate_country_year_rejected(tmp_path):
    with pytest.raises(errors.DuplicateKey, match="line 3"):
        _ingest_variant(tmp_path, "USA,2000,2e9,1e8,1000.0,HIGH")
    text = "\n".join([DEFLATOR_HEADER, "2000,1.0", "2000,1.0", ""])
    with pytest.raises(errors.DuplicateKey,
                       match="^line 3: duplicate deflator year 2000$"):
        _ingest_variant(tmp_path, "BRA,2000,1e9,1e8,1000.0,LOW",
                        deflator_text=text)


def test_missing_deflator_year_rejected(tmp_path):
    with pytest.raises(errors.MissingDeflator, match="1984"):
        _ingest_variant(tmp_path, "BRA,1984,1e9,1e8,1000.0,LOW")
    # a hand-built Panel is not validated; normalize still needs the deflator
    records = panel.RecordColumns.from_rows(
        [("BRA", 1984, 1e9, 1e8, 1000.0, panel.IncomeGroup.LOW)])
    deflator = panel.DeflatorSeries(values={panel.BASE_YEAR: 1.0})
    with pytest.raises(errors.MissingDeflator, match="1984"):
        panel.normalize(panel.Panel(records=records, deflator=deflator))


def test_wrong_panel_header_rejected(tmp_path):
    p = tmp_path / "p.csv"
    d = tmp_path / "d.csv"
    p.write_text("code,year\nUSA,2000\n")
    d.write_text(DEFLATOR_TEXT)
    with pytest.raises(errors.MalformedRow, match="line 1: .*expected header"):
        panel.ingest_csv(p, d)
    # the first line that is neither blank nor a comment is the header
    d.write_text("# stamp\n\nyear,value\n2000,1.0\n")
    p.write_text(PANEL_TEXT)
    with pytest.raises(errors.MalformedRow, match="line 3: .*expected header"):
        panel.ingest_csv(p, d)
    # a file of comments and blanks has no header line to name
    d.write_text(DEFLATOR_TEXT)
    p.write_text("# stamp only\n\n  # indented comment\n")
    with pytest.raises(errors.MalformedRow, match="expected header") as info:
        panel.ingest_csv(p, d)
    assert info.value.line is None


def test_deflator_missing_base_year_rejected(tmp_path):
    text = "\n".join([DEFLATOR_HEADER, "1999,0.95", "2001,1.25", ""])
    with pytest.raises(errors.MissingDeflator, match="2000"):
        _ingest_variant(tmp_path, "BRA,2001,1e9,1e8,1000.0,LOW",
                        deflator_text=text)


def test_deflator_base_year_must_be_one(tmp_path):
    text = "\n".join([DEFLATOR_HEADER, "2000,1.1", ""])
    with pytest.raises(errors.MalformedRow, match="exactly 1.0"):
        _ingest_variant(tmp_path, "BRA,2000,1e9,1e8,1000.0,LOW",
                        deflator_text=text)


def test_nonpositive_deflator_rejected(tmp_path):
    for value in ("-0.5", "nan", "inf"):
        text = "\n".join([DEFLATOR_HEADER, "2000,1.0", f"2001,{value}", ""])
        with pytest.raises(errors.NonPositive, match="line 3: .*2001"):
            _ingest_variant(tmp_path, "BRA,2000,1e9,1e8,1000.0,LOW",
                            deflator_text=text)
        with pytest.raises(errors.NonPositive, match="2001"):
            panel.DeflatorSeries(values={2000: 1.0, 2001: float(value)})


def test_income_group_parsed_case_insensitively(tmp_path):
    pl = _ingest_variant(tmp_path, "BRA,2000,1e9,1e8,1000.0,low")
    assert pl.records.income_group[1] is panel.IncomeGroup.LOW


def test_cross_section_sorted_by_country(paths):
    p, d = paths
    obs = panel.normalize(panel.ingest_csv(p, d))
    section = panel.cross_section(obs, 2000, panel.Variable.RATIO_R)
    assert list(section) == ["BRA", "USA"]
    assert section["USA"] == pytest.approx(0.5)
    with pytest.raises(errors.EmptyCrossSection):
        panel.cross_section(obs, 1850, "R")


def test_as_variable():
    # a reader takes a Variable or its short code, and rejects any other
    obs = panel.PanelColumns.from_rows(
        [("USA", 2000, 1.0, 2.0, 0.5, panel.IncomeGroup.HIGH)])
    assert (panel.cross_section(obs, 2000, "d")
            == panel.cross_section(obs, 2000, panel.Variable.DEBT_PER_CAPITA)
            == {"USA": 1.0})
    assert panel.cross_section(obs, 2000, panel.Variable.RATIO_R) == {
        "USA": 0.5}
    with pytest.raises(ValueError, match="'x' is not a valid Variable"):
        panel.cross_section(obs, 2000, "x")


def test_package_exports_resolve():
    import debtkit
    namespace = {}
    exec("from debtkit import *", namespace)
    assert set(debtkit.__all__) <= namespace.keys()


def test_filter_income_group(paths):
    p, d = paths
    obs = panel.normalize(panel.ingest_csv(p, d))
    high = panel.filter_income_group(obs, panel.IncomeGroup.HIGH)
    assert set(high.country_code) == {"USA"}
    assert len(panel.filter_income_group(obs, panel.IncomeGroup.LOW)) == 0


def test_ratio_times_gdp_recovers_debt(paths):
    # deflator and population cancel in R, so R * g == d in normalized units
    p, d = paths
    obs = panel.normalize(panel.ingest_csv(p, d))
    for ratio_R, g, debt in zip(obs.ratio_R, obs.g, obs.d):
        assert math.isclose(ratio_R * g, debt, rel_tol=1e-12)


def test_filter_commutes_with_normalize(paths):
    p, d = paths
    pl = panel.ingest_csv(p, d)
    group = panel.IncomeGroup.MEDIUM

    filtered_first = panel.normalize(
        panel.Panel(
            records=panel.RecordColumns.from_rows(
                row for row in _rows(pl.records) if row[5] == group),
            deflator=pl.deflator,
        )
    )
    normalized_first = panel.filter_income_group(panel.normalize(pl), group)
    assert _rows(filtered_first) == _rows(normalized_first)
    assert filtered_first  # guard against trivially passing on empty output


def test_write_and_reingest_roundtrip(paths, tmp_path):
    p, d = paths
    pl = panel.ingest_csv(p, d)
    obs = panel.normalize(pl)

    out_p = tmp_path / "roundtrip_panel.csv"
    out_d = tmp_path / "roundtrip_deflator.csv"
    records = panel.records_from_observations(obs, population=2e6)
    deflator = panel.DeflatorSeries(values={2000: 1.0, 2001: 1.0})
    panel.write_panel_csv(out_p, records, header_comment="unit test")
    panel.write_deflator_csv(out_d, deflator, header_comment="unit test")

    again = panel.normalize(panel.ingest_csv(out_p, out_d))
    assert len(again) == len(obs)
    for before, after in zip(_rows(obs), _rows(again)):
        code, year, d, g, ratio_R, group = before
        assert after[:2] == (code, year)
        # unit deflator and shared population reproduce d, g, R exactly
        assert math.isclose(after[2], d, rel_tol=1e-12)
        assert math.isclose(after[3], g, rel_tol=1e-12)
        assert math.isclose(after[4], ratio_R, rel_tol=1e-12)
        assert after[5] == group


_POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)

# rows of (country_code, year, gdp, debt, population, income_group)
_RECORDS = st.lists(
    st.tuples(st.text(string.ascii_uppercase, min_size=3, max_size=3),
              st.integers(1800, 2100), _POSITIVE,
              st.floats(min_value=0.0, max_value=1e300), _POSITIVE,
              st.sampled_from(panel.IncomeGroup)),
    max_size=30, unique_by=lambda row: row[:2])


def _rows(columns):
    """The rows of a RecordColumns or PanelColumns as tuples of Python
    values."""
    return list(zip(*(column.tolist() for column in columns.columns())))


@settings(derandomize=True, database=None)
@given(records=_RECORDS, data=st.data())
def test_written_panel_reads_back_equal(records, data):
    years = sorted({row[1] for row in records} | {panel.BASE_YEAR})
    values = {year: data.draw(_POSITIVE) for year in years}
    values[panel.BASE_YEAR] = 1.0
    deflator = panel.DeflatorSeries(values=values)
    stamp = "debtkit 0.1.0 config=000000000000 log=natural"
    with tempfile.TemporaryDirectory() as tmp:
        p, d = Path(tmp) / "panel.csv", Path(tmp) / "deflator.csv"
        panel.write_panel_csv(p, panel.RecordColumns.from_rows(records),
                              header_comment=stamp)
        panel.write_deflator_csv(d, deflator, header_comment=stamp)
        again = panel.ingest_csv(p, d)
    assert _rows(again.records) == records
    assert again.deflator.values == deflator.values


# ------------------------------------------- columns against row references

def _normalize_rows(records, series):
    """The earlier normalize, one observation row per record: the
    reference."""
    out = []
    for code, year, gdp, debt, population, group in records:
        deflator = series.value(year)
        out.append((code, year,
                    debt / deflator / population / 1e3,
                    gdp / deflator / population / 1e3,
                    debt / gdp,
                    group))
    return out


def _bits(rows):
    """Observation rows with each float as its hex: -0.0 differs from 0.0."""
    return [(code, year, d.hex(), g.hex(), ratio_R.hex(), group)
            for code, year, d, g, ratio_R, group in rows]


# every finite positive float, subnormals and the largest included
_ANY_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(derandomize=True, database=None)
@given(records=st.lists(st.tuples(
           st.sampled_from(["USA", "BRA", "JPN"]),
           st.sampled_from([1999, 2000, 2001]),
           _ANY_POSITIVE,
           st.one_of(st.sampled_from([0.0, -0.0]), _ANY_POSITIVE),
           _ANY_POSITIVE,
           st.sampled_from(panel.IncomeGroup)), max_size=20),
       deflators=st.tuples(_ANY_POSITIVE, _ANY_POSITIVE))
@example(records=[("USA", 2000, 2e9, 1e8, 1e6, panel.IncomeGroup.HIGH),
                  ("BRA", 1999, 1e300, 0.0, 1e-10, panel.IncomeGroup.LOW),
                  ("JPN", 2000, 1e-20, 1e300, 1.0, panel.IncomeGroup.LOW)],
         deflators=(1.0, 1.0))
def test_normalize_columns_bitwise_equal_row_loop(records, deflators):
    deflator = panel.DeflatorSeries(
        values={1999: deflators[0], 2000: 1.0, 2001: deflators[1]})
    pl = panel.Panel(records=panel.RecordColumns.from_rows(records),
                     deflator=deflator)
    expected = _normalize_rows(records, deflator)
    overflow = next(((code, year, name, value) for code, year, *values, _
                     in expected for name, value in zip("dgR", values)
                     if not math.isfinite(value)), None)
    if overflow is None:
        assert _bits(_rows(panel.normalize(pl))) == _bits(expected)
    else:  # the first row in input order, and its first value not finite
        code, year, name, value = overflow
        with pytest.raises(errors.NonFiniteValue,
                           match=f"^{code} {year}: {name} is not finite "
                                 f"\\({value!r}\\)$"):
            panel.normalize(pl)


@dataclass(frozen=True)
class _CountryYearRecord:
    """The earlier row type, whose value rules ran on construction."""

    country_code: str
    year: int
    gdp_nominal: float
    debt_nominal: float
    population: float
    income_group: panel.IncomeGroup

    def __post_init__(self):
        if len(self.country_code) != 3 or not self.country_code.isalpha():
            raise errors.MalformedRow(
                f"country_code {self.country_code!r} is not a 3-letter code")
        if not 0 < self.population < math.inf:
            raise errors.NonPositive(f"{self.country_code} {self.year}: "
                                     "population must be finite and > 0")
        if not 0 < self.gdp_nominal < math.inf:
            raise errors.NonPositive(f"{self.country_code} {self.year}: "
                                     "gdp_nominal must be finite and > 0")
        if not 0 <= self.debt_nominal < math.inf:
            raise errors.NonPositive(f"{self.country_code} {self.year}: "
                                     "debt_nominal must be finite and >= 0")


def _write_records_rows(path, obs, population, header_comment):
    """The earlier records_from_observations and write_panel_csv, one record
    per row: the reference."""
    rows = zip(obs.country_code.tolist(), obs.year.tolist(),
               (obs.g * 1e3 * population).tolist(),
               (obs.d * 1e3 * population).tolist(),
               obs.income_group.tolist())
    records = [_CountryYearRecord(code, year, gdp, debt, population, group)
               for code, year, gdp, debt, group in rows]
    panel.write_table(path, panel.PANEL_HEADER, list(zip(*(
        (rec.country_code, rec.year, rec.gdp_nominal, rec.debt_nominal,
         rec.population, rec.income_group.value) for rec in records))),
        header_comment)


def _write_records_columns(path, obs, population, header_comment):
    panel.write_panel_csv(path, panel.records_from_observations(obs, population),
                          header_comment=header_comment)


def _outcome(write, path, obs, population):
    """The bytes write puts at path, or the class and message it raises."""
    try:
        with np.errstate(all="ignore"):
            write(path, obs, population, "unit test")
    except errors.DebtkitError as exc:
        return type(exc), str(exc), path.exists()
    return path.read_bytes()


# 0.0, -0.0, subnormal and near-max magnitudes, NaN and infinities
_ANY_FLOAT = st.one_of(st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2e-308, 1.7976931348623157e308, math.nan,
     math.inf, -math.inf]), st.floats())


def _observations(codes, amounts):
    """Observation rows: country_code, year, d, g, ratio_R, income_group."""
    return st.tuples(
        st.sampled_from(codes),
        st.one_of(st.just(2000), st.integers(-2 ** 63, 2 ** 63 - 1)),
        amounts, amounts, st.just(0.5), st.sampled_from(panel.IncomeGroup))


# rows that pass the rules whenever the population does, and any rows
_ROWS_TO_WRITE = st.lists(st.one_of(
    _observations(["USA", "BRA"], st.one_of(
        st.sampled_from([5e-324, 1e-300, 1.0, 1e290]),
        st.floats(min_value=1e-300, max_value=1e290))),
    _observations(["USA", "BRA", "A1B", "AB"], _ANY_FLOAT)), max_size=8)


@settings(derandomize=True, database=None)
@given(rows=_ROWS_TO_WRITE,
       population=st.one_of(st.sampled_from([1e6, 2, 0, -1, 10 ** 30]),
                            st.integers(), _ANY_FLOAT))
def test_records_from_observations_writes_as_row_records(rows, population,
                                                         tmp_path_factory):
    obs = panel.PanelColumns.from_rows(rows)
    tmp = tmp_path_factory.mktemp("records")
    assert _outcome(_write_records_columns, tmp / "columns.csv", obs,
                    population) == _outcome(_write_records_rows,
                                            tmp / "rows.csv", obs, population)


_FINITE_OR_INF = st.floats(allow_nan=False)

# observation rows; duplicate keys are likely, and codes may end in NUL
_OBSERVATIONS = st.lists(st.tuples(
    st.one_of(st.sampled_from(["AAA", "AAA\x00", "\x00", ""]),
              st.text(max_size=5)),
    st.one_of(st.sampled_from([1999, 2000]),
              st.integers(-2 ** 63, 2 ** 63 - 1)),
    _FINITE_OR_INF, _FINITE_OR_INF, _FINITE_OR_INF,
    st.sampled_from(panel.IncomeGroup)), max_size=20)


@settings(derandomize=True, database=None)
@given(rows=_OBSERVATIONS)
def test_panel_columns_round_trip_rows(rows):
    columns = panel.PanelColumns.from_rows(rows)
    assert len(columns) == len(rows)
    assert _rows(columns) == rows
    assert _bits(_rows(columns)) == _bits(rows)  # -0.0 stays -0.0


@settings(derandomize=True, database=None)
@given(rows=_OBSERVATIONS)
def test_filter_income_group_equals_row_filter(rows):
    columns = panel.PanelColumns.from_rows(rows)
    for group in panel.IncomeGroup:
        assert _rows(panel.filter_income_group(columns, group)) == [
            row for row in rows if row[5] == group]


# ---------------------------------------------- first error wins in ingest

# fault -> the class ingest_csv raises for it
_FAULTS = {"code": errors.MalformedRow, "number": errors.MalformedRow,
           "population": errors.NonPositive, "debt": errors.NonPositive,
           "group": errors.MalformedRow, "duplicate": errors.DuplicateKey,
           "year": errors.MissingDeflator}


def _corrupt(fields, fault, first, draw):
    """Give one row's fields one fault; first is the (valid) first row."""
    if fault == "code":
        fields[0] = draw(st.sampled_from(["A1B", "AB", "ABCD", ""]))
    elif fault == "number":
        fields[draw(st.integers(1, 4))] = draw(st.sampled_from(
            ["abc", "1.5.0", ""]))
    elif fault == "population":
        fields[4] = draw(st.sampled_from(["0.0", "-5", "nan"]))
    elif fault == "debt":
        fields[3] = draw(st.sampled_from(["-1.0", "-1e-300"]))
    elif fault == "group":
        fields[5] = "RICH"
    elif fault == "duplicate":
        fields[:2] = first[:2]
    else:
        fields[1] = "1984"


@settings(derandomize=True, database=None)
@given(data=st.data())
def test_ingest_names_first_corrupted_line(data, tmp_path_factory):
    draw = data.draw
    n_rows = draw(st.integers(2, 8))
    amount = st.floats(min_value=1.0, max_value=1e12)
    rows = [[string.ascii_uppercase[i] * 3, str(2000 + i % 2),
             repr(draw(amount)), repr(draw(amount)), repr(draw(amount)),
             draw(st.sampled_from(["LOW", "medium", "HIGH"]))]
            for i in range(n_rows)]
    bad = draw(st.lists(st.integers(1, n_rows - 1), min_size=1, max_size=2,
                        unique=True))
    faults = [draw(st.sampled_from(sorted(_FAULTS))) for _ in bad]
    for i, fault in zip(bad, faults):
        _corrupt(rows[i], fault, rows[0], draw)
    first_bad, first_fault = min(zip(bad, faults))

    tmp = tmp_path_factory.mktemp("corrupt")
    p, d = tmp / "panel.csv", tmp / "deflator.csv"
    p.write_text("\n".join([PANEL_HEADER, *map(",".join, rows), ""]))
    d.write_text(DEFLATOR_TEXT)
    with pytest.raises(errors.IngestionError) as info:
        panel.ingest_csv(p, d)
    assert type(info.value) is _FAULTS[first_fault]
    assert info.value.line == first_bad + 2  # the header is line 1


# --------------------------------------- columnar pass against the row loop

def _column_bits(records):
    """Each column's dtype and values: floats as hex, objects with their
    type, so that -0.0, NaN payloads and np.str_ all count."""
    return [(column.dtype, [(type(x), x.hex() if isinstance(x, float) else x)
                            for x in column.tolist()])
            for column in records.columns()]


def _ingested(ingest):
    """The bits of ingest()'s records, or the class, message and line of the
    IngestionError it raises."""
    try:
        return _column_bits(ingest())
    except errors.IngestionError as exc:
        return type(exc), str(exc), exc.line


# a valid panel whose every line is odd: comments, blanks, spaces, case, CRLF
_ODD_VALID_PANEL = "\r\n".join([
    "# stamp", "", " country_code , year,gdp_nominal_usd,debt_nominal_usd,"
    "population,income_group ", " usa ,2_000,1_000,-0.0, 7 ,high", "\t",
    "  # indented", "\tbra\t, 2001 ,1e9,1e8,1000.0, Medium ", ""])


def test_valid_panel_never_reaches_row_loop(paths, monkeypatch, tmp_path):
    p, d = paths
    odd = tmp_path / "odd.csv"
    odd.write_text(_ODD_VALID_PANEL, newline="")
    deflator = panel._parse_deflator_csv(d)
    expected = [_column_bits(panel._ingest_rows(path, deflator))
                for path in (p, odd)]

    def row_loop(*args):
        raise AssertionError("a valid unquoted panel fell back to the row loop")

    monkeypatch.setattr(panel, "_ingest_rows", row_loop)
    assert [_column_bits(panel.ingest_csv(path, d).records)
            for path in (p, odd)] == expected


# rewrites of one field, and whole values, that both paths must read alike
_ODD_FIELDS = [
    lambda f: f'"{f}"', lambda f: f'"{f}', lambda f: f'{f[:1]}"{f[1:]}',
    lambda f: f" {f} ", lambda f: f"\t{f}", str.lower, lambda f: f + "\x00",
    "1_000", " 7 ", "nan", "inf", "-0.0", "2_000", " 2001 ", str(2 ** 64),
    str(-2 ** 63 - 1), "1" * 200_000, ""]

# lines that are not rows: blanks and comments
_FILLERS = ["", "   ", "\t", "# note", "  # indented, note", '# "unclosed']

_HEADERS = [",".join(panel.PANEL_HEADER),
            " country_code , year,gdp_nominal_usd,debt_nominal_usd,"
            "population,income_group ",
            '"country_code",year,gdp_nominal_usd,debt_nominal_usd,'
            'population,"income_group"']


@settings(derandomize=True, database=None)
@given(data=st.data())
def test_columnar_pass_equals_row_loop(data, tmp_path_factory):
    draw = data.draw
    n_rows = draw(st.integers(1, 8))
    amount = st.floats(min_value=1.0, max_value=1e12)
    rows = [[string.ascii_uppercase[i] * 3, str(2000 + i % 2),
             repr(draw(amount)), repr(draw(amount)), repr(draw(amount)),
             draw(st.sampled_from(["LOW", "medium", "HIGH"]))]
            for i in range(n_rows)]
    for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=2)):
        _corrupt(rows[i], draw(st.sampled_from(sorted(_FAULTS))), rows[0],
                 draw)
    for i, j, odd in draw(st.lists(st.tuples(
            st.integers(0, n_rows - 1), st.integers(0, 5),
            st.sampled_from(_ODD_FIELDS)), max_size=3)):
        rows[i][j] = odd if isinstance(odd, str) else odd(rows[i][j])
    lines = [draw(st.sampled_from(_HEADERS)), *map(",".join, rows)]
    if draw(st.booleans()):  # one row broken in two by a quoted line break
        i, k = draw(st.integers(1, n_rows)), draw(st.integers(0, 5))
        row = rows[i - 1]
        lines[i:i + 1] = [",".join([*row[:k], '"' + row[k]]),
                          ",".join(['"', *row[k + 1:]])]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_FILLERS)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))

    tmp = tmp_path_factory.mktemp("columnar")
    p, d = tmp / "panel.csv", tmp / "deflator.csv"
    p.write_text(text, encoding="utf-8", newline="")
    d.write_text(DEFLATOR_TEXT)
    deflator = panel._parse_deflator_csv(d)
    # small blocks, so that rows and quotes also meet at block edges
    with mock.patch.object(panel, "_BLOCK_ROWS", draw(st.integers(1, 4))):
        rows_outcome = _ingested(lambda: panel._ingest_rows(p, deflator))
        assert _ingested(lambda: panel.ingest_csv(p, d).records) == rows_outcome
        columns = panel._ingest_columns(p, deflator)
    if isinstance(rows_outcome, tuple):  # the row loop raised
        assert columns is None
    elif not any('"' in line for line in lines[1:]
                 if line.strip() and not line.strip().startswith("#")):
        assert _column_bits(columns) == rows_outcome  # no needless fallback


# ----------------------------------------------- column writer vs csv.writer

_B = panel._WRITE_ROWS

# one strategy per column kind: (cell values, numpy dtype or None for lists)
_CELLS = {
    "int": (st.integers(), None),
    "int64": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
    "float": (st.one_of(st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]),
        st.floats()), float),
    "str": (st.one_of(st.sampled_from(
        ["", " ", " a ", ",", '"', '""', "\r", "\n", "\r\n", "x,y", "BRA"]),
        st.text(st.sampled_from('ab ;,"\r\n'), max_size=4)), object),
    "other": (st.sampled_from([None, True, panel.IncomeGroup.LOW,
                               np.float64(0.5), np.int64(7)]), None),
}


def _csv_writer_table(path, header, columns, header_comment, lineterminator):
    """csv.writer over rows of the columns' values: the reference."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# {header_comment}\n")
        writer = csv.writer(f, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(zip(*(column.tolist() if isinstance(column, np.ndarray)
                               else column for column in columns)))


@st.composite
def _tables(draw):
    """Columns of one kind each, lists or arrays, of a shared length."""
    n_rows = draw(st.one_of(st.sampled_from([0, _B - 1, _B, _B + 1]),
                            st.integers(0, 4)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(_CELLS)), max_size=4)):
        cells, dtype = _CELLS[kind]
        pool = draw(st.lists(cells, min_size=1, max_size=5))
        column = [pool[i % len(pool)] for i in range(n_rows)]
        if dtype is not None and draw(st.booleans()):
            column = np.array(column, dtype=dtype)
        columns.append(column)
    return columns


@settings(derandomize=True, database=None)
@given(columns=_tables(),
       lineterminator=st.sampled_from(["\r\n", "\n", "%;\n"]))
@example(columns=[["", "a"]], lineterminator="\n")  # a lone empty field
@example(columns=[[1, 2], ["a", "b\rc"]], lineterminator="\r\n")
@example(columns=[["a;b", "c"], [1.5, -0.0]], lineterminator="%;\n")
def test_write_table_equals_csv_writer(columns, lineterminator,
                                       tmp_path_factory):
    header = [f"c{i}" for i in range(len(columns))]
    tmp = tmp_path_factory.mktemp("table")
    panel.write_table(tmp / "columns.csv", header, columns, "unit test",
                      lineterminator)
    _csv_writer_table(tmp / "rows.csv", header, columns, "unit test",
                      lineterminator)
    assert (tmp / "columns.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        panel.write_table(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])


# ------------------------------------------------------ input not UTF-8

def test_non_utf8_input_is_malformed(tmp_path):
    # a panel line holds a byte that is not UTF-8
    p, d = tmp_path / "panel.csv", tmp_path / "deflator.csv"
    p.write_bytes(PANEL_TEXT.replace("BRA", "BR\xff").encode("latin-1"))
    d.write_text(DEFLATOR_TEXT)
    with pytest.raises(errors.MalformedRow, match="not UTF-8") as exc:
        panel.ingest_csv(p, d)
    assert str(p) in str(exc.value) and exc.value.line == 4
    d.write_bytes(DEFLATOR_TEXT.replace("0.95", "0.9\xff").encode("latin-1"))
    with pytest.raises(errors.MalformedRow, match="not UTF-8") as exc:
        panel.ingest_csv(tmp_path / "unread.csv", d)
    assert str(d) in str(exc.value)
    # a bad line decoded before the bad byte still names its line
    rows = [f"C{chr(65 + i // 26)}{chr(65 + i % 26)},2000,1e9,1e8,1e3,LOW"
            for i in range(400)]
    rows[1] = rows[0]  # line 3 repeats line 2
    p.write_bytes("\n".join([PANEL_HEADER, *rows, "\xff"]).encode("latin-1"))
    d.write_text(DEFLATOR_TEXT)
    with pytest.raises(errors.DuplicateKey, match="line 3"):
        panel.ingest_csv(p, d)


_ROW = "AAA,2000,1e9,1e8,1e3,LOW"
_BAD_ROW = "BB\xff,2000,1e9,1e8,1e3,LOW"


@pytest.mark.parametrize("panel_lines, deflator_text, error, line", [
    pytest.param([PANEL_HEADER, _ROW, _ROW, _BAD_ROW], DEFLATOR_TEXT,
                 errors.DuplicateKey, 3, id="duplicate-before-bad-byte"),
    pytest.param([PANEL_HEADER, _ROW, _BAD_ROW], DEFLATOR_TEXT,
                 errors.MalformedRow, 3, id="data-line"),
    pytest.param([PANEL_HEADER, "# comment \xff", _ROW], DEFLATOR_TEXT,
                 errors.MalformedRow, 2, id="comment-line"),
    pytest.param([PANEL_HEADER + "\xff", _ROW], DEFLATOR_TEXT,
                 errors.MalformedRow, 1, id="header-line"),
    pytest.param([PANEL_HEADER, _ROW], DEFLATOR_TEXT.replace("0.95", "0.9\xff"),
                 errors.MalformedRow, 2, id="deflator"),
])
def test_bad_byte_names_its_line(tmp_path, panel_lines, deflator_text, error,
                                 line):
    # the first fault in line order wins, a byte that is not UTF-8 included
    p, d = tmp_path / "panel.csv", tmp_path / "deflator.csv"
    p.write_bytes("\n".join([*panel_lines, ""]).encode("latin-1"))
    d.write_bytes(deflator_text.encode("latin-1"))
    with pytest.raises(error, match=f"^line {line}: ") as exc:
        panel.ingest_csv(p, d)
    assert exc.value.line == line
    if error is errors.MalformedRow:
        bad = d if "\xff" in deflator_text else p
        assert str(exc.value) == f"line {line}: {bad}: not UTF-8 text"


# ------------------------------------------------------ byte-order mark

_BOM = "\ufeff"  # the UTF-8 byte-order mark, EF BB BF on disk


def test_leading_bom_is_ignored(paths, tmp_path):
    p, d = paths
    deflator = panel._parse_deflator_csv(d)
    bom_p, bom_d = tmp_path / "bom_panel.csv", tmp_path / "bom_deflator.csv"
    bom_d.write_text(_BOM + DEFLATOR_TEXT, encoding="utf-8")
    assert panel._parse_deflator_csv(bom_d) == deflator
    expected = _column_bits(panel._ingest_rows(p, deflator))
    # the columnar pass reads the plain panel; a quote sends it to the rows
    for text, columnar in ((PANEL_TEXT, True),
                           (PANEL_TEXT.replace(",HIGH", ',"HIGH"'), False)):
        bom_p.write_text(_BOM + text, encoding="utf-8")
        columns = panel._ingest_columns(bom_p, deflator)
        assert (columns is not None) == columnar
        if columnar:
            assert _column_bits(columns) == expected
        assert _column_bits(panel._ingest_rows(bom_p, deflator)) == expected
        assert _column_bits(panel.ingest_csv(bom_p, bom_d).records) == expected


def test_bom_past_the_first_character_is_content(tmp_path):
    p, d = tmp_path / "panel.csv", tmp_path / "deflator.csv"
    d.write_text(DEFLATOR_TEXT, encoding="utf-8")
    for text, message in (
            (_BOM * 2 + PANEL_TEXT, "line 1: .*expected header"),
            ("# stamp\n" + _BOM + PANEL_TEXT, "line 2: .*expected header"),
            (PANEL_TEXT.replace("BRA,2001", _BOM + "BRA,2001"),
             "line 5: .*3-letter")):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(errors.MalformedRow, match=message):
            panel.ingest_csv(p, d)
