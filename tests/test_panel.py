"""Panel ingestion, validation, and per-capita normalization tests."""

import math
import string
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    by_key = {(o.country_code, o.year): o for o in obs}

    # base year: deflator 1.0, so d = debt/pop/1e3 exactly
    usa = by_key[("USA", 2000)]
    assert usa.d == pytest.approx(5e9 / 1e6 / 1e3, rel=1e-12)  # 5.0
    assert usa.g == pytest.approx(10.0, rel=1e-12)
    assert usa.ratio_R == pytest.approx(0.5, rel=1e-12)

    # 2001: deflator 1.25 shrinks real amounts; R uses nominals so no deflator
    usa1 = by_key[("USA", 2001)]
    assert usa1.d == pytest.approx(3e9 / 1.25 / 1.2e6 / 1e3, rel=1e-12)  # 2.0
    assert usa1.g == pytest.approx(8.0, rel=1e-12)
    assert usa1.ratio_R == pytest.approx(0.25, rel=1e-12)


def test_ratio_independent_of_deflator(paths, tmp_path):
    p, d = paths
    other = tmp_path / "deflator2.csv"
    other.write_text("\n".join([DEFLATOR_HEADER, "1999,0.5", "2000,1.0",
                                "2001,3.0", ""]))
    obs_a = panel.normalize(panel.ingest_csv(p, d))
    obs_b = panel.normalize(panel.ingest_csv(p, other))
    for a, b in zip(obs_a, obs_b):
        assert a.ratio_R == b.ratio_R


def test_zero_debt_is_allowed(paths):
    p, d = paths
    obs = panel.normalize(panel.ingest_csv(p, d))
    bra = [o for o in obs if o.country_code == "BRA" and o.year == 2001][0]
    assert bra.d == 0.0
    assert bra.ratio_R == 0.0


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
    assert panel.as_variable("d") is panel.Variable.DEBT_PER_CAPITA
    assert panel.as_variable(panel.Variable.RATIO_R) is panel.Variable.RATIO_R
    with pytest.raises(ValueError):
        panel.as_variable("x")


def test_filter_income_group(paths):
    p, d = paths
    obs = panel.normalize(panel.ingest_csv(p, d))
    high = panel.filter_income_group(obs, panel.IncomeGroup.HIGH)
    assert {o.country_code for o in high} == {"USA"}
    assert len(panel.filter_income_group(obs, panel.IncomeGroup.LOW)) == 0


def test_ratio_times_gdp_recovers_debt(paths):
    # deflator and population cancel in R, so R * g == d in normalized units
    p, d = paths
    for o in panel.normalize(panel.ingest_csv(p, d)):
        assert math.isclose(o.ratio_R * o.g, o.d, rel_tol=1e-12)


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
    assert list(filtered_first) == list(normalized_first)
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
    for before, after in zip(obs, again):
        assert after.country_code == before.country_code
        assert after.year == before.year
        # unit deflator and shared population reproduce d, g, R exactly
        assert math.isclose(after.d, before.d, rel_tol=1e-12)
        assert math.isclose(after.g, before.g, rel_tol=1e-12)
        assert math.isclose(after.ratio_R, before.ratio_R, rel_tol=1e-12)
        assert after.income_group == before.income_group


_POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)

# rows of (country_code, year, gdp, debt, population, income_group)
_RECORDS = st.lists(
    st.tuples(st.text(string.ascii_uppercase, min_size=3, max_size=3),
              st.integers(1800, 2100), _POSITIVE,
              st.floats(min_value=0.0, max_value=1e300), _POSITIVE,
              st.sampled_from(panel.IncomeGroup)),
    max_size=30, unique_by=lambda row: row[:2])


def _rows(columns):
    """The rows of a RecordColumns as tuples of Python values."""
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
    """The earlier normalize, one observation per record: the reference."""
    out = []
    for code, year, gdp, debt, population, group in records:
        deflator = series.value(year)
        out.append(panel.PerCapitaObservation(
            country_code=code, year=year,
            d=debt / deflator / population / 1e3,
            g=gdp / deflator / population / 1e3,
            ratio_R=debt / gdp,
            income_group=group))
    return out


def _bits(observations):
    return [(o.country_code, o.year, o.d.hex(), o.g.hex(), o.ratio_R.hex(),
             o.income_group) for o in observations]


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
def test_normalize_columns_bitwise_equal_row_loop(records, deflators):
    deflator = panel.DeflatorSeries(
        values={1999: deflators[0], 2000: 1.0, 2001: deflators[1]})
    pl = panel.Panel(records=panel.RecordColumns.from_rows(records),
                     deflator=deflator)
    assert _bits(panel.normalize(pl)) == _bits(
        _normalize_rows(records, deflator))


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
    panel.write_table(path, panel.PANEL_HEADER, (
        (rec.country_code, rec.year, rec.gdp_nominal, rec.debt_nominal,
         rec.population, rec.income_group.value) for rec in records),
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
    return st.builds(
        panel.PerCapitaObservation, country_code=st.sampled_from(codes),
        year=st.one_of(st.just(2000), st.integers(-2 ** 63, 2 ** 63 - 1)),
        d=amounts, g=amounts, ratio_R=st.just(0.5),
        income_group=st.sampled_from(panel.IncomeGroup))


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
    obs = panel.PanelColumns.of(rows)
    tmp = tmp_path_factory.mktemp("records")
    assert _outcome(_write_records_columns, tmp / "columns.csv", obs,
                    population) == _outcome(_write_records_rows,
                                            tmp / "rows.csv", obs, population)


_FINITE_OR_INF = st.floats(allow_nan=False)

# duplicate keys are likely, and codes may end in NUL
_OBSERVATIONS = st.lists(st.builds(
    panel.PerCapitaObservation,
    country_code=st.one_of(st.sampled_from(["AAA", "AAA\x00", "\x00", ""]),
                           st.text(max_size=5)),
    year=st.one_of(st.sampled_from([1999, 2000]),
                   st.integers(-2 ** 63, 2 ** 63 - 1)),
    d=_FINITE_OR_INF, g=_FINITE_OR_INF, ratio_R=_FINITE_OR_INF,
    income_group=st.sampled_from(panel.IncomeGroup)), max_size=20)


@settings(derandomize=True, database=None)
@given(rows=_OBSERVATIONS)
def test_panel_columns_round_trip_rows(rows):
    columns = panel.PanelColumns.of(rows)
    assert panel.PanelColumns.of(columns) is columns
    assert len(columns) == len(rows)
    assert list(columns) == rows
    assert _bits(columns) == _bits(rows)  # -0.0 stays -0.0


@settings(derandomize=True, database=None)
@given(rows=_OBSERVATIONS)
def test_filter_income_group_equals_row_filter(rows):
    columns = panel.PanelColumns.of(rows)
    for group in panel.IncomeGroup:
        assert list(panel.filter_income_group(columns, group)) == [
            o for o in rows if o.income_group == group]


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
