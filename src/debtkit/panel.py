"""Country-year panel ingestion, validation, and per-capita normalization.

Input files follow two CSV schemas:

* panel:    ``country_code,year,gdp_nominal_usd,debt_nominal_usd,population,income_group``
* deflator: ``year,deflator`` (must contain the base year 2000 with value 1.0)

Nominal USD amounts are deflated to year-2000 USD and divided by population,
so per-capita debt ``d`` and per-capita GDP ``g`` are reported in thousands
of year-2000 USD per person. The debt-to-GDP ratio ``R`` is computed from
the nominal amounts directly since the deflator cancels.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyCrossSection,
    MalformedRow,
    MissingDeflator,
    NonPositive,
)

PANEL_HEADER = ["country_code", "year", "gdp_nominal_usd", "debt_nominal_usd",
                "population", "income_group"]
DEFLATOR_HEADER = ["year", "deflator"]

BASE_YEAR = 2000

# Per-capita amounts are expressed in thousands of base-year USD per person.
_THOUSAND = 1e3


class IncomeGroup(Enum):
    """World Bank income-group classification (static per country)."""

    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"


class Variable(Enum):
    """Observation fields that downstream regressions operate on."""

    DEBT_PER_CAPITA = "d"
    GDP_PER_CAPITA = "g"
    RATIO_R = "R"


def as_variable(value: "Variable | str") -> Variable:
    """Coerce a short code ('d', 'g', 'R') or enum member to Variable."""
    if isinstance(value, Variable):
        return value
    return Variable(value)


@dataclass(frozen=True)
class CountryYearRecord:
    """One country-year observation of nominal GDP, nominal debt, and population."""

    country_code: str
    year: int
    gdp_nominal: float
    debt_nominal: float
    population: float
    income_group: IncomeGroup

    def __post_init__(self):
        if len(self.country_code) != 3 or not self.country_code.isalpha():
            raise MalformedRow(
                f"country_code {self.country_code!r} is not a 3-letter code")
        # chained comparisons are false for NaN, so they reject it too
        if not 0 < self.population < math.inf:
            raise NonPositive(f"{self.country_code} {self.year}: "
                              "population must be finite and > 0")
        if not 0 < self.gdp_nominal < math.inf:
            raise NonPositive(f"{self.country_code} {self.year}: "
                              "gdp_nominal must be finite and > 0")
        if not 0 <= self.debt_nominal < math.inf:
            raise NonPositive(f"{self.country_code} {self.year}: "
                              "debt_nominal must be finite and >= 0")


@dataclass(frozen=True)
class DeflatorSeries:
    """Price index mapping year -> deflator, with the base year pinned to 1.0."""

    values: dict[int, float]

    def __post_init__(self):
        if BASE_YEAR not in self.values:
            raise MissingDeflator(f"base year {BASE_YEAR} absent from series")
        if self.values[BASE_YEAR] != 1.0:
            raise MalformedRow(
                f"deflator at base year {BASE_YEAR} must be exactly 1.0, "
                f"got {self.values[BASE_YEAR]!r}")
        for year, value in self.values.items():
            if not 0 < value < math.inf:
                raise NonPositive(
                    f"deflator for {year} must be finite and > 0, got {value!r}")

    def value(self, year: int) -> float:
        try:
            return self.values[year]
        except KeyError:
            raise MissingDeflator(f"no deflator entry for year {year}") from None


@dataclass(frozen=True)
class Panel:
    """Immutable, validated collection of records plus a deflator series."""

    records: tuple[CountryYearRecord, ...]
    deflator: DeflatorSeries

    def __post_init__(self):
        seen: set[tuple[str, int]] = set()
        for rec in self.records:
            key = (rec.country_code, rec.year)
            if key in seen:
                raise DuplicateKey(f"duplicate country-year {key}")
            seen.add(key)
            self.deflator.value(rec.year)  # raises MissingDeflator

    def years(self) -> list[int]:
        return sorted({rec.year for rec in self.records})


@dataclass(frozen=True)
class PerCapitaObservation:
    """Real per-capita debt d, per-capita GDP g (thousand year-2000 USD per
    person) and the dimensionless debt-to-GDP ratio R for one country-year."""

    country_code: str
    year: int
    d: float
    g: float
    ratio_R: float
    income_group: IncomeGroup


def read_table(path: "str | Path", header: list[str], types: tuple):
    """Yield (line_no, fields) per data row, skipping blank and # lines.

    The first row must match header once trimmed, every later row must have
    as many fields, and field i is converted by types[i]. A fault raises
    MalformedRow naming its 1-based line.
    """
    with open(path, newline="", encoding="utf-8") as f:
        rows = ((n, next(csv.reader([line]))) for n, line in enumerate(f, 1)
                if line.strip() and not line.strip().startswith("#"))
        first = next(rows, None)
        if first is None or [h.strip() for h in first[1]] != header:
            raise MalformedRow(f"{path}: expected header {','.join(header)!r}",
                               line=None if first is None else first[0])
        for line_no, row in rows:
            if len(row) != len(header):
                raise MalformedRow(f"expected {len(header)} fields, "
                                   f"got {len(row)}", line=line_no)
            try:
                fields = [convert(x) for convert, x in zip(types, row)]
            except ValueError as exc:
                raise MalformedRow(str(exc), line=line_no) from None
            yield line_no, fields


def _parse_deflator_csv(path: Path) -> DeflatorSeries:
    values: dict[int, float] = {}
    for line_no, (year, value) in read_table(path, DEFLATOR_HEADER,
                                             (int, float)):
        if year in values:
            raise DuplicateKey(f"duplicate deflator year {year}", line=line_no)
        if not 0 < value < math.inf:
            raise NonPositive(f"deflator for {year} must be finite and > 0",
                              line=line_no)
        values[year] = value
    return DeflatorSeries(values=values)


def ingest_csv(path: "str | Path", deflator_path: "str | Path") -> Panel:
    """Read and validate a panel CSV plus its deflator CSV into a Panel.

    Raises MalformedRow, DuplicateKey, MissingDeflator, or NonPositive; the
    exception message names the offending 1-based line number.
    """
    deflator = _parse_deflator_csv(Path(deflator_path))
    records: list[CountryYearRecord] = []
    seen: set[tuple[str, int]] = set()
    rows = read_table(path, PANEL_HEADER, (str, int, float, float, float, str))
    for line_no, (code, year, gdp, debt, population, group) in rows:
        code = code.strip().upper()
        try:
            group = IncomeGroup(group.strip().upper())
        except ValueError:
            raise MalformedRow(
                f"income_group {group!r} not one of LOW/MEDIUM/HIGH",
                line=line_no) from None
        key = (code, year)
        if key in seen:
            raise DuplicateKey(f"duplicate country-year {key}", line=line_no)
        seen.add(key)
        if year not in deflator.values:
            raise MissingDeflator(f"no deflator entry for year {year}",
                                  line=line_no)
        try:
            rec = CountryYearRecord(code, year, gdp, debt, population, group)
        except (NonPositive, MalformedRow) as exc:
            raise type(exc)(str(exc), line=line_no) from None
        records.append(rec)
    return Panel(records=tuple(records), deflator=deflator)


def normalize(panel: Panel) -> list[PerCapitaObservation]:
    """Deflate and divide by population: one observation per panel record.

    d and g come out in thousands of base-year USD per person; ratio_R is
    taken from the nominal amounts (the deflator and population cancel).
    """
    out = []
    for rec in panel.records:
        deflator = panel.deflator.value(rec.year)
        d = rec.debt_nominal / deflator / rec.population / _THOUSAND
        g = rec.gdp_nominal / deflator / rec.population / _THOUSAND
        out.append(PerCapitaObservation(
            country_code=rec.country_code,
            year=rec.year,
            d=d,
            g=g,
            ratio_R=rec.debt_nominal / rec.gdp_nominal,
            income_group=rec.income_group,
        ))
    return out


_ATTRIBUTES = {Variable.DEBT_PER_CAPITA: "d", Variable.GDP_PER_CAPITA: "g",
               Variable.RATIO_R: "ratio_R"}


def value_of(obs: PerCapitaObservation, variable: "Variable | str") -> float:
    return getattr(obs, _ATTRIBUTES[as_variable(variable)])


def cross_section(obs: Iterable[PerCapitaObservation], year: int,
                  field: "Variable | str") -> dict[str, float]:
    """Map country_code -> field value for one year, sorted by country code."""
    name = _ATTRIBUTES[as_variable(field)]
    section = {o.country_code: getattr(o, name) for o in obs if o.year == year}
    if not section:
        raise EmptyCrossSection(f"no country has data for year {year}")
    return dict(sorted(section.items()))


@dataclass(frozen=True, eq=False)
class YearMatrix:
    """One field as a dense country x year matrix.

    Rows are the country codes in sorted order and columns the years in
    sorted order. present marks the cells some observation filled, so a
    stored 0 or NaN stays distinct from a missing country-year.
    """

    codes: tuple[str, ...]
    columns: dict[int, int]  # year -> column index
    values: np.ndarray       # float, shape (len(codes), len(columns))
    present: np.ndarray      # bool, same shape

    def column(self, year: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, present) of one year, rows in country-code order."""
        j = self.columns.get(year)
        if j is None:
            raise EmptyCrossSection(f"no country has data for year {year}")
        return self.values[:, j], self.present[:, j]


def year_matrix(obs: Iterable[PerCapitaObservation],
                field: "Variable | str") -> YearMatrix:
    """Build field's YearMatrix in one pass over obs.

    A duplicate country-year keeps its last value, as in cross_section.
    """
    name = _ATTRIBUTES[as_variable(field)]
    cells = {(o.country_code, o.year): getattr(o, name) for o in obs}
    codes = sorted({code for code, _ in cells})
    years = sorted({year for _, year in cells})
    row = {code: i for i, code in enumerate(codes)}
    columns = {year: j for j, year in enumerate(years)}
    # column-major, so that each year's column is contiguous
    values = np.zeros((len(codes), len(years)), order="F")
    present = np.zeros(values.shape, dtype=bool, order="F")
    index = ([row[code] for code, _ in cells],
             [columns[year] for _, year in cells])
    values[index] = list(cells.values())
    present[index] = True
    return YearMatrix(tuple(codes), columns, values, present)


def filter_income_group(obs: Iterable[PerCapitaObservation],
                        group: IncomeGroup) -> list:
    """Subset of observations (or records) in the given income group, order kept."""
    return [o for o in obs if o.income_group == group]


def records_from_observations(obs: Iterable[PerCapitaObservation],
                              population: float = 1e6) -> list[CountryYearRecord]:
    """Invert normalize() under a unit deflator and a fixed population.

    Useful for serializing synthetic observations into the panel CSV schema
    so they round-trip through ingest_csv.
    """
    return [
        CountryYearRecord(
            country_code=o.country_code,
            year=o.year,
            gdp_nominal=o.g * _THOUSAND * population,
            debt_nominal=o.d * _THOUSAND * population,
            population=population,
            income_group=o.income_group,
        )
        for o in obs
    ]


def write_table(path: "str | Path", header: Iterable[str], rows: Iterable,
                header_comment: "str | None" = None,
                lineterminator: str = "\r\n") -> None:
    """Write an optional ``# comment`` line, a header and rows as CSV.

    Fields are written with str(), which is repr() for a Python float.
    """
    # rows of budget_path.csv and threshold_breaches.csv have always ended in "\n"
    with open(path, "w", newline="", encoding="utf-8") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        writer = csv.writer(f, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def write_panel_csv(path: "str | Path", records: Iterable[CountryYearRecord],
                    header_comment: "str | None" = None) -> None:
    """Write records in the panel CSV schema (optionally with a # comment line)."""
    write_table(path, PANEL_HEADER, (
        (rec.country_code, rec.year, rec.gdp_nominal, rec.debt_nominal,
         rec.population, rec.income_group.value) for rec in records),
        header_comment)


def write_deflator_csv(path: "str | Path", series: DeflatorSeries,
                       header_comment: "str | None" = None) -> None:
    write_table(path, DEFLATOR_HEADER, sorted(series.values.items()),
                header_comment)
