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
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (DuplicateKey, EmptyCrossSection, MalformedRow,
                     MissingDeflator, NonPositive)

PANEL_HEADER = ["country_code", "year", "gdp_nominal_usd", "debt_nominal_usd",
                "population", "income_group"]
DEFLATOR_HEADER = ["year", "deflator"]

BASE_YEAR = 2000
YEARS = range(-2 ** 63, 2 ** 63)  # years are stored as int64 columns
MAX_YEAR_SPAN = 10_000  # most years a flag range or a synthetic panel spans

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


def _check_record(code: str, year: int, gdp: float, debt: float,
                  population: float, line: "int | None" = None) -> None:
    """Raise if one panel row breaks a value rule; line is its CSV line."""
    if len(code) != 3 or not code.isalpha():
        raise MalformedRow(f"country_code {code!r} is not a 3-letter code",
                           line=line)
    # chained comparisons are false for NaN, so they reject it too
    for name, ok, rule in (("population", 0 < population < math.inf, "> 0"),
                           ("gdp_nominal", 0 < gdp < math.inf, "> 0"),
                           ("debt_nominal", 0 <= debt < math.inf, ">= 0")):
        if not ok:
            raise NonPositive(f"{code} {year}: {name} must be finite and "
                              f"{rule}", line=line)


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


# column dtypes other than float; numpy's str dtype drops trailing NULs
_DTYPES = {"country_code": object, "year": np.int64, "income_group": object}


@dataclass(frozen=True, eq=False)
class _Columns:
    """One numpy array per field, rows in input order."""

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]):
        """The columns of rows, each a tuple of the fields in order."""
        columns = list(zip(*rows)) or [()] * len(fields(cls))
        return cls(*(np.array(column, dtype=_DTYPES.get(field.name, float))
                     for field, column in zip(fields(cls), columns)))

    def columns(self) -> list[np.ndarray]:
        """The arrays in field order."""
        return [getattr(self, field.name) for field in fields(self)]

    def __len__(self) -> int:
        return len(self.year)


@dataclass(frozen=True, eq=False)
class RecordColumns(_Columns):
    """The panel CSV's fields in order: nominal amounts in USD as read."""

    country_code: np.ndarray
    year: np.ndarray
    gdp_nominal: np.ndarray
    debt_nominal: np.ndarray
    population: np.ndarray
    income_group: np.ndarray


@dataclass(frozen=True)
class Panel:
    """Records plus a deflator series; ingest_csv validates, Panel() does not."""

    records: RecordColumns
    deflator: DeflatorSeries

    def years(self) -> list[int]:
        return sorted(set(self.records.year.tolist()))


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


@dataclass(frozen=True, eq=False)
class PanelColumns(_Columns):
    """One array per PerCapitaObservation field."""

    country_code: np.ndarray
    year: np.ndarray
    d: np.ndarray
    g: np.ndarray
    ratio_R: np.ndarray
    income_group: np.ndarray

    @classmethod
    def of(cls, obs: Iterable[PerCapitaObservation]) -> "PanelColumns":
        """obs itself, or the columns of an iterable of observations."""
        if isinstance(obs, cls):
            return obs
        names = (field.name for field in fields(cls))
        return cls.from_rows(map(attrgetter(*names), obs))

    def __iter__(self):
        return map(PerCapitaObservation,
                   *(column.tolist() for column in self.columns()))


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
        if year not in YEARS:
            raise MalformedRow(f"year {year} does not fit in 64 bits",
                               line=line_no)
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
    records: list[tuple] = []
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
        _check_record(code, year, gdp, debt, population, line=line_no)
        records.append((code, year, gdp, debt, population, group))
    return Panel(records=RecordColumns.from_rows(records), deflator=deflator)


def normalize(panel: Panel) -> PanelColumns:
    """Deflate and divide by population: one observation per panel record.

    d and g come out in thousands of base-year USD per person; ratio_R is
    taken from the nominal amounts (the deflator and population cancel).
    """
    rec = panel.records
    deflator = np.array([panel.deflator.value(year)
                         for year in rec.year.tolist()], dtype=float)
    with np.errstate(over="ignore"):  # inf, as Python float division gives
        return PanelColumns(
            rec.country_code, rec.year,
            rec.debt_nominal / deflator / rec.population / _THOUSAND,
            rec.gdp_nominal / deflator / rec.population / _THOUSAND,
            rec.debt_nominal / rec.gdp_nominal, rec.income_group)


_ATTRIBUTES = {Variable.DEBT_PER_CAPITA: "d", Variable.GDP_PER_CAPITA: "g",
               Variable.RATIO_R: "ratio_R"}


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
    """Build field's YearMatrix from the columns of obs.

    A duplicate country-year keeps its last value, as in cross_section.
    """
    obs = PanelColumns.of(obs)
    codes, row = np.unique(obs.country_code, return_inverse=True)
    years, col = np.unique(obs.year, return_inverse=True)
    # numpy leaves unspecified which repeated cell wins: assign last rows only
    cell = col * len(codes) + row
    last = len(cell) - 1 - np.unique(cell[::-1], return_index=True)[1]
    row, col = row[last], col[last]
    # column-major, so that each year's column is contiguous
    values = np.zeros((len(codes), len(years)), order="F")
    present = np.zeros(values.shape, dtype=bool, order="F")
    values[row, col] = getattr(obs, _ATTRIBUTES[as_variable(field)])[last]
    present[row, col] = True
    columns = {year: j for j, year in enumerate(years.tolist())}
    return YearMatrix(tuple(codes.tolist()), columns, values, present)


def filter_income_group(obs: Iterable[PerCapitaObservation],
                        group: IncomeGroup) -> PanelColumns:
    """Subset of observations in the given income group, order kept."""
    obs = PanelColumns.of(obs)
    mask = obs.income_group == group
    return PanelColumns(*(column[mask] for column in obs.columns()))


def records_from_observations(obs: Iterable[PerCapitaObservation],
                              population: float = 1e6) -> RecordColumns:
    """Invert normalize() under a unit deflator and a fixed population.

    Useful for serializing synthetic observations into the panel CSV schema
    so they round-trip through ingest_csv; every row must pass its rules.
    """
    obs = PanelColumns.of(obs)
    gdp = obs.g * _THOUSAND * population
    debt = obs.d * _THOUSAND * population
    for row in zip(obs.country_code.tolist(), obs.year.tolist(), gdp.tolist(),
                   debt.tolist()):
        _check_record(*row, population)
    return RecordColumns(obs.country_code, obs.year, gdp, debt,
                         np.full(len(obs), population), obs.income_group)


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


def write_panel_csv(path: "str | Path", records: RecordColumns,
                    header_comment: "str | None" = None) -> None:
    """Write records in the panel CSV schema (optionally with a # comment line)."""
    *columns, groups = (column.tolist() for column in records.columns())
    write_table(path, PANEL_HEADER,
                zip(*columns, [group.value for group in groups]), header_comment)


def write_deflator_csv(path: "str | Path", series: DeflatorSeries,
                       header_comment: "str | None" = None) -> None:
    write_table(path, DEFLATOR_HEADER, sorted(series.values.items()),
                header_comment)
