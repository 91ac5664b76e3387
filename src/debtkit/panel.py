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
import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (DuplicateKey, EmptyCrossSection, MalformedRow,
                     MissingDeflator, NonFiniteValue, NonPositive)

PANEL_HEADER = ["country_code", "year", "gdp_nominal_usd", "debt_nominal_usd",
                "population", "income_group"]
DEFLATOR_HEADER = ["year", "deflator"]

BASE_YEAR = 2000
YEARS = range(-2 ** 63, 2 ** 63)  # years are stored as int64 columns
MAX_YEAR_SPAN = 10_000  # most years a flag range or a synthetic panel spans
_BLOCK_ROWS = 512  # lines per csv.reader in _ingest_columns; 4096 measured slower
_WRITE_ROWS = 8192  # rows per block in write_table; 1024 was slower, 65536 no faster
_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # what surrogateescape makes of a bad byte

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

    def compress(self, mask: np.ndarray):
        """The rows where mask is true, order kept."""
        return type(self)(*(column[mask] for column in self.columns()))

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


@dataclass(frozen=True, eq=False)
class YearIndex:
    """Each year's rows of a panel in country-code order, in memory that
    grows with the rows; a duplicate country-year keeps only its last row."""

    codes: tuple[str, ...]       # sorted
    rank: np.ndarray             # per row, the index of its code in codes
    order: np.ndarray            # the rows by year and then by code
    rows: dict[int, np.ndarray]  # panel year, ascending -> its part of order

    def year(self, year: int) -> np.ndarray:
        """The rows of one year, in country-code order."""
        rows = self.rows.get(year)
        if rows is None:
            raise EmptyCrossSection(f"no country has data for year {year}")
        return rows


@dataclass(frozen=True, eq=False)
class PanelColumns(_Columns):
    """Observations: real per-capita debt d and GDP g (thousand year-2000
    USD per person) and the dimensionless debt-to-GDP ratio R."""

    country_code: np.ndarray
    year: np.ndarray
    d: np.ndarray
    g: np.ndarray
    ratio_R: np.ndarray
    income_group: np.ndarray

    @cached_property
    def index(self) -> YearIndex:
        """The YearIndex of these rows, built on first read and then kept,
        so the arrays must not change in place after it is read."""
        codes = sorted(set(self.country_code.tolist()))
        rank = np.fromiter(map({code: i for i, code in enumerate(codes)}.get,
                               self.country_code.tolist()), np.intp, len(self))
        order = np.lexsort((rank, self.year))  # stable: duplicates in order
        year, ranked = self.year[order], rank[order]
        last = np.ones(len(order), dtype=bool)  # last row of its country-year
        last[:-1] = (year[1:] != year[:-1]) | (ranked[1:] != ranked[:-1])
        order, year = order[last], year[last]
        years, starts = np.unique(year, return_index=True)
        rows = dict(zip(years.tolist(), np.split(order, starts[1:])))
        return YearIndex(tuple(codes), rank, order, rows)


def _split(line_no: int, line: str) -> list[str]:
    try:  # csv.Error: a field over csv.field_size_limit(), for example
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise MalformedRow(str(exc), line=line_no) from None


def _lines(path: "str | Path", f):
    """(line_no, line) for each line of f, which is opened with
    errors="surrogateescape": a byte that is not UTF-8 decodes to a
    surrogate, and raises MalformedRow naming its line."""
    for n, line in enumerate(f, 1):
        if _NOT_UTF8.search(line):
            raise MalformedRow(f"{path}: not UTF-8 text", line=n)
        yield n, line


def read_table(path: "str | Path", header: list[str], types: tuple):
    """Yield (line_no, fields) per data row, skipping blank and # lines.

    The first row must match header once trimmed, every later row must have
    as many fields, and field i is converted by types[i]. A leading UTF-8
    byte-order mark is dropped. A fault, such as a byte that is not UTF-8
    on any line, raises MalformedRow naming its 1-based line.
    """
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as f:
        rows = ((n, _split(n, line)) for n, line in _lines(path, f)
                if line.strip() and not line.strip().startswith("#"))
        first = next(rows, None)
        if first is None or [h.strip() for h in first[1]] != header:
            raise MalformedRow(
                f"{path}: expected header {','.join(header)!r}",
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


def _ingest_columns(path: "str | Path",
                    deflator: DeflatorSeries) -> "RecordColumns | None":
    """The panel's records from one columnar pass, or None if a line is off:
    _ingest_rows, which parses each line alone, then names the first. Bytes
    that are not UTF-8 also give None, so an earlier bad line still wins."""
    def distinct(convert, raw: tuple) -> map:  # convert each string once
        return map({x: convert(x) for x in set(raw)}.__getitem__, raw)

    code, year, group, amounts = [], [], [], []
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            lines = (line for line in f
                     if line.strip() and not line.strip().startswith("#"))
            header = next(csv.reader(islice(lines, 1)), [])
            if [h.strip() for h in header] != PANEL_HEADER:
                return None
            while block := list(islice(lines, _BLOCK_ROWS)):
                rows = list(csv.reader(block))
                if '"' in "".join(block) or set(map(len, rows)) != {len(header)}:
                    return None  # a quote could run on into the next line
                raw = list(zip(*rows))
                code += distinct(lambda x: x.strip().upper(), raw[0])
                year += distinct(int, raw[1])
                group += distinct(lambda x: IncomeGroup(x.strip().upper()),
                                  raw[5])
                amounts.append([np.fromiter(map(float, x), float, len(rows))
                                for x in raw[2:5]])
    except (ValueError, csv.Error):
        return None
    if not (year and all(len(c) == 3 and c.isalpha() for c in set(code))
            and len(set(zip(code, year))) == len(year)
            and set(year) <= deflator.values.keys()):
        return None
    gdp, debt, population = map(np.concatenate, zip(*amounts))
    if not ((0 < population) & (population < np.inf) & (0 < gdp)
            & (gdp < np.inf) & (0 <= debt) & (debt < np.inf)).all():
        return None  # NaN compares false, as in _check_record
    return RecordColumns(np.array(code, dtype=object),
                         np.array(year, dtype=np.int64), gdp, debt,
                         population, np.array(group, dtype=object))


def _ingest_rows(path: "str | Path", deflator: DeflatorSeries) -> RecordColumns:
    """The panel's records, checked row by row: the first bad line raises."""
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
    return RecordColumns.from_rows(records)


def ingest_csv(path: "str | Path", deflator_path: "str | Path") -> Panel:
    """Read and validate a panel CSV plus its deflator CSV into a Panel.

    Raises MalformedRow, DuplicateKey, MissingDeflator, or NonPositive; the
    exception message names the offending 1-based line number.
    """
    deflator = _parse_deflator_csv(Path(deflator_path))
    records = _ingest_columns(path, deflator)
    if records is None:  # some line is off: the row loop names the first
        records = _ingest_rows(path, deflator)
    return Panel(records=records, deflator=deflator)


def normalize(panel: Panel) -> PanelColumns:
    """Deflate and divide by population: one observation per panel record.

    d and g come out in thousands of base-year USD per person; ratio_R is
    taken from the nominal amounts (the deflator and population cancel).
    A quotient that overflows raises NonFiniteValue naming the first
    country and year whose d, g or R is not finite.
    """
    rec = panel.records
    deflator = np.array([panel.deflator.value(year)
                         for year in rec.year.tolist()], dtype=float)
    with np.errstate(over="ignore"):  # inf, as Python float division gives
        obs = PanelColumns(
            rec.country_code, rec.year,
            rec.debt_nominal / deflator / rec.population / _THOUSAND,
            rec.gdp_nominal / deflator / rec.population / _THOUSAND,
            rec.debt_nominal / rec.gdp_nominal, rec.income_group)
    columns = {"d": obs.d, "g": obs.g, "R": obs.ratio_R}
    finite = {name: np.isfinite(column) for name, column in columns.items()}
    every = finite["d"] & finite["g"] & finite["R"]
    if not every.all():
        i = int(np.argmin(every))  # the first row with a value not finite
        name = next(name for name, ok in finite.items() if not ok[i])
        raise NonFiniteValue(f"{obs.country_code[i]} {obs.year[i]}: {name} "
                             f"is not finite ({float(columns[name][i])!r})")
    return obs


_ATTRIBUTES = {Variable.DEBT_PER_CAPITA: "d", Variable.GDP_PER_CAPITA: "g",
               Variable.RATIO_R: "ratio_R"}


def cross_section(obs: PanelColumns, year: int,
                  field: "Variable | str") -> dict[str, float]:
    """Map country_code -> field value for one year, sorted by country code."""
    rows = obs.index.year(year)
    return dict(zip(obs.country_code[rows].tolist(),
                    getattr(obs, _ATTRIBUTES[Variable(field)])[rows].tolist()))


def filter_income_group(obs: PanelColumns,
                        group: IncomeGroup) -> PanelColumns:
    """Subset of observations in the given income group, order kept."""
    return obs.compress(obs.income_group == group)


def records_from_observations(obs: PanelColumns,
                              population: float = 1e6) -> RecordColumns:
    """Invert normalize() under a unit deflator and a fixed population.

    Useful for serializing synthetic observations into the panel CSV schema
    so they round-trip through ingest_csv; every row must pass its rules.
    """
    with np.errstate(over="ignore"):  # inf, which the row rules reject
        gdp = obs.g * _THOUSAND * population
        debt = obs.d * _THOUSAND * population
    for row in zip(obs.country_code.tolist(), obs.year.tolist(), gdp.tolist(),
                   debt.tolist()):
        _check_record(*row, population)
    return RecordColumns(obs.country_code, obs.year, gdp, debt,
                         np.full(len(obs), population), obs.income_group)


def _plain(column, one_column: bool) -> bool:
    """True if csv.writer writes every value of column as str(value)."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "biuf":
            return True
        column = column.tolist()
    kinds = set(map(type, column))
    strings = [x for x in column if type(x) is str] if str in kinds else []
    text = "".join(strings)
    # csv.writer writes a lone empty field as "" so that its line is not blank
    return (kinds <= {int, float, str} and not any(c in text for c in ',"\r\n')
            and not (one_column and "" in strings))


def write_table(path: "str | Path", header: Iterable[str], columns: list,
                header_comment: "str | None" = None,
                lineterminator: str = "\r\n") -> None:
    """Write an optional ``# comment`` line, a header and columns as CSV.

    columns holds one equal-length sequence or array per header field; an
    empty list is a table of no rows. Values are written with str(), which
    is repr() for a Python float, and an array gives its tolist() values.
    Each block of _WRITE_ROWS rows is written by one ``%`` format. If a
    string holds a ``,``, ``"`` or line break, a value is of another type
    or lineterminator is not a line break, the table goes through
    csv.writer instead, which quotes fields as its dialect requires.
    """
    if len(set(map(len, columns))) > 1:
        raise ValueError("table columns differ in length")
    width = len(columns)
    n_rows = len(columns[0]) if columns else 0
    plain = (set(lineterminator) <= {"\r", "\n"}  # csv quotes its characters
             and all(_plain(column, width == 1) for column in columns))
    row = ",".join(["%s"] * width) + lineterminator
    # rows of budget_path.csv and threshold_breaches.csv have always ended in "\n"
    with open(path, "w", newline="", encoding="utf-8") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        writer = csv.writer(f, lineterminator=lineterminator)
        writer.writerow(header)
        for start in range(0, n_rows, _WRITE_ROWS):
            block = [b.tolist() if isinstance(b, np.ndarray) else b for b in
                     (column[start:start + _WRITE_ROWS] for column in columns)]
            if plain:  # values in row order, each formatted by "%s", str()
                values = [None] * (width * len(block[0]))
                for j, column in enumerate(block):
                    values[j::width] = column
                f.write(row * len(block[0]) % tuple(values))
            else:
                writer.writerows(zip(*block))


def write_panel_csv(path: "str | Path", records: RecordColumns,
                    header_comment: "str | None" = None) -> None:
    """Write records in the panel CSV schema (optionally with a # comment line)."""
    *columns, groups = records.columns()
    write_table(path, PANEL_HEADER,
                [*columns, [group.value for group in groups.tolist()]],
                header_comment)


def write_deflator_csv(path: "str | Path", series: DeflatorSeries,
                       header_comment: "str | None" = None) -> None:
    write_table(path, DEFLATOR_HEADER, list(zip(*sorted(series.values.items()))),
                header_comment)
