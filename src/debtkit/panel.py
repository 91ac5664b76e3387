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
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain, islice
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
_WRITE_ROWS = 8192  # rows per block in write_table; 1024 was slower, 65536 no faster
_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # what surrogateescape makes of a bad byte
_WIDTH = 8  # bytes of a code or group as loadtxt reads them; longer is cut
_TABLE = np.dtype(f"S{_WIDTH},i8,f8,f8,f8,S{_WIDTH}")  # a panel row, for loadtxt
_PANEL_TYPES = (str, int, float, float, float, str)  # a panel row, for _split
_READ_LINES = 1024  # lines per loadtxt block in ingest_csv; 8192 took more memory

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


@dataclass(frozen=True)
class DeflatorSeries:
    """Price index mapping year -> deflator, with the base year pinned to 1.0."""

    values: dict[int, float]

    def __post_init__(self):
        if BASE_YEAR not in self.values:
            raise MissingDeflator(f"base year {BASE_YEAR} absent from series")
        for year, value in self.values.items():
            _check_deflator(year, value)

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
    rows: dict[int, np.ndarray]  # panel year, ascending -> its rows by code

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
        return YearIndex(tuple(codes), rank, rows)


def _open(path: "str | Path"):
    """path's text, line ends kept, a leading BOM dropped, a bad byte a surrogate."""
    return open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")


def _split(line_no: int, line: str, types: "tuple | None" = None) -> list:
    """A line's fields, field i converted by types[i] if types are given;
    MalformedRow naming line_no if csv, the field count or a type fails."""
    try:  # csv.Error: a field over csv.field_size_limit(), for example
        row = next(csv.reader([line]))
    except csv.Error as exc:
        raise MalformedRow(str(exc), line=line_no) from None
    if types is not None and len(row) != len(types):
        raise MalformedRow(f"expected {len(types)} fields, got {len(row)}",
                           line=line_no)
    try:
        return row if types is None else [f(x) for f, x in zip(types, row)]
    except ValueError as exc:
        raise MalformedRow(str(exc), line=line_no) from None


def _lines(path: "str | Path", lines: Iterable[str], start: int = 1):
    """(line_no, line) per data line, numbered from start, skipping blank and
    # lines; a byte that is not UTF-8 raises MalformedRow on any line."""
    for n, line in enumerate(lines, start):
        if not line.isascii() and _NOT_UTF8.search(line):
            raise MalformedRow(f"{path}: not UTF-8 text", line=n)
        if (text := line.strip()) and not text.startswith("#"):
            yield n, line


def _header(path: "str | Path", f, header: list[str]) -> int:
    """The line of f's first data line, which must be header once trimmed."""
    first = next(_lines(path, f), None)
    if first is None or [h.strip() for h in _split(*first)] != header:
        raise MalformedRow(f"{path}: expected header {','.join(header)!r}",
                           line=None if first is None else first[0])
    return first[0]


def read_table(path: "str | Path", header: list[str], types: tuple):
    """Yield (line_no, fields) per data row, skipping blank and # lines.

    The first row must match header once trimmed, every later row must have
    as many fields, and field i is converted by types[i]. A leading UTF-8
    byte-order mark is dropped. A fault, such as a byte that is not UTF-8
    on any line, raises MalformedRow naming its 1-based line.
    """
    with _open(path) as f:
        for line_no, line in _lines(path, f, _header(path, f, header) + 1):
            yield line_no, _split(line_no, line, types)


def _check_deflator(year: int, value: float, line: "int | None" = None):
    """Raise if a deflator breaks a rule; line is its CSV line, if any."""
    if not 0 < value < math.inf:
        raise NonPositive(f"deflator for {year} must be finite and > 0, "
                          f"got {value!r}", line=line)
    if year == BASE_YEAR and value != 1.0:
        raise MalformedRow(f"deflator at base year {BASE_YEAR} must be "
                           f"exactly 1.0, got {value!r}", line=line)


def _parse_deflator_csv(path: Path) -> DeflatorSeries:
    values: dict[int, float] = {}
    for line_no, (year, value) in read_table(path, DEFLATOR_HEADER,
                                             (int, float)):
        if year not in YEARS:
            raise MalformedRow(f"year {year} does not fit in 64 bits",
                               line=line_no)
        if year in values:
            raise DuplicateKey(f"duplicate deflator year {year}", line=line_no)
        _check_deflator(year, value, line_no)
        values[year] = value
    if BASE_YEAR not in values:
        raise MissingDeflator(f"{path}: base year {BASE_YEAR} absent from "
                              "series")
    return DeflatorSeries(values=values)


def _check_rows(names, name_of, years, year_of, population, gdp, debt,
                group=None, deflator: "DeflatorSeries | None" = None,
                line=lambda row: None):
    """Raise what a row loop raises at the first row that breaks a rule, a
    row taking them in order: income group, duplicate country-year, deflator
    year, 3-letter code, then population, gdp and debt finite and > 0 (debt
    >= 0). A row's code is names[name_of[row]] and its year
    years[year_of[row]], each distinct if deflator is given; group is
    (spellings, members, group_of), a member None for no group. Only once a
    rule fails are its rows, and line(row), the CSV line, found."""
    broken = []  # (mask of the rows that break a rule, error, message)

    def rule(bad, of, error, message):  # of maps rows to bad's entries
        if (bad := np.asarray(bad, bool)).any():
            broken.append((bad if of is None else bad[of], error, message))

    if group is not None:
        spellings, members, group_of = group
        rule([m is None for m in members], group_of, MalformedRow,
             "income_group {group!r} not one of LOW/MEDIUM/HIGH")
    if deflator is not None:
        # one key per country-year, where " usa" and "USA" are one country
        key = (np.unique(names, return_inverse=True)[1][name_of] * len(years)
               + year_of)
        ordered = np.sort(key)
        if (ordered[1:] == ordered[:-1]).any():  # some row repeats a key
            repeat = np.ones(len(key), bool)
            repeat[np.unique(key, return_index=True)[1]] = False
            rule(repeat, None, DuplicateKey,
                 "duplicate country-year ({code!r}, {year})")
        rule([y not in deflator.values for y in years.tolist()], year_of,
             MissingDeflator, "no deflator entry for year {year}")
    rule([len(c) != 3 or not c.isalpha() for c in names], name_of,
         MalformedRow, "country_code {code!r} is not a 3-letter code")
    for name, ok, bound in (  # NaN compares false, so it breaks these rules
            ("population", lambda: (0 < population) & (population < np.inf), "> 0"),
            ("gdp_nominal", lambda: (0 < gdp) & (gdp < np.inf), "> 0"),
            ("debt_nominal", lambda: (0 <= debt) & (debt < np.inf), ">= 0")):
        rule(np.broadcast_to(~np.asarray(ok(), bool), len(name_of)), None,
             NonPositive, f"{{code}} {{year}}: {name} must be finite and {bound}")
    if broken:
        row = min(int(mask.argmax()) for mask, *_ in broken)
        error, message = next((e, m) for mask, e, m in broken if mask[row])
        raise error(message.format(
            code=names[name_of[row]], year=int(years[year_of[row]]),
            group=spellings[group_of[row]] if group else None), line=line(row))


def _records(columns: list, deflator: DeflatorSeries, line) -> RecordColumns:
    """The records of the columns if they keep the rules; line(i) is the CSV
    line of row i."""
    code, year, gdp, debt, population, group = columns
    # loadtxt's codes and groups sort fastest as the integers their bytes spell
    (codes, code_of), (groups, group_of), (years, year_of) = (np.unique(
        column.view(f"u{_WIDTH}") if column.dtype.kind == "S" else column,
        return_inverse=True) for column in (code, group, year))
    # numpy's str dtype drops a trailing NUL, so an object column is kept
    codes, groups = ((values.view(code.dtype).astype(str) if code.dtype.kind == "S"
                      else values).tolist() for values in (codes, groups))
    names = np.array([code.strip().upper() for code in codes], object)
    member = {group.value: group for group in IncomeGroup}.get
    members = np.array([member(g.strip().upper()) for g in groups], object)
    _check_rows(names, code_of, years, year_of, population, gdp, debt,
                (groups, members, group_of), deflator, line)
    return RecordColumns(names[code_of], year.astype(np.int64), gdp, debt,
                         population, members[group_of])


def _table(block: list[str]) -> "np.ndarray | None":
    """A block of lines as numpy's loadtxt reads it, or None where it may
    read it otherwise than _split: a quote, a #, a NUL or \\x1c-\\x1f, text
    not ASCII, a line as long as half csv.field_size_limit(), a failure or
    warning, or a code or group that fills _WIDTH, so may have been cut."""
    text = "".join(block)
    if (not text.isascii() or any(c in text for c in '"#\0\x1c\x1d\x1e\x1f')
            or max(map(len, block)) >= csv.field_size_limit() // 2):
        return None
    try:
        with warnings.catch_warnings():
            # loadtxt warns on no rows; numpy 1.x reads an int via float
            warnings.simplefilter("error")
            table = np.loadtxt(block, _TABLE, delimiter=",", comments=None,
                               quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    full = [table[name].view((np.uint8, _WIDTH))[:, -1].any()  # last byte set
            for name in (_TABLE.names[0], _TABLE.names[-1])]
    return None if any(full) else table


def ingest_csv(path: "str | Path", deflator_path: "str | Path") -> Panel:
    """Read and validate a panel CSV plus its deflator CSV into a Panel.

    Raises MalformedRow, DuplicateKey, MissingDeflator, or NonPositive; the
    exception message names the offending 1-based line number. The panel is
    read once: _table reads it in blocks of _READ_LINES lines, and _split
    converts each line from the first block that _table does not read.
    """
    deflator = _parse_deflator_csv(Path(deflator_path))
    tables, lines, fault = [np.empty(0, _TABLE)], [], None  # lines: of rows, by block
    with _open(path) as f:
        n = _header(path, f, PANEL_HEADER) + 1
        while (block := list(islice(f, _READ_LINES))) and (
                table := _table(block)) is not None:
            tables.append(table)
            lines.append(range(n, n + len(block)) if len(table) == len(block)
                         else [n + i for i, line in enumerate(block) if line.strip()])
            n += len(block)
        columns = [np.concatenate([t[name] for t in tables])
                   for name in _TABLE.names]
        del tables  # the blocks, once their columns are copied out
        if block:  # line by line from this block on
            rows = []
            try:
                for line_no, line in _lines(path, chain(block, f), n):
                    rows.append((line_no, *_split(line_no, line, _PANEL_TYPES)))
            except MalformedRow as exc:  # raised once the rows before it pass
                fault = exc
            line_nos, *tail = list(zip(*rows)) or [()] * 7
            lines.append(line_nos)
            # loadtxt's rows take _split's types: a later year may not fit int64
            columns = [np.concatenate([column, np.array(new, float)])
                       if t is float else
                       np.array([*column.astype(t).tolist(), *new], object)
                       for column, new, t in zip(columns, tail, _PANEL_TYPES)]
    records = _records(columns, deflator, lambda row: next(
        islice(chain.from_iterable(lines), row, None)))
    if fault is not None:
        raise fault
    return Panel(records=records, deflator=deflator)


def normalize(panel: Panel) -> PanelColumns:
    """Deflate and divide by population: one observation per panel record.

    d and g come out in thousands of base-year USD per person; ratio_R is
    taken from the nominal amounts (the deflator and population cancel).
    A quotient that overflows raises NonFiniteValue naming the first
    country and year whose d, g or R is not finite.
    """
    rec = panel.records
    years, first, inverse = np.unique(rec.year, return_index=True,
                                      return_inverse=True)
    # each year looked up once, in row order, so the first missing one raises
    factor = {year: panel.deflator.value(year)
              for year in rec.year[np.sort(first)].tolist()}
    deflator = np.array([factor[year] for year in years.tolist()], float)[inverse]
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
    codes = obs.country_code.tolist()
    names = list(dict.fromkeys(codes))  # distinct, first seen first
    name_of = np.fromiter(map({c: i for i, c in enumerate(names)}.get, codes),
                          np.intp, len(codes))
    _check_rows(names, name_of, obs.year, np.arange(len(obs)), population,
                gdp, debt)
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
