"""Load per-asset daily OHLC files and build a date-aligned multi-asset panel.

One CSV per asset with header ``date,open,high,low,close`` (case-insensitive,
extra columns ignored). Alignment keeps only dates present in every series;
missing dates are dropped, never filled, because fabricated OHLC ranges would
corrupt the range-based variance terms downstream.
"""

from __future__ import annotations

import csv
import datetime as dt
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateDate,
    EmptyIntersection,
    MissingColumn,
    PriceInvariantViolation,
    SeriesTooShort,
    UnparseableRow,
)

REQUIRED_COLUMNS = ("date", "open", "high", "low", "close")


def bar_defect(o, h, l, c) -> tuple[int, str] | None:
    """The bar rule, checked on arrays of open, high, low and close prices or
    on one bar's four prices: the index of the first bar that breaks it and
    why, or None when every bar holds.

    Every price is finite and positive, low <= min(open, close) and
    high >= max(open, close).
    """
    prices = np.array([o, h, l, c], dtype=float).reshape(4, -1)
    o, h, l, c = prices
    finite = np.isfinite(prices).all(axis=0)
    positive = (prices > 0).all(axis=0)
    ok = finite & positive & (l <= np.minimum(o, c)) & (h >= np.maximum(o, c))
    if ok.all():
        return None
    k = int(np.argmin(ok))
    if not finite[k]:
        return k, "non-finite price"
    if not positive[k]:
        return k, "non-positive price"
    return k, "high/low does not bracket open/close"


@dataclass(frozen=True)
class OhlcBar:
    date: dt.date
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self):
        defect = bar_defect(self.open, self.high, self.low, self.close)
        if defect:
            raise PriceInvariantViolation(self.date, defect[1])


@dataclass(frozen=True)
class OhlcSeries:
    asset: str
    dates: tuple[dt.date, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class OhlcPanel:
    """Date-aligned OHLC series; every (date, asset) cell is populated."""

    dates: tuple[dt.date, ...]
    assets: tuple[str, ...]
    series: tuple[OhlcSeries, ...]

    def __len__(self) -> int:
        return len(self.dates)


def parse_values(rows: Sequence[str], n_columns: int, usecols: Sequence[int] | None = None,
                 quotechar: str | None = None) -> np.ndarray | None:
    """rows as a len(rows) x n_columns float array, read from the comma-separated
    columns `usecols` (every column when None), with cells in quotechar
    unquoted as the csv module does; None if any row does not hold
    n_columns numbers there."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on input of blank rows only
        try:
            values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2,
                                usecols=usecols, quotechar=quotechar)
        except ValueError:
            return None
    return values if values.shape == (len(rows), n_columns) else None


def is_iso_date(text: str) -> bool:
    try:
        dt.date.fromisoformat(text)
    except ValueError:
        return False
    return True


def _cells(line: str) -> list[str] | None:
    """The line's cells as the csv module splits them; None when a quoted
    cell does not close on the line (the reader goes on to a second line)."""
    if '"' not in line:
        return line.split(",")
    reader = csv.reader([line, ""])
    cells = next(reader)
    return cells if reader.line_num == 1 else None


def _first_defect(path: Path, lines: Sequence[str], date_col: int, price_cols: Sequence[int]
                  ) -> tuple[list[dt.date], np.ndarray, UnparseableRow | None]:
    """The bars before the first line in file order whose cells do not parse
    (too few, a bad date, a non-numeric price or an unclosed quote), as their
    dates and a len x 4 price array, and the UnparseableRow that names that
    line, or None when every line parses. Lines whose cells are all blank
    are skipped; a file with none left raises SeriesTooShort."""
    width = max(date_col, *price_cols) + 1
    cells = list(map(_cells, lines))
    body = [i for i, row in enumerate(cells) if row is None or any(map(str.strip, row))]
    if not body:
        raise SeriesTooShort(f"{path}: a header and no bars")
    rows = [cells[i] for i in body]
    bar_lines = [lines[i] for i in body]

    # n counts the leading rows that parse: their cells, dates and prices
    n = next((k for k, row in enumerate(rows) if row is None or len(row) < width), len(rows))
    heads = [row[date_col].strip() for row in rows[:n]]
    try:
        dates = list(map(dt.date.fromisoformat, heads))
    except ValueError:
        n = next(k for k, head in enumerate(heads) if not is_iso_date(head))
        dates = list(map(dt.date.fromisoformat, heads[:n]))
    values = parse_values(bar_lines[:n], 4, price_cols, quotechar='"')
    if values is None:
        n = next(k for k, line in enumerate(bar_lines[:n])
                 if parse_values([line], 4, price_cols, quotechar='"') is None)
        dates = dates[:n]
        values = parse_values(bar_lines[:n], 4, price_cols, quotechar='"')
    if n == len(rows):
        return dates, values, None
    row = rows[n]
    return dates, values, UnparseableRow(
        body[n] + 2, "a quoted cell does not close on its line" if row is None
        else f"{len(row)} fields, need {width}" if len(row) < width
        else f"bad date {row[date_col].strip()!r}" if not is_iso_date(row[date_col].strip())
        else f"non-numeric price in {bar_lines[n]!r}", path=path)


def load_ohlc_csv(path: str | Path, asset: str | None = None) -> OhlcSeries:
    """Parse one asset's OHLC CSV, validate every bar, and sort by date.

    The file is read as UTF-8, a leading byte-order mark dropped. The first
    line is the header, read as CSV: the columns date, open, high, low and
    close, matched case-insensitively after stripping spaces, in any order
    and among any others; a missing one raises MissingColumn. Every later
    line with a cell that is not blank is a bar, its cells split as the csv
    module splits them; a quoted cell must close on its own line. Line
    numbers count the file's lines from 1 at the header.

    The file is read once and parsed as one block: each line's date cell is
    cut off at the commas before and after it and parsed with
    date.fromisoformat after stripping, and the four price columns of all
    lines are parsed as one float array by np.loadtxt. Lines are split into
    cells (`_cells`) only when the file holds a quote, or when some line of
    the block is blank, too short, or holds a bad date or a non-numeric
    price; then they are parsed one at a time, to find the first that fails.
    Every bar is checked against the bar rule (`bar_defect`) as arrays, and
    the first defective line in file order decides the error: UnparseableRow
    with its line number for a line too short, a bad date or a non-numeric
    price, or PriceInvariantViolation with its date for a non-finite or
    non-positive price or high/low that do not bracket open/close. A file
    with no bar raises SeriesTooShort. Bars are then sorted by one stable
    argsort of their dates, and a date on two lines raises DuplicateDate.
    Every error's message starts with the file's path.
    """
    path = Path(path)
    if asset is None:
        asset = path.stem
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    if not text:
        raise MissingColumn(f"{path}: empty file")
    header, *lines = text.split("\n")
    col_idx = {name.strip().lower(): i for i, name in enumerate(next(csv.reader([header]), []))}
    for name in REQUIRED_COLUMNS:
        if name not in col_idx:
            raise MissingColumn(f"{path}: no column {name!r}")
    date_col, *price_cols = (col_idx[name] for name in REQUIRED_COLUMNS)

    values = error = None
    if lines and not lines[-1]:
        lines.pop()  # what follows the file's last line break
    if lines and '"' not in text:
        try:
            heads = [line.split(",", date_col + 1)[date_col] for line in lines]
            dates = list(map(dt.date.fromisoformat, map(str.strip, heads)))
        except (IndexError, ValueError):  # a line too short, blank or with a bad date
            pass
        else:
            values = parse_values(lines, 4, price_cols)
    if values is None:
        dates, values, error = _first_defect(path, lines, date_col, price_cols)

    defect = bar_defect(*values.T)
    if defect:
        raise PriceInvariantViolation(dates[defect[0]], defect[1], path=path)
    if error is not None:
        raise error

    ordinals = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))
    order = np.argsort(ordinals, kind="stable")
    repeats = np.flatnonzero(np.diff(ordinals[order]) == 0)
    if repeats.size:
        raise DuplicateDate(dates[order[repeats[0]]], path=path)
    cols = values[order]
    return OhlcSeries(asset, tuple(map(dates.__getitem__, order.tolist())),
                      cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3])


def align_panel(series: Sequence[OhlcSeries]) -> OhlcPanel:
    """Intersect dates across assets; drop any date missing from any series."""
    if len(series) < 1:
        raise ValueError("need at least one series")
    for s in series:
        if len(s) == 0:
            raise ValueError(f"series {s.asset!r} is empty")

    common = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        raise EmptyIntersection("no date shared by all series")
    dates = tuple(sorted(common))

    aligned = []
    for s in series:
        pos = {d: i for i, d in enumerate(s.dates)}
        sel = np.array([pos[d] for d in dates], dtype=int)
        aligned.append(OhlcSeries(s.asset, dates, s.open[sel], s.high[sel],
                                  s.low[sel], s.close[sel]))
    return OhlcPanel(dates, tuple(s.asset for s in series), tuple(aligned))
