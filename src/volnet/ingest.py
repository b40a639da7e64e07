"""Load per-asset daily OHLC files and build a date-aligned multi-asset panel.

One CSV per asset with header ``date,open,high,low,close`` (case-insensitive,
extra columns ignored). Alignment keeps only dates present in every series;
missing dates are dropped, never filled, because fabricated OHLC ranges would
corrupt the range-based variance terms downstream.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateDate,
    EmptyIntersection,
    MissingColumn,
    PriceInvariantViolation,
    UnparseableRow,
)

REQUIRED_COLUMNS = ("date", "open", "high", "low", "close")


@dataclass(frozen=True)
class OhlcBar:
    date: dt.date
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self):
        prices = (self.open, self.high, self.low, self.close)
        if not all(p > 0 for p in prices):
            raise PriceInvariantViolation(self.date, "non-positive price")
        if self.low > min(self.open, self.close) or self.high < max(self.open, self.close):
            raise PriceInvariantViolation(self.date, "high/low does not bracket open/close")


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


def load_ohlc_csv(path: str | Path, asset: str | None = None) -> OhlcSeries:
    """Parse one asset's OHLC CSV, sort by date, and validate every bar."""
    path = Path(path)
    if asset is None:
        asset = path.stem
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn("empty file") from None
        col_idx = {name.strip().lower(): i for i, name in enumerate(header)}
        for name in REQUIRED_COLUMNS:
            if name not in col_idx:
                raise MissingColumn(name)
        idx = [col_idx[name] for name in REQUIRED_COLUMNS]

        rows: list[tuple[dt.date, float, float, float, float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                date = dt.date.fromisoformat(row[idx[0]].strip())
                prices = tuple(float(row[i]) for i in idx[1:])
            except (ValueError, IndexError) as exc:
                raise UnparseableRow(line_no, str(exc)) from None
            OhlcBar(date, *prices)  # raises PriceInvariantViolation on bad bars
            rows.append((date, *prices))

    rows.sort(key=lambda r: r[0])
    for prev, cur in zip(rows, rows[1:]):
        if prev[0] == cur[0]:
            raise DuplicateDate(cur[0])

    dates = tuple(r[0] for r in rows)
    cols = np.array([r[1:] for r in rows], dtype=float).reshape(len(rows), 4)
    return OhlcSeries(asset, dates, cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3])


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
