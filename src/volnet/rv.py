"""Annualized Yang-Zhang realized volatility from OHLC bars.

The estimator combines three components over a trailing window of n days:
overnight variance Var(ln(O_t/C_{t-1})), open-to-close variance
Var(ln(C_t/O_t)), and the window mean of the daily Rogers-Satchell variance,
weighted by k = 0.34 / (1.34 + (n+1)/(n-1)). Window variances use the sample
(n-1) denominator. The value stamped at date t uses bars t-n+1..t plus the
close at t-n for the first overnight return, so the first `window` dates of a
series produce no output.
"""

from __future__ import annotations

import datetime as dt
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DatesNotIncreasing,
    MissingColumn,
    SeriesTooShort,
    UnparseableRow,
    WindowTooSmall,
)
from .ingest import OhlcPanel, OhlcSeries, is_iso_date, parse_values


@dataclass(frozen=True)
class YzConfig:
    window: int = 30
    annualization: float = 252.0

    def __post_init__(self):
        if self.window < 2:
            raise WindowTooSmall(f"window {self.window} < 2")
        if not (math.isfinite(self.annualization) and self.annualization > 0):
            raise ValueError(f"annualization must be a finite number > 0, "
                             f"got {self.annualization}")


@dataclass(frozen=True)
class RvSeries:
    asset: str
    dates: tuple[dt.date, ...]
    values: np.ndarray
    n_clamped: int = 0  # windows whose pre-sqrt sum was clamped at 0

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class RvPanel:
    dates: tuple[dt.date, ...]
    assets: tuple[str, ...]
    values: np.ndarray  # N x K, annualized volatility fractions

    def __post_init__(self):
        if self.values.shape != (len(self.dates), len(self.assets)):
            raise ValueError("values shape does not match dates/assets")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("RV values must be finite")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def yz_weight(n: int) -> float:
    """Yang-Zhang weight k minimizing estimator variance for window n."""
    if n < 2:
        raise WindowTooSmall(f"window {n} < 2")
    return 0.34 / (1.34 + (n + 1) / (n - 1))


def _rs_daily(series: OhlcSeries) -> np.ndarray:
    return (np.log(series.high / series.close) * np.log(series.high / series.open)
            + np.log(series.low / series.close) * np.log(series.low / series.open))


def yang_zhang_rv(series: OhlcSeries, cfg: YzConfig = YzConfig()) -> RvSeries:
    n = cfg.window
    if len(series) <= n:
        raise SeriesTooShort(f"{series.asset}: {len(series)} bars, need > {n}")
    k = yz_weight(n)

    overnight = np.log(series.open[1:] / series.close[:-1])  # index t-1 holds ln(O_t/C_{t-1})
    open_close = np.log(series.close / series.open)
    rs = _rs_daily(series)

    # Window ending at bar t covers overnight[t-n..t-1] and open_close/rs[t-n+1..t].
    var_o = np.var(sliding_window_view(overnight, n), axis=1, ddof=1)
    var_oc = np.var(sliding_window_view(open_close[1:], n), axis=1, ddof=1)
    mean_rs = np.mean(sliding_window_view(rs[1:], n), axis=1)

    radicand = var_o + k * var_oc + (1.0 - k) * mean_rs
    n_clamped = int(np.sum(radicand < 0))
    values = np.sqrt(np.maximum(radicand, 0.0)) * np.sqrt(cfg.annualization)
    return RvSeries(series.asset, series.dates[n:], values, n_clamped)


def yang_zhang_panel(panel: OhlcPanel, cfg: YzConfig = YzConfig()) -> RvPanel:
    out = [yang_zhang_rv(s, cfg) for s in panel.series]
    dates = out[0].dates
    return RvPanel(dates, panel.assets, np.column_stack([r.values for r in out]))


def is_csv_name(name) -> bool:
    """True for a non-blank string that can stand unquoted as one CSV cell."""
    return isinstance(name, str) and name.strip() != "" and not any(c in name for c in ',"\r\n')


def csv_text(comments: Sequence[str], header: str, rows: Sequence[str]) -> str:
    """A CSV table as every volnet output holds one: each comment as a `# `
    line, the header, then the rows."""
    return "\n".join([f"# {c}" for c in comments] + [header, *rows]) + "\n"


def rv_csv_text(panel: RvPanel, comments: Sequence[str] = ()) -> str:
    """The panel as the CSV read_rv_csv reads, one row per date with values in
    round-trip repr."""
    return csv_text(comments, "date," + ",".join(panel.assets),
                    [d.isoformat() + "," + ",".join(map(repr, row))
                     for d, row in zip(panel.dates, panel.values.tolist())])


def _is_row(line: str) -> bool:
    """False for a blank line or a `#` comment, which an RV file may hold anywhere."""
    return bool(line.strip()) and not line.startswith("#")


def _row_values(rows: Sequence[str], n_assets: int) -> np.ndarray | None:
    """The numbers on data rows, as a len(rows) x n_assets array; None unless
    every row holds exactly n_assets + 1 comma-separated fields and a number
    in each field after the first."""
    # loadtxt needs fields 1..n_assets on every row, so n_assets commas a row
    # over all rows leaves exactly n_assets on each
    if "\n".join(rows).count(",") != n_assets * len(rows):
        return None
    return parse_values(rows, n_assets, range(1, n_assets + 1))


def read_rv_csv(path: str | Path) -> RvPanel:
    """Read an RV panel CSV, validating it where it enters.

    Blank lines and lines starting with `#` are skipped. The first other line
    is the header: `date`, then one column per asset. Each later line holds an
    ISO date and one finite number per asset, and the dates strictly
    increase. The file is split into lines once, and the numbers of all rows
    are parsed as one block by np.loadtxt; only when that block holds a `#`,
    a blank line or a defect are the comment and blank lines dropped one by
    one, and only when a defect remains is each row parsed alone, to name the
    first. A defect raises MissingColumn (no header, no asset column),
    SeriesTooShort (no data row), UnparseableRow (a blank or quoted asset
    column or one named twice in the header, a ragged row, a bad date, a
    non-numeric or non-finite value) or DatesNotIncreasing, naming the line
    of the file.
    """
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    start = next((i for i, line in enumerate(lines) if _is_row(line)), None)
    if start is None:
        raise MissingColumn("RV file has no header row")
    header = lines[start].split(",")
    if header[0].strip().lower() != "date":
        raise MissingColumn(f"line {start + 1}: RV header must start with 'date', "
                            f"got {header[0]!r}")
    assets = tuple(header[1:])
    if not assets:
        raise MissingColumn(f"line {start + 1}: RV header names no asset column")
    if not all(map(is_csv_name, assets)):
        raise UnparseableRow(start + 1, f"RV header names a blank or quoted asset: {assets!r}")
    repeat = next((a for i, a in enumerate(assets) if a in assets[:i]), None)
    if repeat is not None:
        raise UnparseableRow(start + 1, f"RV header repeats asset column {repeat!r}")
    K = len(assets)
    body = range(start + 1, len(lines))
    rows = lines[start + 1:]
    values = _row_values(rows, K) if rows and "#" not in "".join(rows) else None
    if values is None:  # a comment or blank line among the rows, or a defect
        body = [i for i in body if _is_row(lines[i])]
        if not body:
            raise SeriesTooShort("RV file has no data rows")
        rows = [lines[i] for i in body]
        values = _row_values(rows, K)
    if values is None:
        k = next(k for k, row in enumerate(rows) if _row_values([row], K) is None)
        n_fields = rows[k].count(",") + 1
        raise UnparseableRow(body[k] + 1, f"{n_fields} fields, expected {K + 1}"
                             if n_fields != K + 1 else f"non-numeric value in {rows[k]!r}")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise UnparseableRow(body[int(np.argmin(finite))] + 1, "non-finite value")
    heads = [row.partition(",")[0] for row in rows]
    try:
        dates = tuple(map(dt.date.fromisoformat, heads))
    except ValueError:
        k = next(k for k, head in enumerate(heads) if not is_iso_date(head))
        raise UnparseableRow(body[k] + 1, f"bad date {heads[k]!r}") from None
    if not all(map(operator.lt, dates, dates[1:])):
        k = next(k for k in range(1, len(dates)) if dates[k] <= dates[k - 1])
        raise DatesNotIncreasing(body[k] + 1, dates[k], dates[k - 1])
    return RvPanel(dates, assets, values)
