import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volnet.errors import (
    DuplicateDate,
    EmptyIntersection,
    MissingColumn,
    PriceInvariantViolation,
    UnparseableRow,
)
from volnet.ingest import OhlcBar, OhlcSeries, align_panel, load_ohlc_csv

from conftest import make_dates


def write_csv(path, rows, header="date,open,high,low,close"):
    path.write_text("\n".join([header] + rows) + "\n")


def test_load_valid_rows_sorted(tmp_path):
    f = tmp_path / "ZS.csv"
    write_csv(f, [
        "2020-01-03,101,103,100,102",
        "2020-01-01,100,102,99,101",
        "2020-01-02,101,102,100,100.5",
    ])
    s = load_ohlc_csv(f)
    assert s.asset == "ZS"
    assert len(s) == 3
    assert list(s.dates) == [dt.date(2020, 1, 1), dt.date(2020, 1, 2), dt.date(2020, 1, 3)]
    assert s.open[0] == 100.0 and s.close[2] == 102.0


def test_load_case_insensitive_header_and_extra_columns(tmp_path):
    f = tmp_path / "x.csv"
    write_csv(f, ["2020-01-01,100,102,99,101,55"], header="Date,Open,High,Low,Close,Volume")
    s = load_ohlc_csv(f, asset="CL")
    assert s.asset == "CL"
    assert len(s) == 1


def test_load_missing_column(tmp_path):
    f = tmp_path / "x.csv"
    write_csv(f, ["2020-01-01,100,102,101"], header="date,open,high,close")
    with pytest.raises(MissingColumn):
        load_ohlc_csv(f)


def test_load_high_low_swap_rejected(tmp_path):
    f = tmp_path / "x.csv"
    write_csv(f, ["2020-01-01,100,99,101,100"])  # high=99 < low=101
    with pytest.raises(PriceInvariantViolation):
        load_ohlc_csv(f)


def test_load_nonpositive_price_rejected(tmp_path):
    f = tmp_path / "x.csv"
    write_csv(f, ["2020-01-01,100,102,-1,101"])
    with pytest.raises(PriceInvariantViolation):
        load_ohlc_csv(f)


def test_load_unparseable_row_reports_line(tmp_path):
    f = tmp_path / "x.csv"
    write_csv(f, ["2020-01-01,100,102,99,101", "2020-01-02,abc,102,99,101"])
    with pytest.raises(UnparseableRow) as exc:
        load_ohlc_csv(f)
    assert exc.value.line_number == 3


def test_load_duplicate_date(tmp_path):
    f = tmp_path / "x.csv"
    write_csv(f, ["2020-01-01,100,102,99,101", "2020-01-01,101,103,100,102"])
    with pytest.raises(DuplicateDate):
        load_ohlc_csv(f)


def bar(date, o=100.0, h=102.0, l=99.0, c=101.0):
    return OhlcBar(date, o, h, l, c)


def series_for(asset, dates):
    n = len(dates)
    base = np.full(n, 100.0)
    return OhlcSeries(asset, tuple(dates), base, base * 1.02, base * 0.99, base * 1.01)


def test_align_identical_dates():
    dates = make_dates(5)
    p = align_panel([series_for("A", dates), series_for("B", dates)])
    assert len(p) == 5
    assert p.assets == ("A", "B")


def test_align_drops_unshared_dates():
    dates = make_dates(6)
    a = series_for("A", dates)
    b = series_for("B", dates[:-1])  # one fewer date
    p = align_panel([a, b])
    assert len(p) == 5
    assert p.dates == dates[:-1]


def test_align_disjoint_raises():
    a = series_for("A", make_dates(3, dt.date(2020, 1, 1)))
    b = series_for("B", make_dates(3, dt.date(2021, 1, 1)))
    with pytest.raises(EmptyIntersection):
        align_panel([a, b])


def test_align_idempotent():
    dates = make_dates(8)
    a = series_for("A", dates)
    b = series_for("B", dates[2:])
    once = align_panel([a, b])
    twice = align_panel(list(once.series))
    assert once.dates == twice.dates
    for s1, s2 in zip(once.series, twice.series):
        np.testing.assert_array_equal(s1.close, s2.close)


def test_align_length_bounded_and_order_preserved():
    dates = make_dates(10)
    a = series_for("A", dates)
    b = series_for("B", dates[1:])
    c = series_for("C", dates[:-1])
    p = align_panel([c, a, b])
    assert len(p) <= min(len(a), len(b), len(c))
    assert p.assets == ("C", "A", "B")


def test_bar_invariant_checked_at_construction():
    with pytest.raises(PriceInvariantViolation):
        OhlcBar(dt.date(2020, 1, 1), 100.0, 100.5, 99.0, 101.0)  # high < close


# ties and non-positive values come up often enough to probe the boundaries
_PRICES = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0]) | st.floats(-5.0, 5.0)


@settings(max_examples=300, deadline=None)
@given(_PRICES, _PRICES, _PRICES, _PRICES)
def test_bar_accepted_exactly_when_positive_and_bracketed(o, h, l, c):
    valid = min(o, h, l, c) > 0 and l <= min(o, c) and h >= max(o, c)
    if valid:
        bar = OhlcBar(dt.date(2020, 1, 1), o, h, l, c)
        assert (bar.open, bar.high, bar.low, bar.close) == (o, h, l, c)
    else:
        with pytest.raises(PriceInvariantViolation):
            OhlcBar(dt.date(2020, 1, 1), o, h, l, c)
