import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from volnet.errors import (
    DuplicateDate,
    EmptyIntersection,
    MissingColumn,
    PriceInvariantViolation,
    SeriesTooShort,
    UnparseableRow,
)
from volnet.ingest import REQUIRED_COLUMNS, OhlcBar, OhlcSeries, align_panel, load_ohlc_csv

from conftest import make_dates
from oracles import load_ohlc_rows


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


# ties, non-positive and non-finite values come up often enough to probe the boundaries
_PRICES = (st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan])
           | st.floats(-5.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(_PRICES, _PRICES, _PRICES, _PRICES)
def test_bar_accepted_exactly_when_positive_and_bracketed(o, h, l, c):
    finite = all(map(math.isfinite, (o, h, l, c)))
    valid = finite and min(o, h, l, c) > 0 and l <= min(o, c) and h >= max(o, c)
    if valid:
        bar = OhlcBar(dt.date(2020, 1, 1), o, h, l, c)
        assert (bar.open, bar.high, bar.low, bar.close) == (o, h, l, c)
    else:
        with pytest.raises(PriceInvariantViolation) as exc:
            OhlcBar(dt.date(2020, 1, 1), o, h, l, c)
        assert exc.value.date == dt.date(2020, 1, 1)
        assert ("non-finite price" in str(exc.value)) == (not finite)


# --- the block loader against the row-at-a-time oracle ---

_EXTRA_COLUMNS = ("volume", "Open Interest", "notes", "symbol")
_PAD = st.sampled_from(["", "", " ", "  ", "\t", " \t"])
_BLANK_ROWS = ["", " ", "\t", ",", ",,,", " , ,\t"]
_QUOTED_BLANK_ROWS = ['""', '"",," "']


@st.composite
def _cell(draw, text: str, may_quote: bool) -> str:
    """text with blanks drawn around it, maybe quoted (then maybe with a
    blank after the closing quote, which the csv module keeps); both loaders
    strip it back to text."""
    padded = draw(_PAD) + text + draw(_PAD)
    if may_quote and draw(st.booleans()):
        return '"' + padded + '"' + draw(st.sampled_from(["", "", " "]))
    return padded


@st.composite
def _price_texts(draw) -> list[str]:
    """A valid bar's open, high, low and close as text, in mixed notations."""
    if draw(st.booleans()):
        o, c = draw(st.lists(st.integers(1, 10**7), min_size=2, max_size=2))  # cents
        dh, dl = draw(st.lists(st.integers(0, 500) | st.just(0), min_size=2, max_size=2))
        h, l = max(o, c) + dh, max(1, min(o, c) - dl)
        return [draw(st.sampled_from([f"{x / 100:.2f}", repr(x / 100), f"{x}e-2", f"{x / 100:.8e}"]))
                for x in (o, h, l, c)]
    o, c = draw(st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=2))
    h = max(o, c) * draw(st.sampled_from([1.0, 1.0, 1.5]) | st.floats(1.0, 1.1))
    l = min(o, c) * draw(st.sampled_from([1.0, 1.0, 0.5]) | st.floats(0.9, 1.0))
    return [repr(x) for x in (o, h, l, c)]


def _mixed_case(name: str, mask: int) -> str:
    return "".join(ch.upper() if mask >> i & 1 else ch.lower() for i, ch in enumerate(name))


@st.composite
def _ohlc_file(draw):
    """An OHLC CSV's header cells and data rows as cell lists, each row a
    valid bar on its own date, rows shuffled, with extra columns in drawn
    places; whether cells may be quoted is drawn once per file."""
    quoting = draw(st.booleans())
    columns = list(REQUIRED_COLUMNS) + draw(st.lists(st.sampled_from(_EXTRA_COLUMNS),
                                                     unique=True, max_size=3))
    columns = draw(st.permutations(columns))
    header = [draw(_cell(_mixed_case(name, draw(st.integers(0, 2 ** len(name) - 1))), quoting))
              for name in columns]
    n = draw(st.integers(1, 12))
    days = draw(st.lists(st.integers(0, 4000), min_size=n, max_size=n, unique=True))
    width = 1 + max(columns.index(name) for name in REQUIRED_COLUMNS)
    rows = []
    for day in days:
        date = dt.date(2010, 1, 4) + dt.timedelta(days=day)
        fields = dict(zip(REQUIRED_COLUMNS[1:], draw(_price_texts())))
        fields["date"] = date.isoformat()
        row = []
        for name in columns:
            if name in fields:
                row.append(draw(_cell(fields[name], quoting)))
            elif not quoting or draw(st.booleans()):
                row.append(draw(_cell(draw(st.sampled_from(["", "12", "x y", "n/a"])), quoting)))
            else:  # a quoted cell may hold the delimiter and an escaped quote
                row.append(draw(st.sampled_from(['"Crude, light"', '"say ""hi"""', '""'])))
        cut = draw(st.integers(width, len(row) + 2))
        rows.append(row[:cut] + ["7"] * (cut - len(row)))
    return header, rows, quoting


@st.composite
def _file_text(draw, header: list[str], rows: list[list[str]], quoting: bool) -> str:
    """The file's text, with blank rows between rows and LF or CRLF line ends."""
    blank = st.sampled_from(_BLANK_ROWS + _QUOTED_BLANK_ROWS * quoting)
    lines = [",".join(header)]
    for row in rows:
        while draw(st.integers(0, 5)) == 0:
            lines.append(draw(blank))
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _write(tmp_path, text: str):
    path = tmp_path / "X.csv"
    path.write_bytes(text.encode())
    return path


def _assert_same_series(got, want):
    assert got.asset == want.asset and got.dates == want.dates
    for name in ("open", "high", "low", "close"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
        assert a.tobytes() == b.tobytes()


def _files(max_examples: int):
    # the smallest file is a header and a row of drawn cells, larger than
    # Hypothesis's base-example budget
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.large_base_example])


@_files(200)
@given(st.data())
def test_block_loader_returns_the_row_oracles_series_bit_for_bit(tmp_path_factory, data):
    header, rows, quoting = data.draw(_ohlc_file())
    path = _write(tmp_path_factory.mktemp("ohlc"), data.draw(_file_text(header, rows, quoting)))
    _assert_same_series(load_ohlc_csv(path, "X"), load_ohlc_rows(path, "X"))


# an unclosed quote is left out: the csv module would join the next lines to
# the cell, the loader refuses it (test_quoted_cell_must_close_on_its_line)
_PARSE_DEFECTS = {"date": ["2020-13-40", "yesterday", ""],
                  "price": ["abc", "", "1..2", "--1", ' "12.5"', "0x10", "1e"]}
_BAR_DEFECTS = ["0", "-3.5", "inf", "-inf", "nan", "NaN", "1e400", "1e-300"]


@st.composite
def _defective_rows(draw, header: list[str], rows: list[list[str]]) -> list[list[str]]:
    """rows with one to three drawn defects: a cell that does not parse, a
    row cut short, a price that breaks the bar rule, or a repeated date."""
    names = [cell.strip().strip('"').strip().lower() for cell in header]
    at = {name: names.index(name) for name in REQUIRED_COLUMNS}
    rows = [list(row) for row in rows]

    def put(k, name, text):
        if len(rows[k]) > at[name]:
            rows[k][at[name]] = text

    for _ in range(draw(st.integers(1, 3))):
        k, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        price = draw(st.sampled_from(REQUIRED_COLUMNS[1:]))
        kind = draw(st.sampled_from(["date", "price", "short", "bar", "swap", "repeat"]))
        if kind == "date":
            put(k, "date", draw(st.sampled_from(_PARSE_DEFECTS["date"])))
        elif kind == "price":
            put(k, price, draw(st.sampled_from(_PARSE_DEFECTS["price"])))
        elif kind == "short":
            rows[k] = rows[k][:draw(st.integers(1, max(at.values())))]
        elif kind == "bar":
            put(k, price, draw(st.sampled_from(_BAR_DEFECTS)))
        elif kind == "swap" and len(rows[k]) > max(at["high"], at["low"]):
            rows[k][at["high"]], rows[k][at["low"]] = rows[k][at["low"]], rows[k][at["high"]]
        elif kind == "repeat" and len(rows[j]) > at["date"]:
            put(k, "date", rows[j][at["date"]])
    return rows


def _outcome(load, path):
    """What loading path gives: the series, or the error's class and what
    it names (line number, date, message). A file whose rows are all blank
    counts as too short."""
    try:
        series = load(path, "X")
    except (UnparseableRow, PriceInvariantViolation, DuplicateDate, SeriesTooShort) as exc:
        return type(exc), getattr(exc, "line_number", None), getattr(exc, "date", None), \
            str(exc) if isinstance(exc, PriceInvariantViolation) else None
    return series if len(series) else (SeriesTooShort, None, None, None)


@_files(300)
@given(st.data())
def test_block_loader_raises_what_the_row_oracle_raises(tmp_path_factory, data):
    header, rows, quoting = data.draw(_ohlc_file())
    rows = data.draw(_defective_rows(header, rows))
    path = _write(tmp_path_factory.mktemp("ohlc"), data.draw(_file_text(header, rows, quoting)))
    got, want = _outcome(load_ohlc_csv, path), _outcome(load_ohlc_rows, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_series(got, want)


GOOD = ["2020-01-03,101,103,100,102", "2020-01-01,100,102,99,101", "2020-01-02,101,102,100,100.5"]


@pytest.mark.parametrize("rows, error, line_number, date", [
    # a bar defect on line 3 comes before a parse error on line 5
    (GOOD[:1] + ["2020-01-05,100,99,101,100"] + GOOD[1:2] + ["2020-01-06,abc,1,1,1"],
     PriceInvariantViolation, None, dt.date(2020, 1, 5)),
    # a parse error on line 3 comes before a bar defect on line 5
    (GOOD[:1] + ["2020-01-06,abc,1,1,1"] + GOOD[1:2] + ["2020-01-05,100,99,101,100"],
     UnparseableRow, 3, None),
    # a bad date on line 4 comes before a non-numeric price on line 5
    (GOOD[:2] + ["2020-02-30,1,1,1,1", "2020-01-07,1,x,1,1"], UnparseableRow, 4, None),
    # a row cut short on line 3 comes before a non-finite price on line 4
    (GOOD[:1] + ["2020-01-06,1,1", "2020-01-07,1,inf,1,1"], UnparseableRow, 3, None),
    # a repeated date among unsorted rows, checked once every row is valid
    (GOOD + ["2020-01-02,100,102,99,101"], DuplicateDate, None, dt.date(2020, 1, 2)),
    (["2020-01-09,1,1,1,1", "2020-01-04,1,1,1,1", "2020-01-09,1,2,1,1", "2020-01-04,1,1,1,1"],
     DuplicateDate, None, dt.date(2020, 1, 4)),
])
def test_first_defect_in_file_order_decides_the_error(tmp_path, rows, error, line_number, date):
    f = tmp_path / "x.csv"
    write_csv(f, rows)
    for load in (load_ohlc_csv, load_ohlc_rows):
        with pytest.raises(error) as exc:
            load(f, "X")
        assert getattr(exc.value, "line_number", None) == line_number
        assert getattr(exc.value, "date", None) == date


@pytest.mark.parametrize("price", ["inf", "-inf", "nan", "1e400"])
def test_load_non_finite_price_rejected(tmp_path, price):
    f = tmp_path / "x.csv"
    write_csv(f, GOOD[:2] + [f"2020-01-02,100,{price},99,101"])
    with pytest.raises(PriceInvariantViolation, match="2020-01-02: non-finite price"):
        load_ohlc_csv(f)


def test_load_header_only_file_is_too_short(tmp_path):
    f = tmp_path / "ES.csv"
    f.write_text("date,open,high,low,close\n\n , ,\n")
    with pytest.raises(SeriesTooShort, match="ES.csv"):
        load_ohlc_csv(f)


def test_quoted_cell_must_close_on_its_line(tmp_path):
    # the csv module would read line 4 into the note and drop its bar
    f = tmp_path / "x.csv"
    write_csv(f, GOOD[:1] + ['2020-01-01,100,102,99,101,"note', 'more"', GOOD[2]],
              header="date,open,high,low,close,notes")
    with pytest.raises(UnparseableRow, match="does not close") as exc:
        load_ohlc_csv(f)
    assert exc.value.line_number == 3
